"""One membership computation per stable set, applied at the caller's tol
by every entry point: in_stable1, psi1, project1, the k1 routes and the
CLI's `info`, `map --which psi1`, `potential --which k1` and `project
--structure i1` accept and refuse the same first-stable points, and
in_stable3, psi3, project3, K3_spectral and the k3 and k3hat routes the
same third-stable points (the CLI's third-structure verbs on the
ill-conditioned point are in test_cli.py).  The third-stable
rule is moment._stable3_verdict's alone: psi3 returns its orbit operator z
without judging anything by it, so a stable point with an ill-conditioned
x + X, on which z acts as i k^2 on P only up to the equations' residual
times cond(x + X), is accepted everywhere.  At the rank boundary,
tol = sigma_min / sigma_max, LAPACK rounds sigma differently for each
factorization (a thin SVD, a values-only SVD, the R factor of a thin QR),
so the entries agree there only because they read the same factorization.

_stable3_verdict certifies the rank from the equations' residuals where it
can; the certified verdicts are compared with the thin-SVD rule, which
the certificate replaces, over a sweep of shapes, k and tol."""

import itertools

import numpy as np
import pytest

from conftest import fresh, ill_conditioned_stable3
from hkq import cli, jsonio
from hkq.config import DEFAULT_MEMBERSHIP_TOL
from hkq.errors import NotInStable1, NotInStable3
from hkq.grassmann import psi1, psi3
from hkq.hkspace import ConfigPoint, Truncation
from hkq.matcore import dagger, fnorm
from hkq.moment import in_stable1, in_stable3
from hkq.potentials import K1_closed, K3_spectral, evaluate_routes
from hkq.quotient import project1, project3
from hkq.sampling import (
    gaussian_complex,
    make_rng,
    random_unitary,
    sample_stable1,
    sample_stable3,
)

SQRT2 = np.sqrt(2.0)


def _accepts(f, pt, tol, refusal) -> bool:
    try:
        f(pt, tol)
    except refusal:
        return False
    return True


def _thin_x_point() -> ConfigPoint:
    """X*x = 0 exactly and sigma_min(x) / sigma_max(x) = 1e-11: first-stable
    at tol 1e-12, not at 1e-9."""
    x = np.zeros((5, 2), dtype=complex)
    x[0, 0], x[1, 1] = SQRT2, 1e-11 * SQRT2
    X = np.zeros((5, 2), dtype=complex)
    X[2, 0], X[3, 1] = 0.5, 0.3
    return ConfigPoint(Truncation(2, 3, SQRT2), x, X)


@pytest.mark.parametrize("tol,member", [(1e-12, True), (1e-9, False)])
def test_first_stable_entries_agree_on_thin_x(tol, member):
    pt = _thin_x_point()
    assert in_stable1(pt, tol) is member
    assert _accepts(psi1, pt, tol, NotInStable1) is member
    assert _accepts(project1, pt, tol, NotInStable1) is member


@pytest.mark.parametrize("tol,member,exit_code", [
    ("1e-12", True, cli.EXIT_OK),
    ("1e-09", False, cli.EXIT_INPUT),
])
def test_cli_info_and_psi1_agree_on_thin_x(tol, member, exit_code, tmp_path, capsys):
    point, cot = tmp_path / "thin.json", tmp_path / "cot.json"
    jsonio.save_point(point, _thin_x_point())
    assert cli.main(["--tol", tol, "info", "-i", str(point)]) == cli.EXIT_OK
    assert f"in_stable1 {member}" in capsys.readouterr().out
    argv = ["--tol", tol, "map", "--which", "psi1", "-i", str(point), "-o", str(cot)]
    assert cli.main(argv) == exit_code


def _off_stable1(seed: int) -> ConfigPoint:
    """A first-stable sample with X moved along Ran x so that
    ||X*x|| = 5e-7 k^2: first-stable at tol 1e-6, not at 1e-9.  eta's
    cotangent invariants hold to round-off at any tol, so psi1 accepts the
    point wherever the membership rule does."""
    pt = sample_stable1(Truncation(4, 5, SQRT2), make_rng(seed))
    d = pt.x @ gaussian_complex(make_rng(99), (4, 4))
    d = d * (5e-7 * pt.trunc.k2 / fnorm(dagger(d) @ pt.x))
    return ConfigPoint(pt.trunc, pt.x, pt.X + d)


def _k1_routes(pt, tol):
    return evaluate_routes(pt, "k1", tol)


@pytest.mark.parametrize("tol,member", [(1e-6, True), (1e-9, False)])
@pytest.mark.parametrize("seed", [1, 2])
def test_first_stable_entries_agree_off_the_equation(seed, tol, member):
    pt = _off_stable1(seed)
    assert in_stable1(pt, tol) is member
    for entry in (psi1, project1, _k1_routes):
        assert _accepts(entry, pt, tol, NotInStable1) is member


@pytest.mark.parametrize("tol,member", [("1e-06", True), ("1e-09", False)])
@pytest.mark.parametrize("seed", [1, 2])
def test_cli_verbs_agree_off_the_first_stable_equation(seed, tol, member, tmp_path,
                                                       capsys):
    point, cot = tmp_path / "off.json", tmp_path / "cot.json"
    jsonio.save_point(point, _off_stable1(seed))
    assert cli.main(["--tol", tol, "info", "-i", str(point)]) == cli.EXIT_OK
    assert f"in_stable1 {member}" in capsys.readouterr().out
    exit_code = cli.EXIT_OK if member else cli.EXIT_INPUT
    for argv in (["map", "--which", "psi1", "-o", str(cot)],
                 ["potential", "--which", "k1"],
                 ["project", "--structure", "i1", "-o", str(tmp_path / "level.json")]):
        assert cli.main(["--tol", tol, *argv, "-i", str(point)]) == exit_code
    if member:  # the written cotangent file passes the invariants on load
        jsonio.load_cotangent(cot)


def _off_stable3(seed: int) -> ConfigPoint:
    """A third-stable sample with X moved by 1e-8 along a unit direction:
    the third-stable equations are off by about 1e-8 k^2."""
    pt = sample_stable3(Truncation(4, 5, SQRT2), make_rng(seed))
    e = gaussian_complex(make_rng(99), pt.X.shape)
    return ConfigPoint(pt.trunc, pt.x, pt.X + 1e-8 * e / fnorm(e))


def _k3_routes(pt, tol):
    return evaluate_routes(pt, "k3", tol)


def _k3hat_routes(pt, tol):
    return evaluate_routes(pt, "k3hat", tol)


THIRD_STABLE_ENTRIES = (psi3, project3, K3_spectral, _k3_routes, _k3hat_routes)


@pytest.mark.parametrize("tol,member", [(1e-6, True), (1e-9, False)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_third_stable_entries_agree_on_a_perturbed_point(seed, tol, member):
    pt = _off_stable3(seed)
    assert in_stable3(pt, tol) is member
    for entry in THIRD_STABLE_ENTRIES:
        assert _accepts(entry, pt, tol, NotInStable3) is member, entry


def _ratio(s):
    return s[-1] / s[0]


def _rank_ratios(m):
    """sigma_min / sigma_max of x from a values-only SVD and from the thin
    SVD that first-stable membership factors x with."""
    return [_ratio(np.linalg.svd(m, compute_uv=False)),
            _ratio(np.linalg.svd(m, full_matrices=False)[1])]


def _qr_rank_ratios(m):
    """sigma_min / sigma_max of x +/- X from a values-only SVD and from the
    singular values of the R factor of its thin QR, which third-stable
    membership reads when the certificate does not decide."""
    return [_ratio(np.linalg.svd(m, compute_uv=False)),
            _ratio(np.linalg.svd(np.linalg.qr(m)[1], compute_uv=False))]


def _rotated_thin_x_point(seed: int) -> ConfigPoint:
    """_thin_x_point turned by random unitaries of C^5 and C^2: the same
    singular values, which each SVD variant rounds in its own way."""
    rng = make_rng(seed)
    v, w = random_unitary(5, rng), random_unitary(2, rng)
    pt = _thin_x_point()
    return ConfigPoint(pt.trunc, v @ pt.x @ dagger(w), v @ pt.X @ dagger(w))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_first_stable_entries_agree_at_the_rank_boundary(seed):
    pt = sample_stable1(Truncation(4, 5, SQRT2), make_rng(seed))
    for tol in _rank_ratios(pt.x):
        member = in_stable1(pt, tol)
        for entry in (psi1, project1, K1_closed, _k1_routes):
            assert _accepts(entry, pt, tol, NotInStable1) is member, (entry, tol)


@pytest.mark.parametrize("seed", [0, 5, 8])
def test_in_stable1_and_psi1_agree_at_the_rank_boundary_of_a_thin_x(seed):
    pt = _rotated_thin_x_point(seed)
    for tol in _rank_ratios(pt.x):
        assert _accepts(psi1, pt, tol, NotInStable1) is in_stable1(pt, tol), tol


@pytest.mark.parametrize("seed,operand", [(0, "minus"), (4, "minus"), (7, "plus")])
def test_third_stable_entries_agree_at_the_rank_boundary(seed, operand):
    pt = sample_stable3(Truncation(4, 5, SQRT2), make_rng(seed))
    for tol in _qr_rank_ratios(pt.x + pt.X if operand == "plus" else pt.x - pt.X):
        member = in_stable3(pt, tol)
        for entry in THIRD_STABLE_ENTRIES:
            assert _accepts(entry, pt, tol, NotInStable3) is member, (entry, tol)


ILL_CONDITIONED_FAMILY = [(*shape, *rest) for shape, *rest in itertools.product(
    [(2, 3), (4, 5)], [SQRT2, 5.0], [1e2, 1e3], [5e-11, 2e-10], [0, 1, 2])]


@pytest.mark.parametrize("p,q,k,cond,offset,seed", ILL_CONDITIONED_FAMILY)
def test_third_stable_entries_accept_an_ill_conditioned_point(p, q, k, cond, offset,
                                                              seed):
    # z F_P - i k^2 F_P is about cond(x + X) times the equations' residual
    # here, well above tol k^2: no entry may judge membership by z
    tol = DEFAULT_MEMBERSHIP_TOL
    pt = ill_conditioned_stable3(p, q, k, cond, offset, seed)
    assert in_stable3(pt, tol)
    for entry in THIRD_STABLE_ENTRIES:
        assert _accepts(entry, pt, tol, NotInStable3), entry
    values = list(evaluate_routes(pt, "k3", tol).values())
    assert (max(values) - min(values)) / max(1.0, abs(values[0])) <= cli.CROSS_ROUTE_TOL


def _stable3_oracle(pt):
    """The third-stable rule as judged on thin SVDs of x +/- X, with no
    certificate: a function of tol that gives in_stable3's verdict from the
    equations' residuals and sigma_min > tol sigma_max for both."""
    x, X, k2 = pt.x, pt.X, pt.trunc.k2
    r1 = fnorm(dagger(x) @ x - dagger(X) @ X - k2 * np.eye(pt.trunc.p))
    r2 = fnorm(dagger(X) @ x - dagger(x) @ X)
    ratios = [_ratio(np.linalg.svd(m, full_matrices=False)[1]) for m in (x + X, x - X)]
    return lambda tol: bool(max(r1, r2) <= tol * k2 and min(ratios) > tol)


SWEEP_TOLS = np.geomspace(1e-12, 0.9, 60)


@pytest.mark.parametrize("k", [0.05, SQRT2, 30.0])
@pytest.mark.parametrize("p,q", [(1, 1), (2, 3), (4, 5), (6, 2), (8, 64), (16, 16)])
def test_certified_membership_matches_the_thin_svd_rule(p, q, k):
    for seed in range(5):
        pt = sample_stable3(Truncation(p, q, k), make_rng(seed))
        oracle = _stable3_oracle(pt)
        for tol in SWEEP_TOLS:
            assert in_stable3(pt, tol) is oracle(tol), (seed, tol)


@pytest.mark.parametrize("p,q,k,cond,offset,seed", ILL_CONDITIONED_FAMILY)
def test_certified_membership_matches_the_thin_svd_rule_when_ill_conditioned(
        p, q, k, cond, offset, seed):
    pt = ill_conditioned_stable3(p, q, k, cond, offset, seed)
    oracle = _stable3_oracle(pt)
    for tol in (DEFAULT_MEMBERSHIP_TOL, *SWEEP_TOLS):
        assert in_stable3(pt, tol) is oracle(tol), tol


@pytest.mark.parametrize("p,q", [(1, 1), (4, 5), (8, 64)])
@pytest.mark.parametrize("seed", range(3))
def test_the_certificate_decides_at_desk_scale(p, q, seed, lapack_calls):
    # the equations' residuals bound the rank ratios of x +/- X far above
    # the default tol: the verdict factors nothing, no QR and no SVD (the
    # frames' two thin QRs are taken only by the entries that read them)
    pt = fresh(sample_stable3(Truncation(p, q, SQRT2), make_rng(seed)))
    lapack_calls.clear()
    assert in_stable3(pt)
    assert dict(lapack_calls) == {}


@pytest.mark.parametrize("p,q", [(1, 1), (4, 5), (8, 64)])
def test_k3_spectral_reads_the_verdict_and_takes_no_qr(p, q, lapack_calls):
    # K3_spectral reads no frame: the certified verdict, then one Cholesky
    # factor and the eigenvalues of the spectral operand
    pt = fresh(sample_stable3(Truncation(p, q, SQRT2), make_rng(0)))
    lapack_calls.clear()
    K3_spectral(pt)
    assert dict(lapack_calls) == {"cholesky": 1, "eigvalsh": 1}


@pytest.mark.parametrize("seed", [0, 4, 7])
def test_the_rank_boundary_is_judged_on_the_r_factors(seed, lapack_calls):
    # at tol near sigma_min / sigma_max no certificate holds, so the rule is
    # read off the singular values of R_A and R_C: the point is refused at
    # the smaller of their two ratios and accepted one float below it; a
    # refusal on R_A skips R_C's values
    pt = sample_stable3(Truncation(4, 5, SQRT2), make_rng(seed))
    plus, minus = (_qr_rank_ratios(m)[1] for m in (pt.x + pt.X, pt.x - pt.X))
    boundary = min(plus, minus)
    for tol, member in ((boundary, False), (np.nextafter(boundary, 0.0), True)):
        lapack_calls.clear()
        assert in_stable3(fresh(pt), tol) is member, tol
        values = 1 if not member and plus <= minus else 2
        assert dict(lapack_calls) == {"qr reduced": 2, "svd values": values}, tol
