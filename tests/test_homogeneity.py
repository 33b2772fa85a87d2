"""Exact homogeneity: a free oracle for every route and projection.

The level and stable-set equations are homogeneous of degree 2 in
(x, X, k), the potentials too, and the projected point of degree 1.
Multiplying by a power of two is exact in IEEE arithmetic (away from
overflow and underflow), so under (x, X, k) -> 2^m (x, X, k) every route
value is multiplied by exactly 4^m, every projected point by exactly 2^m,
the group part of project1 and the h of project3 do not change, and no
membership verdict moves: the rank certificate of moment._stable3_verdict,
2 tol ||x + X||_F ||x - X||_F < k^2 - r1 - r2, is of degree 2 on both
sides.  Any absolute constant that enters a route breaks this bit for bit.

Three more exact symmetries act on the routes.  Entrywise conjugation of
(x, X) conjugates every factorization, and the potentials are real, so
every route value is unchanged bit for bit.  X -> -X swaps P = Ran(x + X)
and Q^perp = Ran(x - X) and keeps the third-structure orbit invariants, so
the k3 and k3hat routes agree to round-off.  A unitary U of U(n) acting on
the left, the finite shadow of U_res acting on Gr_res, moves P, Q and the
fiber together and keeps every route to round-off.

The structural pre-checks are relative too: a matrix counts as Hermitian
when ||M - M*|| <= tol ||M|| (matcore.is_hermitian) and as skew when
||a + a*|| <= tol ||a|| (moment_pairing_check), so no verdict of
herm_eig, character_log_term or moment_pairing_check moves under
M -> 2^m M.
"""

import warnings

import numpy as np
import pytest

from hkq import cli, potentials
from hkq.errors import HkqError, NotHermitian
from hkq.hkspace import ConfigPoint, Truncation
from hkq.matcore import herm_eig
from hkq.moment import in_stable1, in_stable3, moment_pairing_check
from hkq.potentials import character_log_term, evaluate_routes
from hkq.quotient import project1, project3
from hkq.sampling import (
    gaussian_complex,
    make_rng,
    random_tangent,
    random_unitary,
    sample_stable1,
    sample_stable3,
)

SQRT2 = np.sqrt(2.0)
SHAPES = [(1, 1), (2, 3), (4, 5), (6, 2), (8, 64)]
KS = [0.3, SQRT2, 5.0]
SEEDS = range(6)
EXPONENTS = (-40, 40)
SAMPLERS = {"k1": sample_stable1, "k3": sample_stable3, "k3hat": sample_stable3}


def _scaled(pt: ConfigPoint, m: int) -> ConfigPoint:
    s = 2.0 ** m
    t = pt.trunc
    return ConfigPoint(Truncation(t.p, t.q, s * t.k), s * pt.x, s * pt.X)


def _routes(pt: ConfigPoint, which: str) -> dict[str, float]:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # IntegralityWarning for k1
        return evaluate_routes(pt, which)


def _inexact(which: str, pt: ConfigPoint) -> list:
    """The (m, route) pairs whose value at the scaled point is not exactly
    4^m times the value at pt."""
    base = _routes(pt, which)
    return [(m, route) for m in EXPONENTS
            for route, value in _routes(_scaled(pt, m), which).items()
            if value != 4.0 ** m * base[route]]


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("which", ["k1", "k3", "k3hat"])
@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("p,q", SHAPES)
def test_every_route_scales_by_exactly_4_to_the_m(p, q, k, which):
    for seed in SEEDS:
        pt = SAMPLERS[which](Truncation(p, q, k), make_rng(seed))
        assert _inexact(which, pt) == [], seed


def _far(pt: ConfigPoint, x: np.ndarray, X: np.ndarray, which: str) -> list:
    """The routes whose value at (x, X) is not within 1e-12 relative of
    their value at pt."""
    got, want = _routes(ConfigPoint(pt.trunc, x, X), which), _routes(pt, which)
    return [route for route, value in want.items()
            if not abs(got[route] - value) <= 1e-12 * abs(value)]


@pytest.mark.parametrize("which", ["k1", "k3", "k3hat"])
@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("p,q", SHAPES)
def test_every_route_is_unchanged_bit_for_bit_by_conjugation(p, q, k, which):
    for seed in SEEDS:
        pt = SAMPLERS[which](Truncation(p, q, k), make_rng(seed))
        conj = ConfigPoint(pt.trunc, pt.x.conj(), pt.X.conj())
        assert _routes(conj, which) == _routes(pt, which), seed


@pytest.mark.parametrize("which", ["k3", "k3hat"])
@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("p,q", SHAPES)
def test_third_structure_routes_are_even_in_X(p, q, k, which):
    for seed in SEEDS:
        pt = SAMPLERS[which](Truncation(p, q, k), make_rng(seed))
        assert _far(pt, pt.x, -pt.X, which) == [], seed


@pytest.mark.parametrize("which", ["k1", "k3", "k3hat"])
@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("p,q", SHAPES)
def test_every_route_is_invariant_under_unitaries_on_the_left(p, q, k, which):
    for seed in SEEDS:
        rng = make_rng(seed)
        pt = SAMPLERS[which](Truncation(p, q, k), rng)
        u = random_unitary(p + q, rng)
        assert _far(pt, u @ pt.x, u @ pt.X, which) == [], seed


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("p,q", SHAPES)
def test_projections_scale_by_exactly_2_to_the_m(p, q, k):
    for seed in range(2):
        trunc = Truncation(p, q, k)
        pt1, pt3 = sample_stable1(trunc, make_rng(seed)), sample_stable3(trunc, make_rng(seed))
        res1, res3 = project1(pt1), project3(pt3)
        for m in EXPONENTS:
            s = 2.0 ** m
            new1, new3 = project1(_scaled(pt1, m)), project3(_scaled(pt3, m))
            for old, new in ((res1, new1), (res3, new3)):
                assert _same_bits(new.point.x, s * old.point.x), (seed, m)
                assert _same_bits(new.point.X, s * old.point.X), (seed, m)
            assert _same_bits(new1.group_part, res1.group_part), (seed, m)
            assert _same_bits(new3.eigenvalues, res3.eigenvalues), (seed, m)


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("p,q", SHAPES)
def test_membership_verdicts_do_not_depend_on_the_unit(p, q, k):
    # tols across both halves of the third-stable rank rule: where the
    # certificate decides and where the R factors' singular values do
    tols = np.geomspace(1e-12, 0.9, 12)
    for seed in range(2):
        trunc = Truncation(p, q, k)
        for pt in (sample_stable1(trunc, make_rng(seed)), sample_stable3(trunc, make_rng(seed))):
            verdicts = [(in_stable1(pt, tol), in_stable3(pt, tol)) for tol in tols]
            for m in EXPONENTS:
                big = _scaled(pt, m)
                assert [(in_stable1(big, tol), in_stable3(big, tol)) for tol in tols] == verdicts


@pytest.mark.parametrize("which,body", [("k1", "_k1_closed"), ("k3", "_k3_spectral"),
                                        ("k3hat", "_k3_hat_angles")])
def test_an_absolute_constant_in_a_route_breaks_homogeneity(which, body, monkeypatch):
    # 1e-12 in one body is far inside route agreement at desk scale, and
    # the homogeneity oracle sees it at once
    original = getattr(potentials, body)
    monkeypatch.setattr(potentials, body, lambda *args: original(*args) + 1e-12)
    pt = SAMPLERS[which](Truncation(4, 5, SQRT2), make_rng(0))
    values = list(_routes(pt, which).values())
    assert max(values) - min(values) <= cli.CROSS_ROUTE_TOL * max(1.0, abs(values[0]))
    assert _inexact(which, pt) != []



NILPOTENT = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
POSITIVE = np.array([[2.0, 1.0j], [-1.0j, 3.0]])  # Hermitian positive definite
# a departure of relative size ~1e-13 is round-off, one of ~3e-9 is not
PRE_CHECK_INPUTS = {
    "hermitian": POSITIVE + 1e-12 * NILPOTENT,
    "not hermitian": POSITIVE + 1e-8 * NILPOTENT,
    "nilpotent": NILPOTENT,
}


def _verdict(call) -> str:
    try:
        call()
    except HkqError as exc:
        return type(exc).__name__
    return "accepted"


def _pre_check_verdicts(s: float) -> dict:
    trunc = Truncation(2, 3, SQRT2)
    pt = ConfigPoint(trunc, gaussian_complex(make_rng(1), (5, 2)),
                     gaussian_complex(make_rng(2), (5, 2)))
    v = random_tangent(trunc, make_rng(3))
    verdicts = {}
    for tag, m in PRE_CHECK_INPUTS.items():
        m = s * m
        verdicts[tag] = [
            _verdict(lambda: herm_eig(m)),
            _verdict(lambda: character_log_term(m, 2.0)),
            _verdict(lambda: moment_pairing_check(pt, 1j * m, v, 1)),
        ]
    return verdicts


@pytest.mark.parametrize("m", [-40, 0, 40])
def test_pre_check_verdicts_do_not_depend_on_the_unit(m):
    refused = ["NotHermitian", "NotPositiveDefinite", "NotSkew"]
    assert _pre_check_verdicts(2.0 ** m) == {
        "hermitian": ["accepted"] * 3,
        "not hermitian": refused,
        "nilpotent": refused,
    }
    # a nilpotent matrix has eigenvalues 0 and 0, whatever its size
    with pytest.raises(NotHermitian):
        herm_eig(2.0 ** m * NILPOTENT)
