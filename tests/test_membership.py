"""One membership rule per stable set, applied at the caller's tol by every
entry point: in_stable1, psi1, project1 and the CLI's `info` and
`map --which psi1` accept and refuse the same first-stable points, and
in_stable3, psi3 and the k3 routes the same third-stable points."""

import numpy as np
import pytest

from hkq import cli, jsonio
from hkq.errors import NotInStable1, NotInStable3
from hkq.grassmann import psi1, psi3
from hkq.hkspace import ConfigPoint, Truncation
from hkq.matcore import fnorm
from hkq.moment import in_stable1, in_stable3
from hkq.potentials import evaluate_routes
from hkq.quotient import project1
from hkq.sampling import gaussian_complex, make_rng, sample_stable3

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


def _off_stable3(seed: int) -> ConfigPoint:
    """A third-stable sample with X moved by 1e-8 along a unit direction:
    the third-stable equations are off by about 1e-8 k^2."""
    pt = sample_stable3(Truncation(4, 5, SQRT2), make_rng(seed))
    e = gaussian_complex(make_rng(99), pt.X.shape)
    return ConfigPoint(pt.trunc, pt.x, pt.X + 1e-8 * e / fnorm(e))


def _k3_routes(pt, tol):
    return evaluate_routes(pt, "k3", tol)


@pytest.mark.parametrize("tol,member", [(1e-6, True), (1e-9, False)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_third_stable_entries_agree_on_a_perturbed_point(seed, tol, member):
    pt = _off_stable3(seed)
    assert in_stable3(pt, tol) is member
    assert _accepts(psi3, pt, tol, NotInStable3) is member
    assert _accepts(_k3_routes, pt, tol, NotInStable3) is member
