"""Known defects, kept visible until they are fixed.

Each is a strict xfail: each must keep raising exactly the named exception
(AssertionError where the defect is a wrong exit code), and the test turns
into a failure (XPASS) the day the defect is mended, so the marker has to
be removed together with the fix.  No tolerance is loosened to hide any of
them (see ROADMAP, scale-aware tolerances).
"""

import numpy as np
import pytest

from hkq import cli, jsonio
from hkq.errors import DegenerateSample, NotInStable1, NotInStable3
from hkq.hkspace import ConfigPoint, Truncation
from hkq.moment import in_stable3
from hkq.potentials import evaluate_routes
from hkq.quotient import project1
from hkq.sampling import make_rng, sample_stable1, sample_stable3


@pytest.mark.xfail(
    strict=True, raises=NotInStable3,
    reason="at k = 0.05, p = q = 16 project3 leaves a level residual of "
           "~3.5e-11, above the membership bound 1e-9 k^2 = 2.5e-12",
)
def test_k3_routes_at_small_k():
    pt = sample_stable3(Truncation(16, 16, 0.05), make_rng(0))
    evaluate_routes(pt, "k3")


@pytest.mark.xfail(
    strict=True, raises=NotInStable1,
    reason="at k = 0.01, p = q = 16 project1 leaves a level residual of "
           "3.2e-13, round-off of a point of norm ~1, above the membership "
           "bound 1e-9 k^2 = 1e-13",
)
def test_project1_at_small_k():
    project1(sample_stable1(Truncation(16, 16, 0.01), make_rng(0)))


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="at k = 0.01, p = q = 16 sample_stable3 returns points whose "
           "third-stable equations are off by round-off of a point of norm ~1, "
           "above the membership bound 1e-9 k^2 = 1e-13: 17 of seeds 0-39 "
           "fail in_stable3 (the scale question of test_project1_at_small_k)",
)
def test_stable3_sample_at_small_k():
    trunc = Truncation(16, 16, 0.01)
    refused = [seed for seed in range(40)
               if not in_stable3(sample_stable3(trunc, make_rng(seed)))]
    assert refused == []


@pytest.mark.xfail(
    strict=True, raises=DegenerateSample,
    reason="sample_stable1's perturbation eps scales with neither k nor the "
           "dimension, so at p = 64, q = 8 no draw is well conditioned",
)
def test_stable1_sample_at_p_much_larger_than_q():
    sample_stable1(Truncation(64, 8, np.sqrt(2.0)), make_rng(0))


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="potential judges route agreement against the fixed CROSS_ROUTE_TOL "
           "while membership follows --tol: X scaled by 1 + 1e-8 leaves the "
           "third-stable equations off by ~1e-7 k^2, inside --tol 1e-6, and the "
           "level and angles routes, which read psi3's orbit, move away from the "
           "spectral ones by ~8.2e-8 relative, so the cross-check fails (exit 1)",
)
def test_k3_cross_check_under_a_loose_tol(tmp_path):
    pt = sample_stable3(Truncation(4, 5, np.sqrt(2.0)), make_rng(0))
    off = tmp_path / "off.json"
    jsonio.save_point(off, ConfigPoint(pt.trunc, pt.x, (1.0 + 1e-8) * pt.X))
    assert cli.main(["--tol", "1e-6", "potential", "--which", "k3",
                     "-i", str(off)]) == cli.EXIT_OK


LARGE_K_CANCELLATION = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="at large k the k3 and k1 routes lose digits to cancellation: each "
           "subtracts k^2 from a quantity of that size, or reads the pair off "
           "x +/- X of size k, while the potential is far smaller than k^2 "
           "(K3 ~ 16.9 at k = 1e5, K1 ~ -2.2e7 at k = 1e8).  "
           "The relative spreads, 8.5e-7 (k3, the spectral and level routes) "
           "at k = 1e5 and 3.5e-7 (k1) at k = 1e8, exceed the fixed CROSS_ROUTE_TOL = 1e-8, so potential "
           "prints cross_check FAIL (exit 1)",
)


# k3hat passes: its angles and cotangent routes form sqrt(1 + u) - 1 as
# u / (sqrt(1 + u) + 1), with no cancellation
@pytest.mark.parametrize("which,sample,k", [
    pytest.param("k3", sample_stable3, 1e5, marks=LARGE_K_CANCELLATION),
    ("k3hat", sample_stable3, 1e5),
    pytest.param("k1", sample_stable1, 1e8, marks=LARGE_K_CANCELLATION),
])
def test_route_agreement_at_large_k(which, sample, k, tmp_path):
    path = tmp_path / "pt.json"
    jsonio.save_point(path, sample(Truncation(4, 5, k), make_rng(0)))
    assert cli.main(["potential", "--which", which, "-i", str(path)]) == cli.EXIT_OK


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="potential judges route agreement relative to max(1, |K|), which is "
           "absolute below |K| = 1: at (4, 5, 1e5), seed 0, the k3 cross-check "
           "fails (relative spread 5.5e-7, exit 1), and the same instance scaled "
           "by 2^-20, whose route values are exactly 2^-40 times the old ones, "
           "passes (8.4e-18, exit 0); a homogeneous agreement bound mends it",
)
def test_k3_cross_check_verdict_does_not_depend_on_the_unit(tmp_path):
    pt = sample_stable3(Truncation(4, 5, 1e5), make_rng(0))
    codes = []
    for m in (0, -20):
        s = 2.0 ** m
        path = tmp_path / f"pt{m}.json"
        jsonio.save_point(path, ConfigPoint(Truncation(4, 5, s * 1e5), s * pt.x, s * pt.X))
        codes.append(cli.main(["potential", "--which", "k3", "-i", str(path)]))
    assert codes[0] == codes[1], codes
