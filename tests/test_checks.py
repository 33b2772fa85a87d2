"""checks.run_suites: one CheckResult per check of each named suite, in
order, the overall flag as the AND of the checks' `passed`, the same results
on a second call, and every suite given the seed unchanged, so a suite's
lines are the same alone and among all, and each check's worst trial
reruns alone bit for bit.  The driver: a NaN residual fails its check, and
a trial that raises fails its family's checks only.  The reduction suite
factors each level point once, and a fault in that one factorization still
fails its checks.  The ddc suite's central difference takes the bits of its
eight-scaling form.  The maps suite's canonical-section check sees a
section moved along its psi3 fiber, which the round trip and the fiber
constancy cannot see.  The potentials suite's group laws fail where route
agreement passes, on every k1 route off by one common factor, and where
compact invariance passes, on a K3 that is only unitarily invariant.  Its
k3hat agreement compares the two structures, and a fault in psi1's fiber
at the level point fails it alone."""

import math

import numpy as np
import pytest

from hkq import checks
from hkq import potentials as pots
from hkq.checks import CheckResult
from hkq.config import DEFAULT_MEMBERSHIP_TOL
from hkq.grassmann import CotangentPoint
from hkq.hkspace import ConfigPoint, Truncation, act3, flat_potential_K
from hkq.matcore import HermitianSpectrum, herm_eig
from hkq.quotient import SliceBasis
from hkq.sampling import make_rng, random_tangent, sample_level

NAMES = ["moment", "maps"]


def test_one_result_per_check_in_suite_order():
    results, ok = checks.run_suites(NAMES, 2, 0)
    alone = [checks.run_suite(name, 2, 0) for name in NAMES]
    assert results == [r for suite in alone for r in suite]
    assert all(isinstance(r, CheckResult) for r in results)
    assert [r.suite for r in results] == [name for name, suite in zip(NAMES, alone)
                                          for _ in suite]
    assert ok is all(r.passed for r in results)


def test_same_results_on_a_second_call():
    assert checks.run_suites(NAMES, 2, 0) == checks.run_suites(NAMES, 2, 0)


def _recording_suites(monkeypatch, passes):
    calls = []

    def suite(name):
        def run(trials, seed):
            calls.append((name, trials, seed))
            return [CheckResult(name, "stub", 0.0 if passes[name] else 1.0, 0.5, trials)]
        return run

    monkeypatch.setattr(checks, "SUITES", {name: suite(name) for name in passes})
    return calls


def test_every_suite_gets_the_seed_unchanged(monkeypatch):
    calls = _recording_suites(monkeypatch, {"a": True, "b": True, "c": True})
    results, ok = checks.run_suites(["c", "a", "b"], 3, 7)
    assert calls == [("c", 3, 7), ("a", 3, 7), ("b", 3, 7)]
    assert [r.suite for r in results] == ["c", "a", "b"]
    assert ok


def test_a_suite_draws_the_same_alone_and_among_all():
    results, _ = checks.run_suites(list(checks.SUITES), 3, 5)
    for name in checks.SUITES:
        assert [r for r in results if r.suite == name] == checks.run_suite(name, 3, 5)


@pytest.mark.parametrize("suite", ["moment", "reduction", "maps"])
def test_each_worst_trial_reruns_alone_bit_for_bit(monkeypatch, suite):
    tables = []
    run = checks._run

    def recording(name, families, trials, seed):
        tables.append(families)
        return run(name, families, trials, seed)

    monkeypatch.setattr(checks, "_run", recording)
    results = checks.run_suite(suite, 7, 3)
    checked = 0
    for index, family in enumerate(tables[0]):
        for r in results:
            if r.name not in family.tols:
                continue
            rng = checks._trial_rng(3, suite, index, r.worst_trial)
            assert max(v for name, v in family.trial(rng) if name == r.name) == r.residual
            checked += 1
    assert checked == len(results)


def test_a_nan_residual_fails_its_check(monkeypatch):
    # max(0.0, nan) is 0.0: a fold by max would pass these
    monkeypatch.setattr(checks, "fnorm", lambda a: math.nan)
    results, ok = checks.run_suites(["quaternion", "maps"], 2, 0)
    failed = {r.name for r in results if not r.passed}
    assert {"algebra_exact", "psi3_section_canonical"} <= failed
    assert not ok


def test_a_section_moved_along_its_fiber_fails_the_canonical_check(monkeypatch):
    # act3 with ||h|| = 1e-3 keeps the section in its psi3 fiber, so it
    # still maps back to its pair; only its X*(x + X) = 0 is lost
    section = checks.psi3_section

    def moved(pair, k):
        pt = section(pair, k)
        return act3(herm_eig(1e-3 * np.eye(pt.trunc.p)), None, pt)

    results = {r.name: r for r in checks.run_suite("maps", 10, 0)}
    assert results["psi3_section_canonical"].residual <= 1e-14
    monkeypatch.setattr(checks, "psi3_section", moved)
    moved_results = {r.name: r for r in checks.run_suite("maps", 10, 0)}
    assert moved_results["psi3_section_canonical"].residual >= 1e-3
    assert {name for name, r in moved_results.items() if not r.passed} == {
        "psi3_section_canonical"}


def test_a_trial_that_raises_fails_its_family_only(monkeypatch):
    def broken(trunc, rng):
        raise ZeroDivisionError("no level point")

    monkeypatch.setattr(checks, "sample_level", broken)
    results = {r.name: r for r in checks.run_suite("moment", 5, 0)}
    level = results.pop("level_value")
    assert not level.passed and math.isnan(level.residual)
    assert level.note == "trial 0 raised ZeroDivisionError: no level point"
    assert all(r.passed for r in results.values())


def test_every_k1_route_scaled_alike_fails_the_group_law(monkeypatch):
    # a factor common to all three routes leaves them in agreement; the
    # law's exact shift -(k^2/2) log|det g| sees it
    def scaled(route):
        return lambda *args: (1.0 + 1e-6) * route(*args)

    for name in ("_k1_closed", "_k1_curvature", "_k1_level"):
        monkeypatch.setattr(pots, name, scaled(getattr(pots, name)))
    results = {r.name: r for r in checks.run_suite("potentials", 10, 0)}
    assert results["k1_route_agreement"].passed
    assert not results["k1_group_law"].passed


def test_a_fault_in_the_cotangent_routes_fiber_fails_only_the_k3hat_agreement(monkeypatch):
    # psi1's V at project3's point scaled by 1.001: the k3hat cotangent
    # route reads it, and no other potentials check does
    psi1 = pots.psi1
    monkeypatch.setattr(pots, "psi1",
                        lambda pt, tol: CotangentPoint(psi1(pt, tol).P, 1.001 * psi1(pt, tol).V))
    results = {r.name: r for r in checks.run_suite("potentials", 10, 0)}
    assert not results.pop("k3hat_route_agreement").passed
    assert all(r.passed for r in results.values())


def test_the_flat_potential_fails_the_k3_orbit_invariance(monkeypatch):
    # the flat potential is invariant under the compact group alone, so
    # only an act3 with a nonzero positive part tells it from K3
    results = {r.name: r for r in checks.run_suite("potentials", 10, 0)}
    assert results["k3_orbit_invariance"].passed
    monkeypatch.setattr(pots, "_k3_spectral", flat_potential_K)
    results = {r.name: r for r in checks.run_suite("potentials", 10, 0)}
    assert results["k3_orbit_invariance"].residual >= 1e-3


@pytest.mark.parametrize("failing", ["a", "b"])
def test_one_failed_check_fails_the_run(monkeypatch, failing):
    _recording_suites(monkeypatch, {"a": failing != "a", "b": failing != "b"})
    results, ok = checks.run_suites(["a", "b"], 1, 0)
    assert not ok
    assert [r.passed for r in results] == [failing != "a", failing != "b"]


def test_every_suite_passes_at_three_trials():
    # the acceptance run of `hkq check`, at a trial count Tier-1 can afford
    results, ok = checks.run_suites(list(checks.SUITES), 3, 0)
    assert [r.line() for r in results if not r.passed] == []
    assert ok and {r.suite for r in results} == set(checks.SUITES)


@pytest.mark.parametrize("seed", [0, 1])
def test_reduction_factors_each_level_point_once(monkeypatch, seed):
    # one trial meets three level points: pt, its compact translate pt_u
    # and the slice-decomposition point; slice_basis checks and factors M
    calls = []
    original = checks.slice_basis

    def counted(pt, tol=DEFAULT_MEMBERSHIP_TOL):
        calls.append(pt)
        return original(pt, tol)

    monkeypatch.setattr(checks, "slice_basis", counted)
    checks.run_suite("reduction", 1, seed)
    assert len(calls) == 3


def test_a_fault_in_the_shared_factorization_fails_the_reduction_checks(monkeypatch):
    # every projector at a point solves against the one spectrum of M, so a
    # wrong spectrum must show in the identities each projector must obey;
    # representative independence compares two equally wrong bases and
    # the project1 checks never touch M, so those may still pass
    original = checks.slice_basis

    def skewed(pt, tol=DEFAULT_MEMBERSHIP_TOL):
        spec = original(pt, tol).spec
        return SliceBasis(pt, HermitianSpectrum(1.001 * spec.eigenvalues, spec.eigenvectors))

    monkeypatch.setattr(checks, "slice_basis", skewed)
    failed = {r.name for r in checks.run_suite("reduction", 2, 0) if not r.passed}
    assert {"projector_idempotence", "orbit_horizontal_orthogonality",
            "orbit_vectors_fixed", "level_projection_in_kernel",
            "horizontal_I_stability", "slice_decomposition",
            "reduced_pairing_orbit_kernel"} <= failed


def _mixed_second_by_eight_scalings(f, a, b, step):
    return (f(step * a + step * b) - f(step * a - step * b)
            - f(-1.0 * step * a + step * b) + f(-1.0 * step * a - step * b)) \
        / (4.0 * step * step)


@pytest.mark.parametrize("step", [1e-3, 1e-4])
@pytest.mark.parametrize("seed", range(4))
def test_mixed_second_takes_the_bits_of_eight_scalings(step, seed):
    rng = make_rng(seed)
    tr = Truncation(int(rng.integers(1, 4)), int(rng.integers(1, 4)), math.sqrt(2.0))
    pt = sample_level(tr, rng)
    chart = checks._holomorphic_stable1_chart(pt)
    fs = [lambda w: flat_potential_K(ConfigPoint(tr, pt.x + w.Z, pt.X + w.T)),
          lambda w: pots.K1_closed(chart(w))]
    for f in fs:
        a, b = random_tangent(tr, rng), random_tangent(tr, rng)
        got = checks._mixed_second(f, a, b, step)
        assert got.hex() == _mixed_second_by_eight_scalings(f, a, b, step).hex()

