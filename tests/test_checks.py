"""checks.run_suites: one CheckResult per check of each named suite, in
order, the overall flag as the AND of the checks' `passed`, the same results
on a second call, and suite i seeded with seed + 1000 i."""

import pytest

from hkq import checks
from hkq.checks import CheckResult

NAMES = ["moment", "maps"]


def test_one_result_per_check_in_suite_order():
    results, ok = checks.run_suites(NAMES, 2, 0)
    alone = [checks.run_suite(name, 2, 1000 * i) for i, name in enumerate(NAMES)]
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


def test_suite_i_is_seeded_seed_plus_1000_i(monkeypatch):
    calls = _recording_suites(monkeypatch, {"a": True, "b": True, "c": True})
    results, ok = checks.run_suites(["c", "a", "b"], 3, 7)
    assert calls == [("c", 3, 7), ("a", 3, 1007), ("b", 3, 2007)]
    assert [r.suite for r in results] == ["c", "a", "b"]
    assert ok


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
