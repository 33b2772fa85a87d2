"""Exit codes of `hkq check`: 0 when every suite passes, 1 when a suite
reports a failed check, 2 for input the runner rejects."""

import pytest

from hkq import checks, cli
from hkq.checks import CheckResult


def test_passing_suite_exits_0(capsys):
    assert cli.main(["check", "--suite", "reduction", "--trials", "2"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "overall pass" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_trial_count_below_one_exits_2(trials, capsys):
    assert cli.main(["check", "--suite", "moment", "--trials", trials]) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert "overall" not in captured.out
    assert "trials must be at least 1" in captured.err


def test_failed_check_exits_1(monkeypatch, capsys):
    def failing(trials, seed):
        return [CheckResult("stub", "ok", 0.0, 1e-12, trials),
                CheckResult("stub", "broken", 1.0, 1e-12, trials)]

    monkeypatch.setattr(checks, "SUITES", {"stub": failing})
    assert cli.main(["check", "--trials", "1"]) == cli.EXIT_PROPERTY
    out = capsys.readouterr().out
    assert "FAIL stub.broken" in out
    assert "checks_failed 1" in out
    assert "overall FAIL" in out
