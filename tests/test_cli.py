"""Exit codes of the CLI verbs: 0 on success, 1 when a check or a route
cross-check fails, 2 for input the CLI rejects (unknown route, a point
outside the required set, a malformed file, a non-finite k in a file or a
non-finite or zero `angles --k`, a pair file without k, a trial count below
one)."""

import json

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


@pytest.mark.parametrize("space,structure,which,psi", [
    ("stable1", "i1", "k1", "psi1"),
    ("stable3", "i3", "k3", "psi3"),
])
def test_round_trip_exits_0(space, structure, which, psi, tmp_path, capsys):
    sampled, projected, mapped = (tmp_path / n for n in ("s.json", "l.json", "m.json"))
    steps = [
        ["sample", "--space", space, "-p", "3", "-q", "2", "--seed", "5", "-o", str(sampled)],
        ["project", "--structure", structure, "-i", str(sampled), "-o", str(projected)],
        ["potential", "--which", which, "-i", str(projected)],
        ["map", "--which", psi, "-i", str(projected), "-o", str(mapped)],
    ]
    for argv in steps:
        assert cli.main(argv) == cli.EXIT_OK, argv
        out = capsys.readouterr().out
        if argv[0] == "potential":
            assert "cross_check pass" in out
    assert mapped.exists()


def _sample(path, space="stable1"):
    argv = ["sample", "--space", space, "-p", "2", "-q", "2", "-o", str(path)]
    assert cli.main(argv) == cli.EXIT_OK


def test_unknown_route_exits_2(tmp_path, capsys):
    point = tmp_path / "s.json"
    _sample(point)
    assert cli.main(["potential", "--which", "k1", "--route", "nope",
                     "-i", str(point)]) == cli.EXIT_INPUT
    assert "unknown route 'nope'" in capsys.readouterr().err


def test_project_i3_off_the_third_stable_set_exits_2(tmp_path, capsys):
    point = tmp_path / "s.json"
    _sample(point)  # X*x = 0 but x*x - X*X != k^2 Id
    assert cli.main(["project", "--structure", "i3", "-i", str(point),
                     "-o", str(tmp_path / "out.json")]) == cli.EXIT_INPUT
    assert "psi3 requires" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("damage", ["truncated", "not_json"])
def test_malformed_point_file_exits_2(damage, tmp_path, capsys):
    point = tmp_path / "s.json"
    _sample(point)
    text = point.read_text()
    point.write_text(text[: len(text) // 2] if damage == "truncated" else "p 2 q 2\n")
    assert cli.main(["potential", "--which", "k1", "-i", str(point)]) == cli.EXIT_INPUT
    assert "invalid JSON" in capsys.readouterr().err


def _set_k(path, k):
    obj = json.loads(path.read_text())
    obj["k"] = k
    path.write_text(json.dumps(obj))


@pytest.mark.parametrize("k", [float("inf"), float("nan")])
@pytest.mark.parametrize("verb", [
    ["potential", "--which", "k1"],
    ["info"],
    ["project", "--structure", "i1"],
    ["map", "--which", "psi1"],
])
def test_non_finite_k_in_point_file_exits_2(verb, k, tmp_path, capsys):
    point = tmp_path / "s.json"
    _sample(point)
    _set_k(point, k)  # json writes Infinity / NaN, which json.loads accepts
    argv = verb + ["-i", str(point)]
    if verb[0] in ("project", "map"):
        argv += ["-o", str(tmp_path / "out.json")]
    assert cli.main(argv) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error ") and "k must be finite" in err


def test_info_without_input_exits_0(capsys):
    assert cli.main(["info"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "package hkq" in out
    assert "membership_tol 1e-09" in out


def test_info_on_third_stable_file_prints_angles(tmp_path, capsys):
    point = tmp_path / "s3.json"
    _sample(point, space="stable3")
    capsys.readouterr()
    assert cli.main(["info", "-i", str(point)]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "in_stable3 True" in out
    assert "characteristic_angles " in out


def _map_psi3(tmp_path):
    point, pair = tmp_path / "s3.json", tmp_path / "pair.json"
    _sample(point, space="stable3")
    assert cli.main(["map", "--which", "psi3", "-i", str(point),
                     "-o", str(pair)]) == cli.EXIT_OK
    return pair


def test_angles_on_mapped_pair_exits_0(tmp_path, capsys):
    pair = _map_psi3(tmp_path)
    capsys.readouterr()
    assert cli.main(["angles", "-i", str(pair)]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "theta_0 " in out and "K3_hat " in out


def test_angles_without_k_exits_2(tmp_path, capsys):
    pair = _map_psi3(tmp_path)
    obj = json.loads(pair.read_text())
    del obj["k"]
    pair.write_text(json.dumps(obj))
    capsys.readouterr()
    assert cli.main(["angles", "-i", str(pair)]) == cli.EXIT_INPUT
    assert "K3_hat needs k" in capsys.readouterr().err


@pytest.mark.parametrize("k", [float("inf"), float("nan")])
def test_non_finite_k_in_pair_file_exits_2(k, tmp_path, capsys):
    pair = _map_psi3(tmp_path)
    _set_k(pair, k)
    capsys.readouterr()
    assert cli.main(["angles", "-i", str(pair)]) == cli.EXIT_INPUT
    assert "k must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("k,message", [
    ("inf", "k must be finite"),
    ("nan", "k must be finite"),
    ("0", "k must be nonzero"),
])
def test_angles_rejects_a_k_option_a_point_file_may_not_hold(k, message, tmp_path, capsys):
    pair = _map_psi3(tmp_path)
    capsys.readouterr()
    assert cli.main(["angles", "-i", str(pair), "--k", k]) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert "K3_hat" not in captured.out
    assert captured.err.startswith("error ") and message in captured.err


def test_disagreeing_routes_exit_1(monkeypatch, tmp_path, capsys):
    point = tmp_path / "s.json"
    _sample(point)
    gap = 10 * cli.CROSS_ROUTE_TOL
    monkeypatch.setattr(cli, "evaluate_routes",
                        lambda pt, which, tol: {"a": 1.0, "b": 1.0 + gap})
    capsys.readouterr()
    assert cli.main(["potential", "--which", "k1", "-i", str(point)]) == cli.EXIT_PROPERTY
    out = capsys.readouterr().out
    assert "cross_check FAIL" in out
    assert "max_route_delta_relative " in out
