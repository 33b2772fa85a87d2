"""Exit codes of the CLI verbs: 0 on success, 1 when a check or a route
cross-check fails (also when a check's trial raises: every check line still
prints), 2 for input the CLI rejects (unknown route, a point
outside the required set, a sampled point outside the set it names, a
malformed file, damaged matrix bytes, a file in the older re/im text
layout, a non-finite k in a file or a non-finite or
zero `angles --k`, a pair file without k, a trial count below one, a
negative seed, a --tol outside (0, 1), a pair file with p or q below one
and no k).  Also: what `project` factors, the layout of a `map --which
psi3` file and loading of the older one with "z", what `map --which psi3`
prints and that it runs without psi3 itself, a NaN route failing the
cross-check, `python -m hkq` on each verb (exit 0 and an empty stderr, or
exit 2 and one error line),
and reuse of the one parser per process (the same output per verb,
handlers looked up at call time, `func` kept for callers that dispatch
themselves), what `info` prints and factors, that `python -m hkq` runs
the CLI, that `sample` writes the library's draw with only the seed and
the space as meta, and the option table of every verb."""

import argparse
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import hkq
from conftest import ill_conditioned_stable1, ill_conditioned_stable3
from hkq import checks, cli, grassmann, jsonio, quotient
from hkq.checks import CheckResult
from hkq.config import DEFAULT_MEMBERSHIP_TOL
from hkq.errors import NotInStable1, NotInStable3, NotOnLevelSet
from hkq.grassmann import characteristic_angles, psi3
from hkq.matcore import fnorm
from hkq.moment import in_stable1, in_stable3, level_residual, on_level_set
from hkq.sampling import gaussian_complex, make_rng, sample_point


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


def test_negative_seed_exits_2(capsys):
    assert cli.main(["check", "--suite", "moment", "--seed", "-1"]) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert "overall" not in captured.out
    assert "non-negative" in captured.err


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


ACCEPTANCE_CHECKS = [
    "ddc.flat_potential_reproduces_omegas",
    "ddc.reduced_ddc_matches_reduced_omega1",
    "maps.angle_unitary_invariance",
    "maps.psi1_fiber_constancy",
    "maps.psi1_round_trip",
    "maps.psi3_fiber_constancy",
    "maps.psi3_round_trip",
    "maps.psi3_section_canonical",
    "moment.ad_equivariance",
    "moment.level_value",
    "moment.muC_holomorphy",
    "moment.muC_recombination",
    "moment.pairing_oracle",
    "potentials.k1_compact_invariance",
    "potentials.k1_group_law",
    "potentials.k1_route_agreement",
    "potentials.k3_orbit_invariance",
    "potentials.k3_route_agreement",
    "potentials.k3_vanishing_on_zero_fiber",
    "potentials.k3hat_route_agreement",
    "potentials.quotient_potential_chain",
    "potentials.zero_section_pinning",
    "quaternion.algebra_exact",
    "quaternion.isometry",
    "quaternion.omegaC_holomorphy",
    "quaternion.omega_vs_metric",
    "reduction.horizontal_I_stability",
    "reduction.level_projection_in_kernel",
    "reduction.orbit_horizontal_orthogonality",
    "reduction.orbit_meets_level_in_compact_orbit",
    "reduction.orbit_vectors_fixed",
    "reduction.polar_uniqueness",
    "reduction.project1_equivariance",
    "reduction.projector_idempotence",
    "reduction.reduced_pairing_orbit_kernel",
    "reduction.reduced_pairing_representative_independence",
    "reduction.slice_decomposition",
]


def test_the_acceptance_run_passes_every_check(capsys):
    # CI's acceptance step, `hkq check --suite all --trials 50 --seed 0`,
    # run in process
    assert cli.main(["check", "--suite", "all", "--trials", "50", "--seed", "0"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    passed = [line.split()[1] for line in out.splitlines() if line.startswith("pass ")]
    assert sorted(passed) == ACCEPTANCE_CHECKS
    assert "FAIL" not in out
    assert out.splitlines()[-3:] == ["checks_total 37", "checks_failed 0", "overall pass"]


# the checks whose trials read a level point: a sample_level or
# sample_stable3 draw (the level section, moved by the third action for the
# latter) or project1's point
LEVEL_READERS = ("moment.level_value", "reduction.", "potentials.", "maps.",
                 "ddc.reduced_ddc_matches_reduced_omega1")


def test_a_fault_that_raises_prints_every_check_and_exits_1(monkeypatch, capsys):
    # a skewed g in the level section's factors makes every level point miss
    # the level set.  The samplers judge nothing, so each check that reads
    # a level point fails where its point is first judged: by its residual
    # (moment.level_value), or by a raised refusal, NotOnLevelSet from the
    # tangent projectors, NotInStable1 from project1, NotInStable3 from
    # psi3.  The others still run and pass.
    fiber_root = quotient._fiber_root

    def skewed(v):
        g_inv, g = fiber_root(v)
        return g_inv, 1.001 * g

    monkeypatch.setattr(quotient, "_fiber_root", skewed)
    assert cli.main(["check", "--suite", "all", "--trials", "20"]) == cli.EXIT_PROPERTY
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.startswith(("pass ", "FAIL "))]
    names = [f"{r.suite}.{r.name}" for r in checks.run_suites(list(checks.SUITES), 1, 0)[0]]
    assert [line.split()[1] for line in lines] == names
    failed = {line.split()[1]: line for line in lines if line.startswith("FAIL ")}
    assert set(failed) == {name for name in names if name.startswith(LEVEL_READERS)}
    raised = {line.split("raised ")[1].split(":")[0] for line in failed.values()
              if "raised " in line}
    assert raised == {"NotOnLevelSet", "NotInStable1", "NotInStable3"}
    assert "raised" not in failed["moment.level_value"]
    assert "FAIL reduction.projector_idempotence" in out
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


def test_round_trips_at_p_much_smaller_than_q(tmp_path, capsys):
    # every verb of both structures at (8, 256), on files: the sampler, the
    # two projections, both third-structure potentials, both maps and angles
    f = {name: str(tmp_path / f"{name}.json")
         for name in ("s1", "level1", "cot", "s", "level", "pair")}
    steps = [
        ["sample", "--space", "stable1", "-p", "8", "-q", "256", "-o", f["s1"]],
        ["project", "--structure", "i1", "-i", f["s1"], "-o", f["level1"]],
        ["map", "--which", "psi1", "-i", f["level1"], "-o", f["cot"]],
        ["sample", "--space", "stable3", "-p", "8", "-q", "256", "-o", f["s"]],
        ["project", "--structure", "i3", "-i", f["s"], "-o", f["level"]],
        ["potential", "--which", "k3", "-i", f["s"]],
        ["potential", "--which", "k3hat", "-i", f["s"]],
        ["map", "--which", "psi3", "-i", f["level"], "-o", f["pair"]],
        ["angles", "-i", f["pair"]],
    ]
    for argv in steps:
        assert cli.main(argv) == cli.EXIT_OK, argv
    assert capsys.readouterr().err == ""


def _compact(path) -> bytes:
    with open(path) as fh:
        return (json.dumps(json.load(fh), sort_keys=True, separators=(",", ":")) + "\n").encode()


def test_round_trip_at_p_q_64_through_every_verb_but_check(tmp_path, capsys):
    # both structures at (64, 64), on files: sample, project, potential on
    # the sample and on its level point, map and info, then angles on the
    # pair file, the routes reached only through --route, and --tol
    d = tmp_path
    for space, structure, which, psi in (("stable1", "i1", "k1", "psi1"),
                                         ("stable3", "i3", "k3", "psi3")):
        s, level, mapped = (str(d / f"{space}{tag}.json") for tag in ("", ".level", ".map"))
        for argv in (["sample", "--space", space, "-p", "64", "-q", "64", "-o", s],
                     ["project", "--structure", structure, "-i", s, "-o", level],
                     ["potential", "--which", which, "-i", s],
                     ["potential", "--which", which, "-i", level],
                     ["map", "--which", psi, "-i", level, "-o", mapped],
                     ["info", "-i", level]):
            assert cli.main(argv) == cli.EXIT_OK, argv
    assert cli.main(["angles", "-i", str(d / "stable3.map.json")]) == cli.EXIT_OK
    # each of the 6 files written is json.dumps's compact text, byte for byte
    files = sorted(d.glob("*.json"))
    assert len(files) == 6, files
    for f in files:
        assert f.read_bytes() == _compact(f), f
    # the cotangent file holds the 128 x 64 fiber V; its section maps back to P
    path = d / "stable1.map.json"
    eta = json.loads(path.read_text())["eta"]
    assert (eta["rows"], eta["cols"]) == (128, 64)
    cp, k = jsonio.load_cotangent(path)
    assert hkq.projector_distance(hkq.psi1(hkq.psi1_section(cp, k)).P, cp.P) <= 1e-10
    # a route with no single-route function, reached through --route; k1
    # has no fiber route and k3 no similarity route, which --route refuses
    # as input errors
    s1, s3, level3 = (str(d / name) for name in ("stable1.json", "stable3.json",
                                                 "stable3.level.json"))
    assert cli.main(["potential", "--which", "k1", "--route", "curvature",
                     "-i", s1]) == cli.EXIT_OK
    assert cli.main(["potential", "--which", "k1", "--route", "fiber",
                     "-i", s1]) == cli.EXIT_INPUT
    assert cli.main(["potential", "--which", "k3", "--route", "similarity",
                     "-i", s3]) == cli.EXIT_INPUT
    for path in (s3, level3):
        assert cli.main(["potential", "--which", "k3hat", "-i", path]) == cli.EXIT_OK
    assert cli.main(["--tol", "1e-6", "info"]) == cli.EXIT_OK
    # a --tol of 1 or more admits no point: the parser refuses it
    with pytest.raises(SystemExit) as exc:
        cli.main(["--tol", "1", "info"])
    assert exc.value.code == cli.EXIT_INPUT


ALLOWED_CI_COMMANDS = {
    'python -m pip install -e ".[test]"',
    "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q "
    "--continue-on-collection-errors",
    "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -W error::RuntimeWarning -m hkq "
    "check --suite all --trials 50 --seed 0",
}


def test_ci_runs_only_install_tier1_and_the_acceptance_run():
    # every assertion lives in tests/: a CI step that wants a new one
    # writes a test instead of an inline script
    workflow = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"
    runs = [line.split("run:", 1)[1].strip() for line in workflow.read_text().splitlines()
            if line.strip().removeprefix("- ").startswith("run:")]
    assert sorted(runs) == sorted(ALLOWED_CI_COMMANDS), runs


def _sample(path, space="stable1"):
    argv = ["sample", "--space", space, "-p", "2", "-q", "2", "-o", str(path)]
    assert cli.main(argv) == cli.EXIT_OK


@pytest.mark.parametrize("space,structure,key", [
    ("stable1", "i1", "group_eigenvalues"),
    ("stable3", "i3", "h_eigenvalues"),
])
def test_project_prints_bare_numbers(space, structure, key, tmp_path, capsys):
    point = tmp_path / "s.json"
    _sample(point, space)
    capsys.readouterr()
    assert cli.main(["project", "--structure", structure, "-i", str(point),
                     "-o", str(tmp_path / "l.json")]) == cli.EXIT_OK
    lines = dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())
    assert lines.pop("structure") == structure
    assert lines.pop("written") == str(tmp_path / "l.json")
    assert len(lines[key].split()) == 2
    for name, values in lines.items():
        for token in values.split():
            float(token)  # raises on "np.float64(...)"


@pytest.mark.parametrize("space,structure,budget", [
    # project1: one thin QR of x and the values of R, one eigh of V'*V'
    # and one p x p SVD of g0 R; project3: psi3's thin QRs of x + X and
    # x - X and one p x p SVD of M = F_P* F_Qperp, which gives the point,
    # the transversality verdict and the eigenvalues with no w, no eigh
    # and no inv.  The printed eigenvalues come from the projection's own
    # factorization, so no eigvalsh is added.
    ("stable1", "i1", {"qr reduced": 1, "svd values": 1, "eigh": 1, "svd full": 1}),
    ("stable3", "i3", {"qr reduced": 2, "svd full": 1}),
])
def test_project_factors_only_what_the_projection_does(space, structure, budget,
                                                        lapack_calls, tmp_path, capsys):
    point = tmp_path / "s.json"
    assert cli.main(["sample", "--space", space, "-p", "4", "-q", "5",
                     "-o", str(point)]) == cli.EXIT_OK
    lapack_calls.clear()
    assert cli.main(["project", "--structure", structure, "-i", str(point),
                     "-o", str(tmp_path / "l.json")]) == cli.EXIT_OK
    assert dict(lapack_calls) == budget


def test_emit_prints_numpy_floats_as_bare_numbers(capsys):
    cli._emit("v", np.float64(0.1))
    assert capsys.readouterr().out == "v 0.1\n"


def test_unknown_route_exits_2(tmp_path, capsys):
    point = tmp_path / "s.json"
    _sample(point)
    assert cli.main(["potential", "--which", "k1", "--route", "nope",
                     "-i", str(point)]) == cli.EXIT_INPUT
    assert "unknown route 'nope'" in capsys.readouterr().err


def test_k3hat_prints_the_angles_and_cotangent_routes_and_agrees(tmp_path, capsys):
    # psi3's angles against the cotangent form on psi1's fiber at the
    # level point: two routes, one per structure, and their agreement
    point = tmp_path / "s.json"
    _sample(point, space="stable3")
    capsys.readouterr()
    assert cli.main(["potential", "--which", "k3hat", "-i", str(point)]) == cli.EXIT_OK
    lines = [line.split(" ", 1) for line in capsys.readouterr().out.splitlines()]
    assert [key for key, _ in lines] == ["k3hat.angles", "k3hat.cotangent", "max_route_delta",
                                         "max_route_delta_relative", "cross_check"]
    assert lines[-1] == ["cross_check", "pass"]


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


@pytest.mark.parametrize("k", [1e-200, 1e100])
def test_point_file_with_k4_out_of_range_exits_2(k, tmp_path, capsys):
    point = tmp_path / "s.json"
    _sample(point)
    _set_k(point, k)
    capsys.readouterr()
    assert cli.main(["potential", "--which", "k1", "-i", str(point)]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error ") and "k^4 must be normal" in err


def test_sample_with_k4_underflowing_exits_2(tmp_path, capsys):
    # k^4 = 1e-680 underflows to 0: refused where k enters, with no traceback
    out = tmp_path / "f.json"
    assert cli.main(["sample", "--space", "level", "-p", "3", "-q", "3",
                     "-k", "1e-170", "-o", str(out)]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error ") and "k^4 must be normal" in err
    assert not out.exists()


@pytest.mark.parametrize("space", ["level", "stable1", "stable3"])
def test_sample_outside_its_set_exits_2_and_writes_nothing(space, tmp_path, capfd):
    # at --tol 1e-17 the round-off of a draw, about 1e-16 k^2, exceeds the
    # membership bound tol * k^2: the draw leaves the set it is named after
    # (stable1: X*x; level and stable3: the level equations), and the set's
    # one rule at --tol refuses it before anything is written
    out = tmp_path / "f.json"
    for seed in range(5):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["--tol", "1e-17", "sample", "--space", space, "-p", "2",
                             "-q", "3", "--seed", str(seed), "-o", str(out)]) == cli.EXIT_INPUT
        assert caught == []
        stdout, err = capfd.readouterr()
        assert stdout == "" and err.startswith("error ") and err.count("\n") == 1
        assert not out.exists()


@pytest.mark.parametrize("space,error", [("level", NotOnLevelSet),
                                         ("stable1", NotInStable1),
                                         ("stable3", NotInStable3)])
def test_sample_refuses_with_the_error_of_its_set(space, error, tmp_path):
    # the verb judges by the set's public rule and raises that set's error
    out = tmp_path / "f.json"
    args = cli.build_parser().parse_args(["--tol", "1e-17", "sample", "--space", space,
                                          "-p", "2", "-q", "3", "-o", str(out)])
    with pytest.raises(error, match=f"not in the {space} set at tol 1e-17"):
        cli._cmd_sample(args)
    assert not out.exists()


def test_info_at_a_huge_point_prints_finite_residuals(tmp_path, capfd):
    # 1e100 times a sampled point: entries of x*x near 1e200, where the plain
    # sum of squares in fnorm would overflow to inf with a RuntimeWarning;
    # the scaled sum stays finite
    pt = sample_point("stable1", hkq.Truncation(2, 3, np.sqrt(2.0)), make_rng(0))
    path = tmp_path / "f.json"
    jsonio.save_point(path, hkq.ConfigPoint(pt.trunc, 1e100 * pt.x, 1e100 * pt.X))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["info", "-i", str(path)]) == cli.EXIT_OK
    assert caught == []
    out, err = capfd.readouterr()
    lines = dict(line.split(" ", 1) for line in out.splitlines())
    assert math.isfinite(float(lines["level_residual_real"]))
    assert float(lines["level_residual_real"]) > 1e200  # the point is far off the set
    assert lines["in_stable1"] == "False" and lines["in_stable3"] == "False"
    assert err == ""


@pytest.mark.parametrize("space", ["stable1", "level", "stable3"])
def test_sample_writes_the_samplers_draw_with_seed_and_generator_meta(space, tmp_path):
    # the file holds the library's own draw bit for bit, and its meta names
    # only the seed and the space: the spread is a constant, not recorded
    out = tmp_path / "f.json"
    assert cli.main(["sample", "--space", space, "-p", "2", "-q", "3", "--seed", "2",
                     "-o", str(out)]) == cli.EXIT_OK
    assert json.loads(out.read_text())["meta"] == {"seed": 2, "generator": space}
    got = jsonio.load_point(out)
    want = sample_point(space, hkq.Truncation(2, 3, float(np.sqrt(2.0))), make_rng(2))
    assert got.trunc.k == want.trunc.k
    assert got.x.tobytes() == want.x.tobytes() and got.X.tobytes() == want.X.tobytes()


# every option of the CLI, per verb, with "" for the global ones, each
# written as its option strings joined by "/"; --help is left out.  A new
# option changes this table and gets a line in CHANGES.md.
CLI_OPTIONS = {
    "": {"--tol"},
    "sample": {"--space", "-p", "-q", "-k", "--seed", "-o/--output"},
    "project": {"--structure", "-i/--input", "-o/--output"},
    "potential": {"--which", "--route", "-i/--input"},
    "angles": {"-i/--input", "--k"},
    "map": {"--which", "-i/--input", "-o/--output"},
    "check": {"--suite", "--trials", "--seed"},
    "info": {"-i/--input"},
}


def _options(parser) -> set[str]:
    return {"/".join(a.option_strings) for a in parser._actions
            if a.option_strings and not isinstance(a, argparse._HelpAction)}


def test_cli_option_surface_is_pinned():
    ap = cli.build_parser()
    (sub,) = [a for a in ap._actions if isinstance(a, argparse._SubParsersAction)]
    got = {"": _options(ap)} | {verb: _options(p) for verb, p in sub.choices.items()}
    assert got == CLI_OPTIONS


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "0", "-0.0", "1e-400", "abc"])
def test_tol_that_is_not_finite_and_positive_exits_2(tol, capsys):
    # refused by the parser, naming --tol, before any membership test could
    # judge a point against it
    with pytest.raises(SystemExit) as exc:
        cli.main([f"--tol={tol}", "info"])
    assert exc.value.code == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert "argument --tol" in captured.err and captured.out == ""


@pytest.mark.parametrize("tol", ["1", "2"])
def test_tol_of_one_or_more_exits_2(tol, capsys):
    # sigma_min > tol * sigma_max cannot hold at tol >= 1, so no point is
    # stable there: the parser refuses it, naming --tol, not the point
    with pytest.raises(SystemExit) as exc:
        cli.main(["--tol", tol, "potential", "--which", "k1", "-i", "unread.json"])
    assert exc.value.code == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert "argument --tol" in captured.err and captured.out == ""


def test_tol_below_one_is_accepted(capsys):
    assert cli.main(["--tol", "0.5", "info"]) == cli.EXIT_OK
    assert "membership_tol 0.5" in capsys.readouterr().out


def test_info_without_input_exits_0(capsys):
    assert cli.main(["info"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "package hkq" in out
    assert "membership_tol 1e-09" in out


def test_python_dash_m_runs_the_cli():
    # the package itself is runnable: python -m hkq <verb> ...
    env = dict(os.environ, PYTHONPATH=str(Path(hkq.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-m", "hkq", "info"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == cli.EXIT_OK, done.stderr
    assert "package hkq" in done.stdout


def _python_m_hkq(*argv):
    env = dict(os.environ, PYTHONPATH=str(Path(hkq.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-m", "hkq", *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=120)


def _entry_point_files(tmp_path):
    """A first- and a third-stable point file and psi3's pair file of the
    second, written in process; and the pair file without its k."""
    f = {name: tmp_path / f"{name}.json" for name in ("s1", "s3", "pair", "pair_no_k")}
    _sample(f["s1"])
    _sample(f["s3"], space="stable3")
    assert cli.main(["map", "--which", "psi3", "-i", str(f["s3"]),
                     "-o", str(f["pair"])]) == cli.EXIT_OK
    obj = json.loads(f["pair"].read_text())
    del obj["k"]
    f["pair_no_k"].write_text(json.dumps(obj))
    return f


ENTRY_POINT_RUNS = {
    # verb: (valid argv, refused argv, a phrase of the refusal)
    "sample": (["sample", "--space", "stable3", "-p", "2", "-q", "3", "-o", "{out}"],
               ["sample", "--space", "stable3", "-p", "2", "-q", "3", "-k", "0",
                "-o", "{out}"], "k must be nonzero"),
    "project": (["project", "--structure", "i3", "-i", "{s3}", "-o", "{out}"],
                ["project", "--structure", "i3", "-i", "{s1}", "-o", "{out}"], "psi3 requires"),
    "potential": (["potential", "--which", "k3", "-i", "{s3}"],
                  ["potential", "--which", "k3", "--route", "nope", "-i", "{s3}"],
                  "unknown route"),
    "angles": (["angles", "-i", "{pair}"], ["angles", "-i", "{pair_no_k}"], "K3_hat needs k"),
    "map": (["map", "--which", "psi3", "-i", "{s3}", "-o", "{out}"],
            ["map", "--which", "psi3", "-i", "{s1}", "-o", "{out}"], "psi3 requires"),
    "check": (["check", "--suite", "moment", "--trials", "1"],
              ["check", "--suite", "moment", "--trials", "0"], "trials must be at least 1"),
    "info": (["info", "-i", "{s3}"], ["info", "-i", "{missing}"], "missing.json"),
}


@pytest.mark.parametrize("verb", ENTRY_POINT_RUNS)
def test_python_dash_m_runs_each_verb(verb, tmp_path):
    # in-process main() does not go through the entry point: run it
    files = {name: str(path) for name, path in _entry_point_files(tmp_path).items()}
    files.update(out=str(tmp_path / "out.json"), missing=str(tmp_path / "missing.json"))
    valid, refused, phrase = ENTRY_POINT_RUNS[verb]
    done = _python_m_hkq(*(arg.format(**files) for arg in valid))
    assert (done.returncode, done.stderr) == (cli.EXIT_OK, "")
    assert done.stdout
    done = _python_m_hkq(*(arg.format(**files) for arg in refused))
    assert done.returncode == cli.EXIT_INPUT
    errors = [line for line in done.stderr.splitlines() if line.startswith("error ")]
    assert len(errors) == 1 and phrase in errors[0], done.stderr


def test_info_on_third_stable_file_prints_angles(tmp_path, capsys):
    point = tmp_path / "s3.json"
    _sample(point, space="stable3")
    capsys.readouterr()
    assert cli.main(["info", "-i", str(point)]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "in_stable3 True" in out
    assert "characteristic_angles " in out


def _info_oracle(path, tol=None):
    """What `info -i` prints, built from moment's membership tests: psi3's
    pair is judged by in_stable3's computation at the same tol, so
    in_stable3 is the oracle of the verdict info reads off that pair.  tol
    None stands for no --tol flag."""
    tol = DEFAULT_MEMBERSHIP_TOL if tol is None else tol
    pt = jsonio.load_point(path)
    rc, rr = level_residual(pt)
    lines = [f"p {pt.trunc.p}", f"q {pt.trunc.q}", f"k {pt.trunc.k!r}",
             f"k2_over_2_integral {pt.trunc.integrality_ok}",
             f"level_residual_complex {rc!r}", f"level_residual_real {rr!r}",
             f"on_level_set {on_level_set(pt, tol)}", f"in_stable1 {in_stable1(pt, tol)}",
             f"in_stable3 {in_stable3(pt, tol)}"]
    if in_stable3(pt, tol):
        theta = characteristic_angles(psi3(pt, tol)[0], tol)
        lines.append("characteristic_angles " + " ".join(repr(float(t)) for t in theta))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("tol", [None, 1e-6])
@pytest.mark.parametrize("space", ["stable1", "level", "stable3"])
def test_info_output_is_unchanged(space, tol, tmp_path, capsys):
    point = tmp_path / f"{space}.json"
    assert cli.main(["sample", "--space", space, "-p", "4", "-q", "5",
                     "--seed", "3", "-o", str(point)]) == cli.EXIT_OK
    capsys.readouterr()
    args = [] if tol is None else ["--tol", repr(tol)]
    assert cli.main(args + ["info", "-i", str(point)]) == cli.EXIT_OK
    assert capsys.readouterr().out == _info_oracle(point, tol)


def test_info_reports_psi3s_verdict_under_a_loose_tol(tmp_path, capsys):
    # X moved by 1e-8 along a unit direction leaves the third-stable
    # equations off by ~1e-8 k^2, inside --tol 1e-6.  psi3's pair is judged
    # by in_stable3's rule at the same tol: info prints True with the
    # angles, and the k3 routes accept the point and agree
    s3, off = tmp_path / "s3.json", tmp_path / "off.json"
    _sample(s3, space="stable3")
    pt = jsonio.load_point(s3)
    e = gaussian_complex(make_rng(1), pt.X.shape)
    pt = type(pt)(pt.trunc, pt.x, pt.X + 1e-8 * e / fnorm(e))
    jsonio.save_point(off, pt)
    assert in_stable3(pt, 1e-6)
    capsys.readouterr()
    assert cli.main(["--tol", "1e-6", "info", "-i", str(off)]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "in_stable3 True" in out and "characteristic_angles " in out
    assert cli.main(["--tol", "1e-6", "potential", "--which", "k3",
                     "-i", str(off)]) == cli.EXIT_OK
    assert "cross_check pass" in capsys.readouterr().out


def test_cli_verbs_accept_an_ill_conditioned_third_stable_point(tmp_path, capsys):
    # cond(x + X) = 100 and equation residuals of 1e-10, inside tol k^2 =
    # 2e-9: psi3's orbit operator z acts as i k^2 on P only to 7e-9 k^2,
    # and no verb judges membership by it
    point = tmp_path / "ill.json"
    jsonio.save_point(point, ill_conditioned_stable3(2, 3, np.sqrt(2.0), 1e2, 5e-11, 0))
    assert cli.main(["info", "-i", str(point)]) == cli.EXIT_OK
    assert "in_stable3 True" in capsys.readouterr().out.splitlines()
    for argv in (["potential", "--which", "k3"], ["potential", "--which", "k3hat"],
                 ["project", "--structure", "i3", "-o", str(tmp_path / "level.json")],
                 ["map", "--which", "psi3", "-o", str(tmp_path / "pair.json")]):
        assert cli.main([*argv, "-i", str(point)]) == cli.EXIT_OK, argv


@pytest.mark.parametrize("cond", [1e5, 1e7])
def test_an_ill_conditioned_first_stable_file_projects_and_evaluates(cond, tmp_path, capsys):
    point = tmp_path / "ill.json"
    jsonio.save_point(point, ill_conditioned_stable1(3, 4, np.sqrt(2.0), cond, 0))
    assert cli.main(["info", "-i", str(point)]) == cli.EXIT_OK
    assert "in_stable1 True" in capsys.readouterr().out.splitlines()
    for argv in (["project", "--structure", "i1", "-o", str(tmp_path / "level.json")],
                 ["potential", "--which", "k1"]):
        assert cli.main([*argv, "-i", str(point)]) == cli.EXIT_OK, argv


def test_info_judges_third_stability_once(lapack_calls, tmp_path, capsys):
    # psi3's own thin QRs of x + X and x - X give the frames, and the
    # equations' residuals certify the rank, so no SVD of x +/- X is taken;
    # the two SVDs are characteristic_angles': the p x p SVD of
    # M = F_P* F_Qperp that builds w, and the values of w
    point = tmp_path / "s3.json"
    assert cli.main(["sample", "--space", "stable3", "-p", "4", "-q", "5",
                     "-o", str(point)]) == cli.EXIT_OK
    capsys.readouterr()
    lapack_calls.clear()
    assert cli.main(["info", "-i", str(point)]) == cli.EXIT_OK
    assert "in_stable3 True" in capsys.readouterr().out
    factors = {key: n for key, n in lapack_calls.items() if key.startswith(("svd", "qr"))}
    assert factors == {"qr reduced": 2, "svd full": 1, "svd values": 1}


def test_info_on_a_first_stable_file_factors_once(lapack_calls, tmp_path, capsys):
    # in_stable1's thin QR of x and the values of its R are the only
    # factorizations: psi3's pair judges the third-stable equations first
    # and refuses before factoring x +/- X
    point = tmp_path / "s1.json"
    _sample(point, space="stable1")
    capsys.readouterr()
    lapack_calls.clear()
    assert cli.main(["info", "-i", str(point)]) == cli.EXIT_OK
    assert "in_stable3 False" in capsys.readouterr().out
    assert dict(lapack_calls) == {"qr reduced": 1, "svd values": 1}


def test_sample_stable1_judges_on_the_draws_factors(lapack_calls, tmp_path):
    # the verb's membership check reads the QR and values of R that the
    # draw took and stored on the point: no factorization of its own
    assert cli.main(["sample", "--space", "stable1", "-p", "4", "-q", "5",
                     "-o", str(tmp_path / "s1.json")]) == cli.EXIT_OK
    assert dict(lapack_calls) == {"qr reduced": 1, "svd values": 1}


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


@pytest.mark.parametrize("p,q", [(2, 2), (8, 64)])
def test_angles_prints_the_transversality_that_map_printed(p, q, tmp_path, capsys):
    # the file holds Q, and angles reads Q^perp back as its complement: the
    # value moves by round-off only
    point, pair = tmp_path / "s3.json", tmp_path / "pair.json"
    assert cli.main(["sample", "--space", "stable3", "-p", str(p), "-q", str(q),
                     "-o", str(point)]) == cli.EXIT_OK
    printed = []
    for argv in (["map", "--which", "psi3", "-i", str(point), "-o", str(pair)],
                 ["angles", "-i", str(pair)]):
        capsys.readouterr()
        assert cli.main(argv) == cli.EXIT_OK
        lines = dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())
        printed.append(float(lines["transversality"]))
    assert abs(printed[1] - printed[0]) <= 1e-14


def test_angles_takes_the_values_of_w_once(lapack_calls, monkeypatch, tmp_path, capsys):
    # loading Q^perp: one complete QR of Q; the graph: one p x p SVD of
    # M = F_P* F_Qperp, which the transversality reads again; the angles,
    # memoized on the pair and read again by K3_hat: the values of w once
    pair = _map_psi3(tmp_path)
    calls, original = [], grassmann._angles

    def counted(w):
        calls.append(w)
        return original(w)

    monkeypatch.setattr(grassmann, "_angles", counted)
    capsys.readouterr()
    lapack_calls.clear()
    assert cli.main(["angles", "-i", str(pair)]) == cli.EXIT_OK
    assert len(calls) == 1
    assert dict(lapack_calls) == {"qr complete": 1, "svd full": 1, "svd values": 1}


def test_angles_without_k_exits_2(tmp_path, capsys):
    pair = _map_psi3(tmp_path)
    obj = json.loads(pair.read_text())
    del obj["k"]
    pair.write_text(json.dumps(obj))
    capsys.readouterr()
    assert cli.main(["angles", "-i", str(pair)]) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    # k is decided first: a refused call prints no half report
    assert captured.out == "" and "K3_hat needs k" in captured.err


def test_pair_file_of_dimension_zero_without_k_exits_2(tmp_path, capsys):
    """p, q >= 1 is judged on load whether or not the file holds k, so the
    error names the file and the dimensions, not transversality."""
    pair = tmp_path / "p0.json"
    pair.write_text(json.dumps({"p": 0, "q": 3,
                                "P": jsonio.matrix_to_obj(np.zeros((3, 0))),
                                "Q": jsonio.matrix_to_obj(np.eye(3))}))
    assert cli.main(["angles", "-i", str(pair)]) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error {pair}: bad p/q (need p, q >= 1")


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


def test_a_nan_route_fails_the_cross_check(monkeypatch, tmp_path, capsys):
    # NaN > tol is False: the spread must be judged as "not <= tol"
    point = tmp_path / "s.json"
    _sample(point)
    monkeypatch.setattr(cli, "evaluate_routes",
                        lambda pt, which, tol: {"a": 1.0, "b": math.nan})
    capsys.readouterr()
    assert cli.main(["potential", "--which", "k1", "-i", str(point)]) == cli.EXIT_PROPERTY
    out = capsys.readouterr().out
    assert "max_route_delta_relative nan" in out and "cross_check FAIL" in out


def test_map_psi3_writes_frames_and_k_only(tmp_path):
    pair = _map_psi3(tmp_path)
    assert json.loads(pair.read_text()).keys() == {"p", "q", "k", "P", "Q"}


def test_map_psi3_prints_no_n_by_n_residual(tmp_path, capsys):
    point = tmp_path / "s3.json"
    _sample(point, space="stable3")
    capsys.readouterr()
    assert cli.main(["map", "--which", "psi3", "-i", str(point),
                     "-o", str(tmp_path / "pair.json")]) == cli.EXIT_OK
    keys = [line.split(" ", 1)[0] for line in capsys.readouterr().out.splitlines()]
    assert keys == ["map", "transversality", "written"]


def test_map_psi3_reads_the_pair_without_psi3(monkeypatch, tmp_path, capsys):
    # the verb reads psi3's pair, not psi3's orbit operator z, so it runs
    # with psi3 itself out of reach and writes the same bytes
    pair = _map_psi3(tmp_path)

    def refuse(*args, **kwargs):
        raise AssertionError("map --which psi3 called psi3")

    monkeypatch.setattr(grassmann, "psi3", refuse)
    again = tmp_path / "again.json"
    assert cli.main(["map", "--which", "psi3", "-i", str(tmp_path / "s3.json"),
                     "-o", str(again)]) == cli.EXIT_OK
    assert again.read_bytes() == pair.read_bytes()


def test_pair_file_with_old_z_key_loads_the_same(tmp_path, capsys):
    """z = i k^2 (projection onto P along Q) was written by older versions;
    it is ignored on load."""
    pair = _map_psi3(tmp_path)
    old = tmp_path / "old.json"
    obj = json.loads(pair.read_text())
    loaded, k = jsonio.load_pair(pair)
    obj["z"] = jsonio.matrix_to_obj(1j * k * k * np.eye(loaded.P.frame.shape[0]))
    old.write_text(json.dumps(obj))
    old_loaded, old_k = jsonio.load_pair(old)
    assert old_k == k
    np.testing.assert_array_equal(old_loaded.P.frame, loaded.P.frame)
    np.testing.assert_array_equal(old_loaded.Qperp.frame, loaded.Qperp.frame)
    capsys.readouterr()
    outs = []
    for path in (pair, old):
        assert cli.main(["angles", "-i", str(path)]) == cli.EXIT_OK
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


C16_DAMAGE = {
    "not_base64": (lambda text: "!" + text[1:], "c16 is not base64"),
    "one_char_short": (lambda text: text[:-1], "c16 is not base64"),
    "one_entry_short": (lambda text: text[:-24], "c16 holds"),  # 24 chars: 18 bytes
}


@pytest.mark.parametrize("damage", C16_DAMAGE)
def test_damaged_c16_exits_2(damage, tmp_path, capsys):
    edit, message = C16_DAMAGE[damage]
    point = tmp_path / "s.json"
    _sample(point)
    obj = json.loads(point.read_text())
    obj["x"]["c16"] = edit(obj["x"]["c16"])
    point.write_text(json.dumps(obj))
    capsys.readouterr()
    assert cli.main(["potential", "--which", "k1", "-i", str(point)]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error ") and message in err


@pytest.mark.parametrize("value", ["true", "false"])
def test_boolean_among_the_numbers_exits_2(value, tmp_path, capsys):
    """A boolean among the numbers can only come in the older re/im text
    layout; a verb given such a file exits 2 naming that layout."""
    point = tmp_path / "s.json"
    _sample(point)
    obj = json.loads(point.read_text())
    x = jsonio.matrix_from_obj(obj["x"])
    obj["x"] = {"rows": x.shape[0], "cols": x.shape[1],
                "re": x.real.tolist(), "im": x.imag.tolist()}
    obj["x"]["re"][0][0] = value == "true"
    point.write_text(json.dumps(obj))
    assert value in point.read_text()
    capsys.readouterr()
    assert cli.main(["potential", "--which", "k1", "-i", str(point)]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error ") and "re/im text layout is no longer read" in err


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_parsed_args_keep_their_handler():
    args = cli.build_parser().parse_args(["potential", "--which", "k1", "-i", "a.json"])
    assert args.func is cli._cmd_potential


def test_verbs_in_one_process_print_what_each_prints_alone(tmp_path, capsys):
    point, pair = tmp_path / "s3.json", tmp_path / "pair.json"
    sequence = [
        ["sample", "--space", "stable3", "-p", "2", "-q", "3", "--seed", "4",
         "-o", str(point)],
        ["sample", "--space", "stable3", "-p", "2", "-q", "3", "-k", "1.5",
         "-o", str(tmp_path / "other.json")],
        ["potential", "--which", "k3", "-i", str(point)],
        ["potential", "--which", "k3", "--route", "spectral", "-i", str(point)],
        ["potential", "--which", "flat", "-i", str(point)],
        ["map", "--which", "psi3", "-i", str(point), "-o", str(pair)],
        ["angles", "-i", str(pair), "--k", "3"],
        ["angles", "-i", str(pair)],
        ["--tol", "1e-7", "info"],
        ["info"],
        ["check", "--suite", "moment", "--trials", "1", "--seed", "3"],
    ]

    def run(argv):
        code = cli.main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    together = [run(argv) for argv in sequence]
    alone = []
    for argv in sequence:
        cli.build_parser.cache_clear()
        alone.append(run(argv))
    assert together == alone
    assert all(code == cli.EXIT_OK for code, _, _ in together)
    assert together[2][1] != together[3][1]  # --route was not carried over


def test_replaced_handler_runs_after_the_first_call(monkeypatch, tmp_path, capsys):
    point = tmp_path / "s.json"
    _sample(point)
    argv = ["potential", "--which", "flat", "-i", str(point)]
    assert cli.main(argv) == cli.EXIT_OK
    calls = []
    monkeypatch.setattr(cli, "_cmd_potential", lambda args: calls.append(args.which) or 7)
    assert cli.main(argv) == 7
    assert calls == ["flat"]
