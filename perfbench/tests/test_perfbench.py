"""Tests of the benchmark itself: span self time, the failures-as-slowest
percentile rule, and a one-job smoke of every workload.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from bench_stats import beyond, nearest_rank, ranked_latencies, self_times  # noqa: E402

sys.path.insert(0, str(run.SRC))

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 7]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    parent = [-1, 0, 0, 2]
    assert self_times(start, end, parent).tolist() == pytest.approx([3.0, 3.0, 3.0, 1.0])


def test_self_time_of_leaves_and_roots_is_their_duration():
    assert self_times([0.0, 2.0], [1.0, 5.0], [-1, -1]).tolist() == pytest.approx([1.0, 3.0])


def test_failed_jobs_rank_after_every_success():
    ranked = ranked_latencies([5.0, 1.0, 9.0, 2.0], [False, True, False, False], 100.0)
    assert ranked == [2.0, 5.0, 9.0, 100.0]
    assert nearest_rank(ranked, 0.5) == 5.0
    assert nearest_rank(ranked, 0.9) == 100.0


def test_fixing_a_failure_never_raises_a_percentile():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 40)
        lat = [rng.random() for _ in range(n)]
        failed = [rng.random() < 0.3 for _ in range(n)]
        fail_value = sum(lat)
        i = rng.randrange(n)
        fixed = failed[:i] + [False] + failed[i + 1:]
        for q in (0.5, 0.9):
            before = nearest_rank(ranked_latencies(lat, failed, fail_value), q)
            after = nearest_rank(ranked_latencies(lat, fixed, fail_value), q)
            assert after <= before


def test_fail_value_must_not_undercut_a_latency():
    with pytest.raises(ValueError):
        ranked_latencies([1.0, 3.0], [True, False], 2.0)


def test_nearest_rank_and_tail_count():
    ranked = [float(i) for i in range(1, 101)]
    assert nearest_rank(ranked, 0.5) == 50.0
    assert nearest_rank(ranked, 0.9) == 90.0
    assert beyond(100, 0.9) == 10
    assert beyond(99, 0.9) == 9


def test_job_lists_are_seed_determined_and_keep_their_mix():
    a, b = run.JobList("cli-wide", 3), run.JobList("cli-wide", 3)
    c = run.JobList("cli-wide", 4)
    n = len(a.template)
    assert [a[i] for i in range(2 * n)] == [b[i] for i in range(2 * n)]
    assert [a[i] for i in range(n)] != [c[i] for i in range(n)]
    shapes = sorted((j.p, j.q, j.k, j.structure) for j in (a[i] for i in range(n, 2 * n)))
    assert shapes == sorted((t["p"], t["q"], t["k"], t["structure"]) for t in a.template)


def test_listed_workloads_keep_clear_of_small_k():
    # at k = 0.05 project1 refuses about 1 point in 4,000, so small k
    # belongs to edge only
    for workload in run.WORKLOADS:
        assert all(t.get("k", 1.0) >= 1.0 for t in run.CYCLES[workload]()), workload
    assert any(t["k"] < 1.0 for t in run.CYCLES["edge"]())


def test_refusals_are_incorrect_except_on_edge():
    listed = {"workload": "cli-wide", "failed": 1, "incorrect": 0}
    edge = {"workload": "edge", "failed": 1, "incorrect": 0}
    wrong = {"workload": "edge", "failed": 1, "incorrect": 1}
    clean = {"workload": "check", "failed": 0, "incorrect": 0}
    assert run.all_correct([clean, edge])
    assert not run.all_correct([clean, listed])
    assert not run.all_correct([wrong])


def test_refusals_fail_and_other_exceptions_are_wrong_answers():
    hkq = run.import_hkq()
    job = run.JobList("routes-desk", 0)[0]
    refusal = run.judge(hkq, job, None, hkq.errors.NotInStable3("refused"), 0.1)
    crash = run.judge(hkq, job, None, ZeroDivisionError("bug"), 0.1)
    assert refusal.failed and not refusal.incorrect
    assert refusal.tag["exception"] == "NotInStable3" and refusal.tag["p"] == job.p
    assert crash.failed and crash.incorrect


@pytest.mark.parametrize("workload", list(run.WORKLOADS) + ["edge"])
def test_one_job_smoke(workload):
    result = run.run_workload(workload, seed=0, seconds=0.0, trace=False)
    assert result["attempted"] == 1
    assert result["incorrect"] == 0
    if workload != "edge":
        assert result["failed"] == 0, result["failures"]
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(value > 0 for value, _ in result["metrics"].values())
    for tag in result["failures"]:
        assert {"exception", "workload", "p", "q", "k", "space", "seed"} <= tag.keys()


def test_edge_failures_carry_their_tags(tmp_path):
    # one whole cycle, so every edge shape is attempted once
    hkq = run.import_hkq()
    jobs = run.JobList("edge", 0)
    outcomes = []
    for i in range(len(jobs.template)):
        try:
            out, exc = run.execute(hkq, jobs[i], tmp_path), None
        except Exception as err:
            out, exc = None, err
        outcomes.append(run.judge(hkq, jobs[i], out, exc, 0.1))
    assert not any(o.incorrect for o in outcomes)
    tags = [o.tag for o in outcomes if o.failed]
    assert {t["exception"] for t in tags} == {"DegenerateSample", "NotInStable3"}
    for tag in tags:
        assert tag["workload"] == "edge" and tag["space"] in ("stable1", "stable3")


def test_traced_run_reports_every_per_layer_metric():
    result = run.run_workload("routes-desk", seed=0, seconds=0.0, trace=True)
    assert set(result["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    assert result["metrics"]["matcore.as_matrix.calls"][0] > 0
    assert result["metrics"]["trace.overhead_ratio"][0] > 0
    assert result["missing_names"] == []
    # the wrappers are gone once the traced phase ends
    import hkq.matcore

    assert not hasattr(hkq.matcore.as_matrix, "__wrapped__")
