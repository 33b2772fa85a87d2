"""hkq benchmark: a closed loop with one client, calling hkq in-process.

    python3 perfbench/run.py --workload cli-wide --seed 3 --seconds 30 --trace 0

Untraced (--trace 0) runs report the end-to-end metrics; a traced run
(--trace 1) reports the per-layer metrics and the tracing overhead.
``--workload all`` runs every workload in turn and prints one table.  The
last line of standard output is a JSON object with the keys correct,
attempted, failed and metrics; the exit code is 0 only when `correct` is
true (see all_correct).  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads it: with nproc = 2 a second
# BLAS thread measures the scheduler rather than the program.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)
# hkq reads its membership tolerance from HKQ_TOL; the benchmark runs at
# the program's default.
os.environ.pop("HKQ_TOL", None)

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

from bench_jobs import CYCLES, SUITES, JobList, execute, judge  # noqa: E402
from bench_reference import REFERENCE_MS, ReferenceKernel  # noqa: E402
from bench_stats import beyond, nearest_rank, ranked_latencies  # noqa: E402
from bench_trace import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("check", "routes-desk", "cli-wide")  # the ones BENCHMARK.json lists
SETUP_REPEATS = 41
TRACE_SPAN_CAP = 2_000_000  # ~54 MB of span arrays
REFERENCE_EVERY_S = 0.05  # job time between two passes of the reference kernel
HKQ_MODULES = ("cli", "checks", "errors", "grassmann", "hkspace", "jsonio", "matcore",
               "moment", "potentials", "quotient", "sampling")

END_TO_END_UNITS = {
    "jobs_per_s": "1/s", "job_p50_ms": "ms", "job_p90_ms": "ms",
    "ok_share": "ratio", "setup_s": "s", "peak_rss_mb": "MB",
}


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _blas_threads() -> int | None:
    """Live OpenBLAS thread count of numpy's bundled library, if found."""
    import ctypes
    import glob

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    try:
        threads = _blas_threads()
    except OSError:
        threads = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": threads,
        "blas_env": BLAS_ENV,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_commit": _git_commit(),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# set-up and measurement
# ---------------------------------------------------------------------------

def import_hkq() -> SimpleNamespace:
    """Import hkq afresh from the checkout's sources."""
    for name in [m for m in sys.modules if m == "hkq" or m.startswith("hkq.")]:
        del sys.modules[name]
    importlib.import_module("hkq")
    return SimpleNamespace(**{m: importlib.import_module("hkq." + m) for m in HKQ_MODULES})


def setup(workload: str, seed: int, ref: ReferenceKernel):
    """Import hkq and build the job list, SETUP_REPEATS times.  Returns the
    median time at reference speed (each repeat scaled by a calibration
    pass run just before it), the median as measured, and the last import
    with its job list."""
    scaled, measured = [], []
    for _ in range(SETUP_REPEATS):
        calibration = ref.run()
        t0 = time.perf_counter()
        hkq = import_hkq()
        jobs = JobList(workload, seed)
        measured.append(time.perf_counter() - t0)
        scaled.append(measured[-1] * REFERENCE_MS / (1e3 * calibration))
        gc.collect()  # untimed: each import starts as if hkq had been imported once
    return statistics.median(scaled), statistics.median(measured), hkq, jobs


def measure(hkq, jobs: JobList, seconds: float, tmp: Path, ref: ReferenceKernel,
            tracer: Tracer | None = None) -> list:
    """Run jobs from the start of the list until `seconds` of wall time
    have passed, and at least one job.  Only execute() is timed; the output
    check and the reference kernel run between jobs."""
    outcomes = []
    clock = time.perf_counter
    deadline = clock() + seconds
    since_ref = REFERENCE_EVERY_S
    i = 0
    while clock() < deadline or i == 0:
        if since_ref >= REFERENCE_EVERY_S:
            ref.run()
            since_ref = 0.0
        job = jobs[i]
        ref_pos = len(ref.samples)
        if tracer is not None:
            tracer.current_job = i
        t0 = clock()
        try:
            out, exc = execute(hkq, job, tmp), None
        except Exception as err:  # a failed job is data, not the end of the run
            out, exc = None, err
        latency = clock() - t0
        if tracer is not None:
            tracer.current_job = -1
        since_ref += latency
        outcomes.append(judge(hkq, job, out, exc, latency))
        outcomes[-1].ref_pos = ref_pos
        i += 1
        if tracer is not None and len(tracer) > TRACE_SPAN_CAP:
            break
    ref.run()
    return outcomes


def end_to_end(outcomes: list, setup_s: float, factors) -> dict:
    """The end-to-end metrics; each job time is scaled to reference speed
    by its factor (ones give them as measured); setup_s is scaled already."""
    lat = [f * o.latency_s for o, f in zip(outcomes, factors)]
    failed = [o.failed for o in outcomes]
    busy = sum(lat)
    ranked = ranked_latencies(lat, failed, fail_value=busy)
    ok = len(outcomes) - sum(failed)
    return {
        "jobs_per_s": ok / busy if busy > 0 else 0.0,
        "job_p50_ms": 1e3 * nearest_rank(ranked, 0.5),
        "job_p90_ms": 1e3 * nearest_rank(ranked, 0.9),
        "ok_share": ok / len(outcomes),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer: Tracer, factors, overhead: float) -> dict:
    """Per-job means of the traced counts and times, with their units;
    the times of job i are scaled to reference speed by factors[i]."""
    s = tracer.summary(factors)
    n_jobs = len(factors)
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0}

    def get(name):
        return s.get(name, zero)

    def group(prefix):
        rows = [v for k, v in s.items() if k.startswith(prefix)]
        return {key: sum(r[key] for r in rows) for key in zero}

    m: dict[str, tuple[float, str]] = {}

    def calls(name, row=None):
        m[name + ".calls"] = ((row or get(name))["calls"] / n_jobs, "1/job")

    def self_ms(name, row=None):
        m[name + ".self_ms"] = (1e3 * (row or get(name))["self_s"] / n_jobs, "ms/job")

    def total_ms(name):
        m[name + ".total_ms"] = (1e3 * get(name)["total_s"] / n_jobs, "ms/job")

    calls("matcore.as_matrix")
    self_ms("matcore.as_matrix")
    calls("hkspace.ConfigPoint")
    calls("hkspace.TangentPair")
    calls("lapack", group("lapack."))
    self_ms("lapack", group("lapack."))
    for f in ("herm_eig", "herm_fun", "svd", "sym_sylvester_solve", "orthonormal_range",
              "null_space_frame"):
        calls("matcore." + f)
        self_ms("matcore." + f)
    calls("moment.membership")
    self_ms("moment.membership")
    total_ms("quotient.project1")
    total_ms("quotient.project3")
    for f in ("orbit_tangent_projection", "levelset_tangent_projection",
              "horizontal_projection"):
        calls("quotient." + f)
        total_ms("quotient." + f)
    calls("quotient.dF_assembly")
    level = get("quotient.levelset_tangent_projection")["calls"]
    assembled = get("quotient.dF_assembly")["calls"]
    m["quotient.dF_cache_hit_ratio"] = (1.0 - assembled / level if level else 0.0, "ratio")
    for f in ("psi1", "psi3", "graph_operator", "complement_frame", "characteristic_angles"):
        calls("grassmann." + f)
        total_ms("grassmann." + f)
    for f in ("K1_closed", "K1_fiber", "K1_curvature", "quotient_potential", "K3_spectral",
              "K3_similarity", "K3_level", "K3_hat_angles", "K3_hat_cotangent"):
        total_ms("potentials." + f)
    self_ms("potentials.evaluate_routes")
    total_ms("sampling.sample_stable1")
    total_ms("sampling.sample_stable3")
    draws = tracer.child_count("lapack.svd", "sampling.sample_stable1")
    s1 = get("sampling.sample_stable1")
    m["sampling.accept_ratio"] = ((s1["calls"] - s1["errors"]) / draws if draws else 0.0,
                                  "ratio")
    m["sampling.failures"] = (tracer.top_level_errors("sampling.") / n_jobs, "1/job")
    for suite in SUITES:
        total_ms("checks." + suite)
    total_ms("jsonio.save")
    total_ms("jsonio.load")
    m["jsonio.bytes_written"] = (tracer.counters["bytes_written"] / n_jobs, "B/job")
    m["jsonio.bytes_read"] = (tracer.counters["bytes_read"] / n_jobs, "B/job")
    for verb in ("sample", "project", "potential", "map", "check"):
        total_ms("cli." + verb)
    self_ms("cli.main")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return m


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One measured run; returns metrics, counts and failure tags."""
    ref = ReferenceKernel()
    setup_s, setup_measured, hkq, jobs = setup(workload, seed, ref)
    tmp = OUT / f"tmp-{os.getpid()}-{workload}"
    tmp.mkdir(parents=True, exist_ok=True)
    spans = None
    try:
        if not trace:
            outcomes = measure(hkq, jobs, seconds, tmp, ref)
            factors = ref.factors([o.ref_pos for o in outcomes])
            metrics = {k: (v, END_TO_END_UNITS[k])
                       for k, v in end_to_end(outcomes, setup_s, factors).items()}
            raw = end_to_end(outcomes, setup_measured, np.ones(len(outcomes)))
        else:
            # the same jobs from the start, first untraced, then traced
            plain = measure(hkq, jobs, seconds / 3.0, tmp, ref)
            plain_factors = ref.factors([o.ref_pos for o in plain])
            traced_ref = ReferenceKernel()
            spans = Tracer()
            spans.install()
            try:
                traced = measure(hkq, jobs, 2.0 * seconds / 3.0, tmp, traced_ref, spans)
            finally:
                spans.uninstall()
            factors = traced_ref.factors([o.ref_pos for o in traced])
            overhead = (np.dot(factors, [o.latency_s for o in traced]) / len(traced)) / (
                np.dot(plain_factors, [o.latency_s for o in plain]) / len(plain))
            metrics = per_layer(spans, factors, overhead)
            raw = {}
            outcomes = plain + traced
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "attempted": len(outcomes),
        "failed": sum(o.failed for o in outcomes),
        "incorrect": sum(o.incorrect for o in outcomes),
        "beyond_p90": beyond(len(outcomes), 0.9),
        "busy_s": sum(o.latency_s for o in outcomes),
        "metrics": metrics,
        "as_measured": raw,
        "speed_factor": float(np.median(factors)),
        "failures": [o.tag for o in outcomes if o.failed],
        "missing_names": spans.missing if spans is not None else [],
        "_spans": spans,
    }


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def _summarize_failures(failures: list[dict]) -> dict:
    counts: dict[str, int] = {}
    for tag in failures:
        key = (f"{tag['exception']} p={tag.get('p')} q={tag.get('q')} k={tag.get('k')} "
               f"space={tag.get('space')} step={tag.get('step')}")
        counts[key] = counts.get(key, 0) + 1
    return counts


def report(result: dict, env: dict) -> None:
    """Human-readable lines, then the result file under .bench_out/."""
    wl = result["workload"]
    n, f = result["attempted"], result["failed"]
    print(f"workload {wl} seed {result['seed']} trace {int(result['trace'])} "
          f"jobs {n} failed {f} fail_share {f / n:.4f} incorrect {result['incorrect']} "
          f"beyond_p90 {result['beyond_p90']}")
    print(f"  {wl} speed_factor {result['speed_factor']:.4f} (median; times below are at "
          f"reference speed, see perfbench/bench_reference.py)")
    for name, (value, unit) in result["metrics"].items():
        measured = result["as_measured"].get(name)
        extra = "" if measured is None or measured == value else f"  (as measured {measured:.6g})"
        print(f"  {wl} {name} {value:.6g} {unit}{extra}")
    for key, count in _summarize_failures(result["failures"]).items():
        print(f"  {wl} failure x{count}: {key}")
    if result["missing_names"]:
        print(f"  {wl} traced names absent from the program: {result['missing_names']}")
    OUT.mkdir(exist_ok=True)
    stem = f"{wl}-seed{result['seed']}-trace{int(result['trace'])}"
    record = {k: v for k, v in result.items() if not k.startswith("_")}
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    record["failures"] = result["failures"][:200]
    record["environment"] = env
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if result["_spans"] is not None:
        result["_spans"].save(OUT / f"spans-{stem}.npz")


def all_correct(results: list[dict]) -> bool:
    """A wrong answer is never correct.  The workloads BENCHMARK.json lists
    fail nowhere at the seed, so there a refusal is not correct either; only
    `edge`, which keeps the known defects, may refuse."""
    return all(r["incorrect"] == 0 and (r["workload"] == "edge" or r["failed"] == 0)
               for r in results)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(CYCLES) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (SRC / "hkq" / "__init__.py").is_file():
        print(f"error: hkq sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    names = list(WORKLOADS) + ["edge"] if args.workload == "all" else [args.workload]
    results = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    for result in results:
        report(result, env)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    correct = all_correct(results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
