"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workloads check,routes-desk,cli-wide --seeds 1-10 \
        [--traced] [--out FILE]

Runs perfbench/run.py once per workload and seed, one run after another,
each waited for.  Then it prints, per metric, the median and the quartiles
as statistics.quantiles(values, n=4) gives them.  It also prints the
distance between the quartiles as a share of the median, next to the
metric's bound from BENCHMARK.json.  With --traced it adds one traced run
per workload at the first seed.  With --out the summary, every run and the
environment are written as JSON (perfbench/baseline/ holds such files);
each run keeps its times as measured and its median speed factor next to
the scaled metrics.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from bench_stats import quartile_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(spec: str) -> list[int]:
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def bench(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One run.py process; returns its result line, with the as-measured
    values and the median speed factor from its result file, and its
    environment."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    record = json.loads((ROOT / ".bench_out" / f"result-{workload}-seed{seed}-trace{trace}.json")
                        .read_text())
    result = json.loads(lines[-1])
    result.update(as_measured=record["as_measured"], speed_factor=record["speed_factor"])
    return result, env


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", required=True, help="comma-separated")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"seconds": seconds, "seeds": seeds(args.seeds), "workloads": {}}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        runs = []
        for seed in record["seeds"]:
            result, record["environment"] = bench(workload, seed, seconds, 0)
            runs.append({"seed": seed, **result})
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()), flush=True)
        summary = {}
        for name, vals in values.items():
            med, q1, q3 = quartile_spread(vals)
            spread = (q3 - q1) / med if med else 0.0
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                             "bound": bounds.get(name)}
            print(f"{workload} {name}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {spread:.4f} bound {bounds.get(name)}", flush=True)
        entry = {"summary": summary, "runs": runs}
        if args.traced:
            traced, _ = bench(workload, record["seeds"][0], seconds, 1)
            entry["traced"] = {"seed": record["seeds"][0], **traced}
        record["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
