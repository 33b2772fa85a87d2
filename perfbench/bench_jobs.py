"""Workload job lists, the execution of one job and its output check.

Each workload is a fixed cycle of job templates.  Cycle c of a run with
seed s is that template list shuffled by ``default_rng([s, c])``, which also
draws every job's sub-seed, so job i is a pure function of (workload, s, i)
and each stretch of jobs has the same mix of shapes whatever the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SQRT2 = math.sqrt(2.0)

# The CLI's relative cross-route tolerance: spread / max(1, |first route|).
CROSS_ROUTE_TOL = 1e-8
# hkq's default membership tolerance; level residuals are judged against
# MEMBERSHIP_TOL * k^2.
MEMBERSHIP_TOL = 1e-9

SUITES = ("quaternion", "moment", "reduction", "potentials", "maps", "ddc")
SPACE = {"i1": "stable1", "i3": "stable3"}
POTENTIAL = {"i1": "k1", "i3": "k3"}
IMAGE_MAP = {"i1": "psi1", "i3": "psi3"}


@dataclass(frozen=True)
class Job:
    index: int
    workload: str
    seed: int
    p: int = 0
    q: int = 0
    k: float = 0.0
    structure: str = ""
    which: str = ""
    suite: str = ""
    trials: int = 0

    def tag(self) -> dict:
        """The fields that identify this job's input, for failure reports."""
        if self.workload == "check":
            keys = ("workload", "index", "suite", "trials", "seed")
        else:
            keys = ("workload", "index", "p", "q", "k", "seed")
        out = {key: getattr(self, key) for key in keys}
        if self.structure:
            out["space"] = SPACE[self.structure]
            out["which"] = self.which
        return out


def _check_cycle() -> list[dict]:
    # every suite at every trial count from 2 to 7: the latency spread is
    # continuous, so no percentile sits on the edge between two suites
    return [dict(suite=s, trials=t) for s in SUITES for t in range(2, 8)]


def _routes_cycle() -> list[dict]:
    shapes = [(p, q) for p in range(1, 7) for q in range(1, 7)] + [(4, 4)] * 12
    return [dict(p=p, q=q, k=SQRT2, structure="i1" if w == "k1" else "i3", which=w)
            for p, q in shapes for w in ("k1", "k3", "k3hat")]


def _cli(p, q, k, structures=("i1", "i3")) -> list[dict]:
    return [dict(p=p, q=q, k=k, structure=s, which=POTENTIAL[s]) for s in structures]


def _cli_wide_cycle() -> list[dict]:
    # no k = 0.05: there project1 refuses about 1 point in 4,000
    # (NotInStable1, residual above tol * k^2)
    return (_cli(16, 16, SQRT2) * 3 + _cli(32, 32, SQRT2) + _cli(64, 64, SQRT2)
            + _cli(8, 64, SQRT2) + _cli(16, 16, 30.0))


def _edge_cycle() -> list[dict]:
    # the known defects (sample at p >> q; small k, where the membership
    # tolerance scales with k^2 but the sampled points do not) next to the
    # large-k jobs that pass
    return (_cli(64, 8, SQRT2) + _cli(16, 16, 0.05) + _cli(32, 32, 0.05)
            + _cli(16, 16, 30.0))


CYCLES = {
    "check": _check_cycle,
    "routes-desk": _routes_cycle,
    "cli-wide": _cli_wide_cycle,
    "edge": _edge_cycle,
}


class JobList:
    """The endless, seed-determined job sequence of one workload."""

    def __init__(self, workload: str, seed: int) -> None:
        if workload not in CYCLES:
            raise ValueError(f"unknown workload {workload!r}; known: {sorted(CYCLES)}")
        self.workload = workload
        self.seed = int(seed)
        self.template = CYCLES[workload]()
        self._cycles: dict[int, list[Job]] = {}
        self._cycle(0)

    def _cycle(self, c: int) -> list[Job]:
        if c not in self._cycles:
            rng = np.random.default_rng([self.seed, c])
            order = rng.permutation(len(self.template))
            seeds = rng.integers(0, 2**31 - 1, size=len(self.template))
            base = c * len(self.template)
            self._cycles = {c: [
                Job(index=base + j, workload=self.workload, seed=int(seeds[j]),
                    **self.template[order[j]])
                for j in range(len(self.template))
            ]}
        return self._cycles[c]

    def __getitem__(self, i: int) -> Job:
        c, j = divmod(i, len(self.template))
        return self._cycle(c)[j]


# ---------------------------------------------------------------------------
# execution (timed)
# ---------------------------------------------------------------------------

def call_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    """hkq.cli.main in-process, with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def cli_steps(job: Job, tmp: Path) -> list[list[str]]:
    """sample -> project -> potential (raw, projected) -> map."""
    raw, proj, image = (str(tmp / n) for n in ("point.json", "projected.json", "image.json"))
    return [
        ["sample", "--space", SPACE[job.structure], "-p", str(job.p), "-q", str(job.q),
         "-k", repr(job.k), "--seed", str(job.seed), "-o", raw],
        ["project", "--structure", job.structure, "-i", raw, "-o", proj],
        ["potential", "--which", job.which, "-i", raw],
        ["potential", "--which", job.which, "-i", proj],
        ["map", "--which", IMAGE_MAP[job.structure], "-i", proj, "-o", image],
    ]


def execute(hkq, job: Job, tmp: Path) -> dict:
    """Run one job against the program; everything here is timed.  Names
    are looked up on the modules at call time so the tracer sees them."""
    if job.workload == "check":
        argv = ["check", "--suite", job.suite, "--trials", str(job.trials),
                "--seed", str(job.seed)]
        return {"steps": [(argv, *call_cli(hkq.cli, argv))]}
    if job.workload == "routes-desk":
        trunc = hkq.hkspace.Truncation(job.p, job.q, job.k)
        rng = hkq.sampling.make_rng(job.seed)
        if job.structure == "i1":
            pt = hkq.sampling.sample_stable1(trunc, rng)
            projected = hkq.quotient.project1(pt).point
            routes = hkq.potentials.evaluate_routes(pt, job.which)
            return {"point": pt, "projected": projected, "routes": routes,
                    "image": hkq.grassmann.psi1(pt)}
        pt = hkq.sampling.sample_stable3(trunc, rng)
        projected = hkq.quotient.project3(pt).point
        routes = hkq.potentials.evaluate_routes(pt, job.which)
        pair, _ = hkq.grassmann.psi3(pt)
        return {"point": pt, "projected": projected, "routes": routes,
                "angles": hkq.grassmann.characteristic_angles(pair)}
    steps = []
    for argv in cli_steps(job, tmp):
        result = call_cli(hkq.cli, argv)
        steps.append((argv, *result))
        if result[0] != 0:
            break
    return {"steps": steps}


# ---------------------------------------------------------------------------
# output check (untimed)
# ---------------------------------------------------------------------------

def route_spread(values) -> float:
    """Relative spread of a potential's routes, as the CLI judges it."""
    values = list(values)
    return (max(values) - min(values)) / max(1.0, abs(values[0]))


def level_residual(x: np.ndarray, X: np.ndarray, k: float) -> float:
    """max(||X*x||, ||x*x - X*X - k^2 Id||), computed here, not by hkq."""
    p = x.shape[1]
    xh, Xh = x.conj().T, X.conj().T
    return max(float(np.linalg.norm(Xh @ x)),
               float(np.linalg.norm(xh @ x - Xh @ X - k * k * np.eye(p))))


def _parse_routes(stdout: str, which: str) -> dict[str, float]:
    routes = {}
    for line in stdout.splitlines():
        key, _, value = line.partition(" ")
        if key.startswith(which + "."):
            routes[key[len(which) + 1:]] = float(value)
    return routes


def _check_level(x, X, k: float, what: str) -> str | None:
    res = level_residual(x, X, k)
    if not res <= MEMBERSHIP_TOL * k * k:
        return f"{what} level residual {res:.3e} > {MEMBERSHIP_TOL:g} k^2"
    return None


def _check_routes(routes: dict[str, float], what: str) -> str | None:
    if len(routes) < 2:
        return f"{what}: {len(routes)} routes reported"
    spread = route_spread(routes.values())
    if not spread <= CROSS_ROUTE_TOL:
        return f"{what}: route spread {spread:.3e} > {CROSS_ROUTE_TOL:g} ({routes})"
    return None


def verify(hkq, job: Job, out: dict) -> str | None:
    """The output check of one finished job; returns what is wrong, if
    anything.  Exit codes are judged by the caller."""
    if job.workload == "check":
        stdout = out["steps"][0][2]
        return None if "overall pass" in stdout else "check suite reported FAIL"
    if job.workload == "routes-desk":
        return _verify_routes(job, out)
    return _verify_cli(hkq, job, out)


def _verify_routes(job: Job, out: dict) -> str | None:
    problem = (_check_routes(out["routes"], f"evaluate_routes {job.which}")
               or _check_level(out["projected"].x, out["projected"].X, job.k, "projected point"))
    if problem:
        return problem
    n = job.p + job.q
    if job.structure == "i1":
        frame = out["image"].P.frame
        err = float(np.linalg.norm(frame.conj().T @ frame - np.eye(job.p)))
        if frame.shape != (n, job.p) or not err <= 1e-10 * (1 + job.p):
            return f"psi1 frame {frame.shape} off orthonormal by {err:.3e}"
        return None
    theta = np.asarray(out["angles"])
    if (theta.shape != (job.p,) or not np.all(np.isfinite(theta))
            or np.any(theta < 0) or np.any(theta >= np.pi / 2)
            or np.any(np.diff(theta) < 0)):
        return f"characteristic angles out of [0, pi/2) or unsorted: {theta}"
    from_angles = 0.25 * job.k * job.k * float(np.sum(1.0 / np.cos(theta) - 1.0))
    return _check_routes({"angles": out["routes"]["angles"], "recomputed": from_angles},
                         "angles route against characteristic_angles")


def _verify_cli(hkq, job: Job, out: dict) -> str | None:
    steps = out["steps"]
    for argv, _rc, stdout, _err in steps[2:4]:
        if "cross_check pass" not in stdout:
            return f"{' '.join(argv[:3])}: no cross_check pass"
        problem = _check_routes(_parse_routes(stdout, job.which), " ".join(argv))
        if problem:
            return problem
    projected = Path(steps[1][0][-1])
    saved = json.loads(projected.read_text())
    pt = hkq.jsonio.load_point(projected)
    if (hkq.jsonio.matrix_to_obj(pt.x) != saved["x"]
            or hkq.jsonio.matrix_to_obj(pt.X) != saved["X"]
            or (pt.trunc.p, pt.trunc.q, pt.trunc.k) != (job.p, job.q, job.k)):
        return "projected point does not reload equal to the saved file"
    problem = _check_level(pt.x, pt.X, job.k, "projected point file")
    if problem:
        return problem
    image = json.loads(Path(steps[4][0][-1]).read_text())
    expected = {"P", "eta"} if job.structure == "i1" else {"P", "Q"}
    if not expected <= image.keys():
        return f"map output lacks {sorted(expected - image.keys())}"
    return None


def replay(hkq, argv: list[str]) -> BaseException | None:
    """Re-run a CLI verb that exited nonzero without main's handler, to
    learn the exception class behind the exit code."""
    args = hkq.cli.build_parser().parse_args(argv)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args.func(args)
        except Exception as exc:  # the failure being diagnosed
            return exc
    return None


@dataclass
class Outcome:
    latency_s: float
    failed: bool = False
    incorrect: bool = False
    tag: dict | None = None
    ref_pos: int = 0  # reference-kernel passes made before the job started


def judge(hkq, job: Job, out: dict | None, exc: BaseException | None,
          latency_s: float) -> Outcome:
    """Classify a finished job.

    A job fails when it raises, a CLI verb exits nonzero, or its output
    check fails.  A refusal (an hkq error, CLI exit 2) is a failure only;
    a wrong answer (failed output check, CLI exit 1, any other exception)
    also makes the run incorrect.
    """
    hkq_error = hkq.errors.HkqError
    tag = job.tag()
    if exc is None:
        bad = [s for s in out.get("steps", []) if s[1] != 0]
        if not bad:
            problem = verify(hkq, job, out)
            if problem is None:
                return Outcome(latency_s)
            return Outcome(latency_s, True, True,
                           {"exception": "OutputCheck", "message": problem[:300], **tag})
        argv, rc, stdout, stderr = bad[0]
        tag["step"] = argv[0]
        exc = replay(hkq, argv)
        if exc is None:  # a verb that reports a failed property exits 1 without raising
            tail = (stderr.strip() or stdout.strip())[-300:]
            return Outcome(latency_s, True, True, {"exception": f"Exit{rc}", "message": tail, **tag})
        incorrect = rc != 2 or not isinstance(exc, hkq_error)
    else:
        incorrect = not isinstance(exc, hkq_error)
    return Outcome(latency_s, True, incorrect,
                   {"exception": type(exc).__name__, "message": str(exc)[:300], **tag})
