"""Span tracer for the traced benchmark run.

A span is (name, start, end, parent, job, error).  Spans are appended to
flat typed arrays while the run goes on and written out once it ends.
A traced name is wrapped wherever an hkq module binds it: every module
attribute, and every value of a module-level dict (such as
``checks.SUITES``), that is the original function object is replaced by a
recording wrapper for the length of the traced phase, then restored.
Outside a job (``current_job < 0``) the wrappers only forward the call.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array

import numpy as np

from bench_jobs import SUITES
from bench_stats import self_times

# (span name, module that defines it, attribute)
FUNCTION_SPANS = [
    *(("matcore." + f, "hkq.matcore", f) for f in (
        "as_matrix", "herm_eig", "herm_fun", "svd", "sym_sylvester_solve",
        "orthonormal_range", "null_space_frame")),
    *(("moment.membership", "hkq.moment", f) for f in (
        "in_stable1", "in_stable3", "on_level_set", "level_residual")),
    *(("quotient." + f, "hkq.quotient", f) for f in (
        "project1", "project3", "orbit_tangent_projection",
        "levelset_tangent_projection", "horizontal_projection")),
    ("quotient.dF_assembly", "hkq.quotient", "_constraint_rows"),
    *(("grassmann." + f, "hkq.grassmann", f) for f in (
        "psi1", "psi3", "graph_operator", "complement_frame",
        "characteristic_angles")),
    *(("potentials." + f, "hkq.potentials", f) for f in (
        "K1_closed", "K1_fiber", "K1_curvature", "quotient_potential",
        "K3_spectral", "K3_similarity", "K3_level", "K3_hat_angles",
        "K3_hat_cotangent", "evaluate_routes")),
    *(("sampling." + f, "hkq.sampling", f) for f in (
        "sample_stable1", "sample_stable3")),
    *(("checks." + s, "hkq.checks", "suite_" + s) for s in SUITES),
    *(("cli." + v, "hkq.cli", "_cmd_" + v) for v in (
        "sample", "project", "potential", "map", "check")),
    ("cli.main", "hkq.cli", "main"),
    *(("lapack." + f, "numpy.linalg", f) for f in (
        "svd", "eigh", "eigvalsh", "eig", "eigvals", "inv", "solve", "qr",
        "slogdet", "det", "lstsq", "pinv", "cholesky")),
]

# jsonio entry points; the byte counts are taken from the file they name
JSONIO_SPANS = [
    *(("jsonio.save", "hkq.jsonio", f, "bytes_written") for f in (
        "save_point", "save_pair", "save_cotangent", "save_matrix")),
    *(("jsonio.load", "hkq.jsonio", f, "bytes_read") for f in (
        "load_point", "load_pair", "load_cotangent", "load_matrix")),
]

# dataclass constructors: counted through __post_init__, which every
# instance runs, so isinstance checks keep seeing the real class
METHOD_SPANS = [
    ("hkspace.ConfigPoint", "hkq.hkspace", "ConfigPoint", "__post_init__"),
    ("hkspace.TangentPair", "hkq.hkspace", "TangentPair", "__post_init__"),
]


class Tracer:
    """Records spans of the calls made while `current_job` is set."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.job = array("l")
        self.start = array("d")
        self.end = array("d")
        self.error = array("b")
        self.counters: dict[str, int] = {"bytes_written": 0, "bytes_read": 0}
        self.current_job = -1
        self.missing: list[str] = []
        self._stack = [-1]
        self._patches: list[tuple] = []

    def __len__(self) -> int:
        return len(self.start)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, counter: str | None = None):
        """Recording wrapper around fn.  With a counter, the size of the
        file named by the first argument is added to it (after a save,
        before a load)."""
        nid = self._name_id(name)
        names, parents, jobs = self.name, self.parent, self.job
        starts, ends, errors, stack = self.start, self.end, self.error, self._stack
        clock = time.perf_counter
        tracer = self
        size_before = counter == "bytes_read"
        size_after = counter == "bytes_written"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            job = tracer.current_job
            if job < 0:
                return fn(*args, **kwargs)
            if size_before:
                tracer.counters[counter] += os.path.getsize(args[0])
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            jobs.append(job)
            errors.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[idx] = 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if size_after:
                tracer.counters[counter] += os.path.getsize(args[0])
            return result

        return traced

    def _rebind(self, original, wrapper, owner) -> None:
        setattr_targets = [owner] + [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "hkq" or key.startswith("hkq."))
        ]
        seen = set()
        for mod in setattr_targets:
            if id(mod) in seen:
                continue
            seen.add(id(mod))
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original, False))
                    setattr(mod, key, wrapper)
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            self._patches.append((value, dkey, original, True))
                            value[dkey] = wrapper

    def install(self) -> None:
        """Wrap every traced name; names the program no longer has are
        listed in `missing` and read as zero."""
        for name, module, attr, *counter in FUNCTION_SPANS + JSONIO_SPANS:
            owner = sys.modules.get(module)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{module}.{attr}")
                self._name_id(name)
                continue
            self._rebind(original, self.wrap(original, name, *counter), owner)
        for name, module, cls_name, attr in METHOD_SPANS:
            cls = getattr(sys.modules.get(module), cls_name, None)
            original = getattr(cls, attr, None) if cls is not None else None
            if original is None:
                self.missing.append(f"{module}.{cls_name}.{attr}")
                self._name_id(name)
                continue
            self._patches.append((cls, attr, original, False))
            setattr(cls, attr, self.wrap(original, name))

    def uninstall(self) -> None:
        for owner, key, original, is_dict in reversed(self._patches):
            if is_dict:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16).astype(np.int64),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "job": np.asarray(self.job, dtype=np.int64),
            "start": np.asarray(self.start, dtype=np.float64),
            "end": np.asarray(self.end, dtype=np.float64),
            "error": np.asarray(self.error, dtype=np.int8),
        }

    def summary(self, job_factor=None) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds, errors.  The
        times of job j are multiplied by job_factor[j] when it is given."""
        a = self.arrays()
        n = len(self.names)
        dur = a["end"] - a["start"]
        own = self_times(a["start"], a["end"], a["parent"])
        if job_factor is not None:
            scale = np.asarray(job_factor)[a["job"]]
            dur, own = dur * scale, own * scale
        calls = np.bincount(a["name"], minlength=n)
        total = np.bincount(a["name"], weights=dur, minlength=n)
        selfs = np.bincount(a["name"], weights=own, minlength=n)
        errs = np.bincount(a["name"], weights=a["error"], minlength=n)
        return {
            nm: {"calls": int(calls[i]), "total_s": float(total[i]),
                 "self_s": float(selfs[i]), "errors": int(errs[i])}
            for i, nm in enumerate(self.names)
        }

    def child_count(self, child: str, parent: str) -> int:
        """Spans named `child` whose direct parent is named `parent`."""
        if child not in self._ids or parent not in self._ids:
            return 0
        a = self.arrays()
        nested = a["parent"] >= 0
        parent_name = np.full(a["name"].size, -1)
        parent_name[nested] = a["name"][a["parent"][nested]]
        return int(np.count_nonzero((a["name"] == self._ids[child])
                                    & (parent_name == self._ids[parent])))

    def top_level_errors(self, prefix: str) -> int:
        """Failed spans under `prefix` not nested in another such span."""
        a = self.arrays()
        ids = [i for i, nm in enumerate(self.names) if nm.startswith(prefix)]
        mine = np.isin(a["name"], ids)
        nested = a["parent"] >= 0
        parent_mine = np.zeros(a["name"].size, dtype=bool)
        parent_mine[nested] = mine[a["parent"][nested]]
        return int(np.count_nonzero(mine & ~parent_mine & (a["error"] == 1)))

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())
