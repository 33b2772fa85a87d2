"""The benchmark tracer's span list against the program it traces.

perfbench/bench_trace.py names the hkq functions it wraps.  A name the
program no longer has is read as zero, silently, so a rename strands its
span unseen; perfbench's own tests are not collected by Tier-1.  This test
imports bench_trace without running or changing anything and pins the set
of span targets that hkq lacks: a new stranded name fails here, and a
benchmark change that drops a stale span must shrink KNOWN_STALE with it.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# span targets the tracer names and hkq no longer defines
KNOWN_STALE = {
    "hkq.quotient._constraint_rows",
    "hkq.quotient.orbit_tangent_projection",
    "hkq.quotient.levelset_tangent_projection",
    "hkq.quotient.horizontal_projection",
    "hkq.potentials.K1_fiber",
    "hkq.potentials.K1_curvature",
    "hkq.potentials.K3_similarity",
    "hkq.potentials.K3_level",
    "hkq.matcore.herm_fun",
    "hkq.matcore.svd",
    "hkq.matcore.sym_sylvester_solve",
    "hkq.matcore.null_space_frame",
    "hkq.matcore.orthonormal_range",
    "hkq.grassmann.graph_operator",
    "hkq.jsonio.save_matrix",
    "hkq.jsonio.load_matrix",
}


@pytest.fixture
def bench_trace(monkeypatch):
    """perfbench/bench_trace.py, imported with no bytecode written beside
    it; its sibling modules leave sys.modules again afterwards."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    before = set(sys.modules)
    try:
        yield importlib.import_module("bench_trace")
    finally:
        for name in set(sys.modules) - before:
            if name.startswith("bench_"):
                del sys.modules[name]


def _missing(bench_trace) -> set[str]:
    missing = set()
    for _name, module, attr, *_counter in bench_trace.FUNCTION_SPANS + bench_trace.JSONIO_SPANS:
        if getattr(importlib.import_module(module), attr, None) is None:
            missing.add(f"{module}.{attr}")
    for _name, module, cls_name, attr in bench_trace.METHOD_SPANS:
        cls = getattr(importlib.import_module(module), cls_name, None)
        if getattr(cls, attr, None) is None:
            missing.add(f"{module}.{cls_name}.{attr}")
    return missing


def test_the_stale_span_targets_are_the_known_ones(bench_trace):
    assert _missing(bench_trace) == KNOWN_STALE
