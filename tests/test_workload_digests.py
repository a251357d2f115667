"""The benchmark's three workloads at seed 1, solved in process, against
the digests recorded in perfbench/workloads.json: the input graph, the
emitted colouring and the strategy histogram, and against the report's
check counts recorded below. A change that alters any colouring of the
benchmark's inputs, or drops or doubles a lemma check, shows up here.
The workload builders are imported from perfbench/workloads.py as they
are, never changed."""

import hashlib
import json
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

from strongcolor import emit_coloring, emit_graph, solve

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
RECORDED = json.loads((PERFBENCH / "workloads.json").read_text(encoding="ascii"))

# assertions_checked and checks per lemma label of each workload's solve,
# recorded from the solver before its tails ran in one loop
REPORT_COUNTS = {
    "max4_1e5": (
        350002,
        {
            "greedy.color-ceiling": 175000,
            "greedy.conflict-color-bound": 174995,
            "low-degree.anchor-degree": 2,
            "low-degree.final-neighborhood": 5,
        },
    ),
    "reg4_g3_5e4": (
        200001,
        {
            "girth3.cycle-length": 1,
            "girth3.final-neighborhood": 3,
            "greedy.color-ceiling": 100000,
            "greedy.conflict-color-bound": 99997,
        },
    ),
    "small_components": (
        426750,
        {
            "cycle-context.incident-distinct": 2500,
            "cycle-context.length": 2500,
            "cycle-context.regular-corner": 11000,
            "cycle-context.separation": 4000,
            "cycle-context.two-incident": 11000,
            "double-edge.anchor-parallel": 750,
            "double-edge.final-neighborhood": 3000,
            "double-edge.vertex-shape": 750,
            "girth3.cycle-length": 6000,
            "girth3.final-neighborhood": 18000,
            "girth4.cycle-availability": 6000,
            "girth4.incident-neighborhood": 12000,
            "girth4.no-skew-pairs": 24000,
            "girth5.cycle-availability": 4000,
            "girth5.incident-availability": 7000,
            "girth5.planted-endpoints-distinct": 1000,
            "girth5.planted-pair-free": 1000,
            "girth5.uncolored-count": 1000,
            "girth6.anchor-degree": 500,
            "girth6.distance-two-edge": 2000,
            "girth6.neighbors-distinct": 500,
            "girth6.recolor-independent": 3000,
            "greedy.color-ceiling": 172000,
            "greedy.conflict-color-bound": 124250,
            "loop.anchor-is-loop": 750,
            "loop.final-neighborhood": 2250,
            "low-degree.anchor-degree": 1500,
            "low-degree.final-neighborhood": 4500,
        },
    ),
}


def load_workloads():
    """perfbench/workloads.py as a module, compiled from its source so that
    no bytecode cache is written next to it."""
    path = PERFBENCH / "workloads.py"
    module = types.ModuleType("perfbench_workloads")
    sys.modules[module.__name__] = module  # dataclasses look their module up there
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module.WORKLOADS


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_workload_coloring_digest(name):
    want = RECORDED[name]
    g = load_workloads()[name].build(want["seed"], want["scale"])
    assert sha256(emit_graph(g)) == want["graph_sha256"]
    col, rep = solve(g)
    assert dict(Counter(rep.strategies())) == want["strategies"]
    assert rep.fallback_invocations == want["fallback_invocations"]
    assert sha256(emit_coloring(col)) == want["coloring_sha256"]
    checks, labels = REPORT_COUNTS[name]
    assert rep.assertions_checked == checks
    assert Counter(rep.labels) == Counter(labels)
