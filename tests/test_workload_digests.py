"""The benchmark's three workloads at seed 1, solved in process, against
the digests recorded in perfbench/workloads.json: the input graph, the
emitted colouring and the strategy histogram. A change that alters any
colouring of the benchmark's inputs shows up here. The workload builders
are imported from perfbench/workloads.py as they are, never changed."""

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
