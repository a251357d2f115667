"""Outside-in tracing of the strongcolor modules.

Wrappers are installed where the caller looks a name up: `solver` binds
greedy_color, find_sdr, max_discrepancy_subset and common_color with
`from ... import`, so those are patched on strongcolor.solver; `metrics`
functions are looked up through the module; MultiGraph and
PartialColoring methods are patched on the class. Nothing inside the
package changes.

A span is (name, start, end, parent index, run id), kept in memory and
written out by `write_spans`. The hot leaf methods (conflict_set,
colored_conflicts, available_colors) are only counted. `oracle` is on
no path the benchmark measures and is not wrapped; the `cli` layer is
measured by run.py as the time a process takes to import it.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

from strongcolor import coloring, gen, graphio, metrics, solver
from strongcolor.coloring import PartialColoring
from strongcolor.multigraph import MultiGraph

FINISH = (
    "solve_low_degree",
    "solve_loop",
    "solve_double_edge",
    "solve_girth3",
    "solve_girth4",
    "solve_girth5",
    "solve_girth6",
    "label_cycle_context",
    "color_except_vertex",
    "color_except_cycle",
)

# (owner, attribute, span name); the span name's first part is the layer
SPANS = (
    [
        (graphio, "parse_graph", "graphio.parse_graph"),
        (graphio, "emit_graph", "graphio.emit_graph"),
        (graphio, "parse_coloring", "graphio.parse_coloring"),
        (graphio, "emit_coloring", "graphio.emit_coloring"),
        (gen, "generate", "gen.generate"),
        (gen, "load_fixture", "gen.load_fixture"),
        (MultiGraph, "flat_arrays", "multigraph.flat_arrays"),
        (MultiGraph, "find_loop", "multigraph.scan"),
        (MultiGraph, "find_parallel_pair", "multigraph.scan"),
        (metrics, "bfs_from_sources", "metrics.bfs"),
        (metrics, "bfs_distances", "metrics.bfs_distances"),
        (metrics, "order_by_distance", "metrics.order_by_distance"),
        (metrics, "compatible_order", "metrics.compatible_order"),
        (metrics, "find_shortest_cycle", "metrics.find_shortest_cycle"),
        (coloring, "verify", "coloring.verify"),
        (PartialColoring, "is_total", "coloring.is_total"),
        (solver, "greedy_color", "coloring.greedy_color"),
        (solver, "find_sdr", "hall.find_sdr"),
        (solver, "max_discrepancy_subset", "hall.max_discrepancy_subset"),
        (solver, "common_color", "hall.common_color"),
        (solver, "solve", "solver.solve"),
        (solver, "fallback_exact", "solver.fallback_exact"),
    ]
    + [(solver, name, "solver.finish." + name) for name in FINISH]
)

COUNTS = [
    (MultiGraph, "conflict_set", "multigraph.conflict_set"),
    (PartialColoring, "colored_conflicts", "coloring.conflict_queries"),
    (PartialColoring, "available_colors", "coloring.conflict_queries"),
]

# layers each command's spans touch, for the per-command self times
COMMAND_LAYERS = {
    "color": ("graphio", "multigraph", "metrics", "coloring", "hall", "solver"),
    "verify": ("graphio", "coloring"),
    "gen": ("gen",),
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(int)  # (run, name) -> count
        self.run = ""
        self._stack: list[int] = []

    def _span(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.run)

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[self.run, name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _greedy(self, fn):
        counts = self.counts

        def wrapper(col, order, **kwargs):
            counts[self.run, "coloring.greedy_color.edges"] += len(order)
            return fn(col, order, **kwargs)

        return self._span("coloring.greedy_color", wrapper)

    @contextmanager
    def installed(self):
        """Patch every wrapper in, and restore the originals on exit."""
        saved = []
        try:
            for owner, attr, name in SPANS + COUNTS:
                orig = owner.__dict__.get(attr)
                if orig is None:  # gone from the package: its metrics read 0
                    continue
                saved.append((owner, attr, orig))
                if name == "coloring.greedy_color":
                    wrapped = self._greedy(orig)
                elif (owner, attr, name) in COUNTS:
                    wrapped = self._count(name, orig)
                else:
                    wrapped = self._span(name, orig)
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("name,start,end,parent,run\n")
            for name, t0, t1, parent, run in self.spans:
                fh.write(f"{name},{t0:.9f},{t1:.9f},{parent},{run}\n")

    def summary(self, runs) -> dict:
        """Per span name: total seconds, self seconds and calls, over the
        spans of the given run ids; self time is the duration minus the
        time covered by child spans."""
        covered = [0.0] * len(self.spans)
        for name, t0, t1, parent, run in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        out: dict = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
        for idx, (name, t0, t1, parent, run) in enumerate(self.spans):
            if run not in runs:
                continue
            agg = out[name]
            agg["s"] += t1 - t0
            agg["self_s"] += t1 - t0 - covered[idx]
            agg["calls"] += 1
        return out

    def count(self, runs, name: str) -> int:
        return sum(self.counts[run, name] for run in runs)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced color + verify pass, plus the
    traced generation step (run id "gen")."""
    path = ("color", "verify")
    s = tracer.summary(path)
    out: dict[str, float] = {}

    def span(name, key):
        return s[name][key] if name in s else (0.0 if key != "calls" else 0)

    for name in (
        "coloring.greedy_color",
        "multigraph.flat_arrays",
        "metrics.bfs",
        "metrics.find_shortest_cycle",
        "multigraph.scan",
        "hall.find_sdr",
    ):
        out[name + ".s"] = span(name, "s")
        out[name + ".calls"] = span(name, "calls")
    out["coloring.greedy_color.edges"] = tracer.count(path, "coloring.greedy_color.edges")
    out["metrics.order_by_distance.s"] = span("metrics.order_by_distance", "s")
    out["solver.solve.s"] = span("solver.solve", "s")
    out["solver.solve.self_s"] = span("solver.solve", "self_s")
    out["solver.finish.self_s"] = sum((v["self_s"] for k, v in s.items() if k.startswith("solver.finish.")), 0.0)
    out["coloring.conflict_queries"] = tracer.count(path, "coloring.conflict_queries")
    out["hall.max_discrepancy_subset.calls"] = span("hall.max_discrepancy_subset", "calls")
    out["coloring.verify.s"] = span("coloring.verify", "s")
    out["multigraph.conflict_set.calls"] = tracer.count(path, "multigraph.conflict_set")
    out["graphio.parse_coloring.s"] = span("graphio.parse_coloring", "s")
    out["graphio.parse_graph.s"] = span("graphio.parse_graph", "s")
    out["graphio.emit_coloring.s"] = span("graphio.emit_coloring", "s")
    g = tracer.summary(("gen",))
    out["gen.generate.s"] = sum((v["s"] for k, v in g.items() if k.startswith("gen.")), 0.0)
    for run, layers in COMMAND_LAYERS.items():
        by_name = tracer.summary((run,))
        for layer in layers:
            key = layer + ".self_s" if run == "gen" else f"{run}.{layer}.self_s"
            out[key] = sum((v["self_s"] for k, v in by_name.items() if k.split(".")[0] == layer), 0.0)
    return out
