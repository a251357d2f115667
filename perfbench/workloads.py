"""Seeded graph inputs for the strongcolor benchmark.

Each workload builds one graph from the benchmark seed through the
package's own generators and graphs, so the CLI only ever sees the
emitted file. Run as a script, it writes one workload's graph file at
least REPEATS times and for at least SECONDS, and prints the set-up
times as JSON:

    PYTHONPATH=src python3 perfbench/workloads.py WORKLOAD SEED SCALE OUT_FILE REPEATS SECONDS

The benchmark sets up in such a child process so that its own memory
never counts toward the peak RSS it reads for the CLI's processes.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from strongcolor import gen, graphio
from strongcolor.multigraph import MultiGraph

# The two single-graph workloads are fixed at one generator seed each,
# and the benchmark seed only flips the written orientation of edges:
# vertex and edge order, and so the work and the colouring, are the same
# for every seed, which lets colors_used flag a single extra colour.
#
# random_max4: seed 1 gives 16 colours, as 17 of seeds 1-20 do (the
# rest give 15).
MAX4_GRAPH_SEED = 1
# random_4regular cost depends on the generator seed twice over: the
# number of rejected pairings, and how far into vertex order the first
# triangle sits, which the solver's shortest-cycle scan walks up to
# (seeds 1-8 put solve between 0.7 and 4.4 s). At seed 3 the first
# triangle vertex is 3505 of 5e4, next to the expected position
# n / (expected triangle vertices + 1) = 5e4 / 14.5 = 3.4e3, and 27
# pairings are drawn against an expected 43.
REG4_GRAPH_SEED = 3

LOOP = ((0, 0), (0, 1), (0, 2), (1, 2), (1, 2), (1, 2))
DOUBLE = ((0, 1), (0, 1), (1, 2), (1, 2), (2, 3), (2, 3), (3, 0), (3, 0))
K5 = tuple((u, v) for u in range(5) for v in range(u + 1, 5))

# (template, copies at scale 1): K5 is the majority, every strategy occurs.
SMALL_MIX = (
    ("K5", 6000),  # girth3
    ("erdos_nesetril_5", 1500),  # girth4
    ("robertson", 1000),  # girth5
    ("cage_4_6", 500),  # girth6
    ("petersen", 1500),  # low_degree
    ("loop", 750),  # loop
    ("double", 750),  # double_edge
)

ALL_STRATEGIES = frozenset(
    {"low_degree", "loop", "double_edge", "girth3", "girth4", "girth5", "girth6"}
)


def _scaled(count: int, scale: float) -> int:
    return max(1, round(count * scale))


def _flipped(g: MultiGraph, seed: int) -> MultiGraph:
    rng = random.Random(seed)
    return MultiGraph.from_edges(g.vertex_count, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edges])


def max4_1e5(seed: int, scale: float = 1.0) -> MultiGraph:
    spec = gen.GenSpec(kind="random_max4", n=_scaled(100_000, scale), seed=MAX4_GRAPH_SEED)
    return _flipped(gen.generate(spec), seed)


def reg4_g3_5e4(seed: int, scale: float = 1.0) -> MultiGraph:
    spec = gen.GenSpec(kind="random_4regular", n=_scaled(50_000, scale), seed=REG4_GRAPH_SEED, min_girth=3)
    return _flipped(gen.generate(spec), seed)


def _template(name: str) -> tuple[int, list[tuple[int, int]]]:
    if name == "K5":
        return 5, list(K5)
    if name == "loop":
        return 3, list(LOOP)
    if name == "double":
        return 4, list(DOUBLE)
    if name == "erdos_nesetril_5":
        g = gen.generate(gen.GenSpec(kind="erdos_nesetril_5"))
    else:
        g = gen.load_fixture(name)
    return g.vertex_count, list(g.edges)


def small_components(seed: int, scale: float = 1.0) -> MultiGraph:
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []
    n = 0
    for name, copies in SMALL_MIX:
        size, tmpl = _template(name)
        for _ in range(_scaled(copies, scale)):
            edges.extend((u + n, v + n) for u, v in tmpl)
            n += size
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in edges]
    rng.shuffle(edges)
    return MultiGraph.from_edges(n, edges)


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, float], MultiGraph]
    strategies: frozenset  # the exact set of strategies the CLI must report
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "max4_1e5",
            max4_1e5,
            frozenset({"low_degree"}),
            "random_max4 n=1e5: one fused low-degree greedy pass; CSR build, BFS, parse/emit and "
            "verify carry the cost, cycle search never runs",
        ),
        Workload(
            "reg4_g3_5e4",
            reg4_g3_5e4,
            frozenset({"girth3"}),
            "one simple 4-regular component with a triangle: the girth3 path, where the "
            "shortest-cycle search dominates solve",
        ),
        Workload(
            "small_components",
            small_components,
            ALL_STRATEGIES,
            "1.2e4 tiny components of all seven strategies: split path, per-call set-up costs, "
            "finishing stages and hall",
        ),
    )
}


def write_graph(
    workload: Workload, seed: int, scale: float, path: Path, reps: int, seconds: float = 0.0
) -> tuple[list[float], dict, list[str]]:
    """Build the graph and write it with emit_graph, at least `reps`
    times and until `seconds` have passed.

    Returns the set-up time of each good repeat, a record of the graph
    (n, m, file digest), and one problem per repeat that raised or
    produced a file different from the first.
    """
    times: list[float] = []
    record: dict = {}
    problems: list[str] = []
    start = time.perf_counter()
    while len(times) + len(problems) < reps or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        try:
            g = workload.build(seed, scale)
            text = graphio.emit_graph(g)
            path.write_text(text, encoding="ascii")
        except (ValueError, gen.RejectionBudgetExhausted, OSError) as exc:
            problems.append(f"set-up raised {exc!r}")
            continue
        elapsed = time.perf_counter() - t0
        digest = hashlib.sha256(text.encode("ascii")).hexdigest()
        if not record:
            record = {"n": g.vertex_count, "m": g.edge_count, "graph_sha256": digest}
        elif digest != record["graph_sha256"]:
            problems.append("set-up repeats produced different graph files")
            continue
        times.append(elapsed)
    return times, record, problems


if __name__ == "__main__":
    name, seed, scale, out, reps, seconds = sys.argv[1:]
    times, record, problems = write_graph(
        WORKLOADS[name], int(seed), float(scale), Path(out), int(reps), float(seconds)
    )
    print(json.dumps({"times": times, "record": record, "problems": problems}))
