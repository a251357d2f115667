"""Golden run: one fixed, shuffled graph with a component of every
strategy, solved and printed through the CLI. The constants below were
recorded from the solver before its per-component paths were merged into
one pass; a change that alters any colouring, component line or check
count shows up here."""

import hashlib
import random

from strongcolor import emit_coloring, emit_graph, load_fixture, random_max4, solve
from strongcolor.cli import main
from strongcolor.gen import erdos_nesetril_5
from strongcolor.multigraph import MultiGraph

LOOP = ((0, 0), (0, 1), (0, 2), (1, 2), (1, 2), (1, 2))
DOUBLE = ((0, 1), (0, 1), (1, 2), (1, 2), (2, 3), (2, 3), (3, 0), (3, 0))
K5 = tuple((u, v) for u in range(5) for v in range(u + 1, 5))


def golden_graph() -> MultiGraph:
    parts = [
        (5, K5),
        (10, erdos_nesetril_5().edges),
        (10, load_fixture("petersen").edges),
        (19, load_fixture("robertson").edges),
        (26, load_fixture("cage_4_6").edges),
        (3, LOOP),
        (4, DOUBLE),
        (300, random_max4(300, seed=4).edges),
        (2, ()),  # isolated vertices
    ]
    edges = []
    n = 0
    for size, tmpl in parts:
        edges.extend((u + n, v + n) for u, v in tmpl)
        n += size
    rng = random.Random(5)
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in edges]
    rng.shuffle(edges)
    return MultiGraph.from_edges(n, edges)


COLORING_SHA256 = "e15fe5933ff76efe96b0b0d9c47f19071479261a68048d8197524f2e691100d1"
COMPONENT_LINES = [
    "component 1: strategy=low_degree edges=525 colors=13",
    "component 2: strategy=low_degree edges=15 colors=5",
    "component 3: strategy=girth5 edges=38 colors=16",
    "component 4: strategy=girth6 edges=52 colors=13",
    "component 5: strategy=girth4 edges=20 colors=20",
    "component 6: strategy=girth3 edges=10 colors=10",
    "component 7: strategy=double_edge edges=8 colors=8",
    "component 8: strategy=loop edges=6 colors=6",
]
ASSERTIONS_CHECKED = 1388
LABELS = {
    "cycle-context.incident-distinct": 2,
    "cycle-context.length": 2,
    "cycle-context.regular-corner": 9,
    "cycle-context.separation": 4,
    "cycle-context.two-incident": 9,
    "double-edge.anchor-parallel": 1,
    "double-edge.final-neighborhood": 4,
    "double-edge.vertex-shape": 1,
    "girth3.cycle-length": 1,
    "girth3.final-neighborhood": 3,
    "girth4.cycle-availability": 4,
    "girth4.incident-neighborhood": 8,
    "girth4.no-skew-pairs": 16,
    "girth5.cycle-availability": 4,
    "girth5.incident-availability": 7,
    "girth5.planted-endpoints-distinct": 1,
    "girth5.planted-pair-free": 1,
    "girth5.uncolored-count": 1,
    "girth6.anchor-degree": 1,
    "girth6.distance-two-edge": 4,
    "girth6.neighbors-distinct": 1,
    "girth6.recolor-independent": 6,
    "greedy.color-ceiling": 659,
    "greedy.conflict-color-bound": 627,
    "loop.anchor-is-loop": 1,
    "loop.final-neighborhood": 3,
    "low-degree.anchor-degree": 2,
    "low-degree.final-neighborhood": 6,
}


def test_golden_solve():
    col, report = solve(golden_graph())
    assert hashlib.sha256(emit_coloring(col).encode("ascii")).hexdigest() == COLORING_SHA256
    assert report.assertions_checked == ASSERTIONS_CHECKED
    assert report.labels == LABELS
    assert report.fallback_invocations == 0


def test_golden_cli_component_lines(tmp_path, capsys):
    path = tmp_path / "golden.sec"
    path.write_text(emit_graph(golden_graph()), encoding="ascii")
    assert main(["color", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln for ln in lines if ln.startswith("component ")] == COMPONENT_LINES
