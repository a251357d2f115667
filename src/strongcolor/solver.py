"""Constructive 22-color strong edge-coloring for max degree 4.

Every connected component is dispatched to a strategy keyed on its
structure: a vertex of degree at most 3, a loop, a parallel pair, or (for
simple 4-regular graphs) the girth. Each strategy colors everything far
from a small anchor by a greedy pass over a distance-compatible order,
then finishes the few remaining edges with whatever bookkeeping makes the
counting work. Counting claims are asserted at runtime; any violation is
routed to a backtracking fallback and counted, never ignored.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

from . import metrics
from .coloring import ConflictError, PaletteExhausted, PartialColoring, greedy_color
from .graphio import emit_graph
from .hall import common_color, find_sdr, max_discrepancy_subset
from .metrics import CycleDescriptor
from .multigraph import MultiGraph

PALETTE = 22
FALLBACK_LIMIT = 32

STRATEGIES = (
    "low_degree",
    "loop",
    "double_edge",
    "girth3",
    "girth4",
    "girth5",
    "girth6",
    "fallback_exact",
)


class MaxDegreeExceeded(Exception):
    def __init__(self, vertex: int, degree: int):
        self.vertex = vertex
        self.degree = degree
        super().__init__(f"vertex {vertex} has degree {degree} > 4")


class LemmaAssertionError(Exception):
    """A counting claim failed at runtime; the solver falls back."""


class Unsatisfiable(Exception):
    """Completion failed where the construction guarantees success.

    Carries the serialized graph so the instance can be reproduced.
    """

    def __init__(self, message: str, g: MultiGraph):
        self.graph_text = emit_graph(g)
        super().__init__(f"{message}\n{self.graph_text}")


class Telemetry:
    """Counts every asserted claim and every fallback invocation."""

    __slots__ = ("checks", "fallbacks", "labels")

    def __init__(self):
        self.checks = 0
        self.fallbacks = 0
        self.labels: dict[str, int] = {}

    def check(self, cond: bool, label: str) -> None:
        self.checks += 1
        self.labels[label] = self.labels.get(label, 0) + 1
        if not cond:
            raise LemmaAssertionError(label)


@dataclass
class ComponentReport:
    strategy: str
    edge_count: int
    colors_used: int


@dataclass
class SolveReport:
    components: list[ComponentReport] = field(default_factory=list)
    colors_used: int = 0
    assertions_checked: int = 0
    fallback_invocations: int = 0
    labels: dict[str, int] = field(default_factory=dict)  # checks per lemma label

    def strategies(self) -> list[str]:
        return [c.strategy for c in self.components]


# ---------------------------------------------------------------------------
# guaranteed greedy phases


def color_except_vertex(
    g: MultiGraph, v: int, telemetry: Telemetry | None = None
) -> PartialColoring:
    """Color everything but v's edges, greedy over the order compatible
    with v. Each edge meets at most 20 distinct colors among its colored
    conflicts (all edges one step closer to v are still untouched), so 21
    colors always suffice; both facts are asserted."""
    tel = telemetry if telemetry is not None else Telemetry()
    col = PartialColoring(g, PALETTE)
    skip = set(g.incident_edges(v))
    order = [e for e in metrics.compatible_order(g, v) if e not in skip]
    greedy_color(col, order, telemetry=tel, max_conflict_colors=20, max_color=21)
    return col


def color_except_cycle(
    g: MultiGraph, cycle: CycleDescriptor, telemetry: Telemetry | None = None
) -> PartialColoring:
    """Like color_except_vertex but anchored on a shortest cycle: every
    non-cycle edge still has enough uncolored company (the cycle itself,
    or all edges at the next vertex toward it) to stay within 21 colors."""
    tel = telemetry if telemetry is not None else Telemetry()
    col = PartialColoring(g, PALETTE)
    skip = set(cycle.edges)
    order = [e for e in metrics.compatible_order(g, cycle) if e not in skip]
    greedy_color(col, order, telemetry=tel, max_conflict_colors=20, max_color=21)
    return col


def _greedy_one(col: PartialColoring, e: int, tel: Telemetry, max_color: int = PALETTE) -> None:
    """Least free color for one edge by direct conflict scan; O(1) on
    bounded-degree graphs, unlike a one-element greedy_color call which
    would rebuild its per-vertex masks."""
    if col.is_colored(e):
        raise ValueError(f"edge {e} is already colored")
    colors = col._colors
    used = {colors[f] for f in col.graph.conflict_set(e)}
    c = 1
    while c in used:
        c += 1
    if c > col.palette_size:
        raise PaletteExhausted(e, col.palette_size)
    tel.check(c <= max_color, "greedy.color-ceiling")
    colors[e] = c


# ---------------------------------------------------------------------------
# strategies for components that are not simple 4-regular


def solve_low_degree(g: MultiGraph, v: int, telemetry: Telemetry | None = None) -> PartialColoring:
    """Component with a vertex of degree at most 3: color everything else
    first, then v's edges. Their conflict neighborhoods are capped at
    18/19/20 colored edges respectively, so 21 colors suffice."""
    tel = telemetry if telemetry is not None else Telemetry()
    tel.check(g.degree(v) <= 3, "low-degree.anchor-degree")
    col = color_except_vertex(g, v, tel)
    tail = sorted(set(g.incident_edges(v)))
    bounds = (18, 19, 20)
    for k, e in enumerate(tail):
        tel.check(len(col.colored_conflicts(e)) <= bounds[k], "low-degree.final-neighborhood")
        _greedy_one(col, e, tel, max_color=21)
    return col


def solve_loop(g: MultiGraph, loop_edge: int, telemetry: Telemetry | None = None) -> PartialColoring:
    """4-regular component with a loop: anchor at the loop's vertex, which
    carries at most three distinct edges, and finish there last."""
    tel = telemetry if telemetry is not None else Telemetry()
    tel.check(g.is_loop(loop_edge), "loop.anchor-is-loop")
    v = g.endpoints(loop_edge)[0]
    col = color_except_vertex(g, v, tel)
    vedges = sorted(set(g.incident_edges(v)))
    tail = [e for e in vedges if not g.is_loop(e)] + [e for e in vedges if g.is_loop(e)]
    for e in tail:
        tel.check(len(col.colored_conflicts(e)) <= 20, "loop.final-neighborhood")
        _greedy_one(col, e, tel, max_color=21)
    return col


def solve_double_edge(
    g: MultiGraph, pair: tuple[int, int], telemetry: Telemetry | None = None
) -> PartialColoring:
    """4-regular component with parallel edges: anchor at the smaller
    endpoint. Coloring its other two edges first and the pair last keeps
    the colored neighborhoods at 17/18 then 16/17 edges."""
    tel = telemetry if telemetry is not None else Telemetry()
    p, q = sorted(pair)
    tel.check(
        tuple(sorted(g.endpoints(p))) == tuple(sorted(g.endpoints(q))),
        "double-edge.anchor-parallel",
    )
    v = min(g.endpoints(p))
    col = color_except_vertex(g, v, tel)
    vedges = set(g.incident_edges(v))
    others = sorted(vedges - {p, q})
    tail = others + [p, q]
    tel.check(len(tail) == 4, "double-edge.vertex-shape")
    for bound, e in zip((17, 18, 16, 17), tail):
        tel.check(len(col.colored_conflicts(e)) <= bound, "double-edge.final-neighborhood")
        _greedy_one(col, e, tel, max_color=21)
    return col


def solve_girth3(
    g: MultiGraph, cycle: CycleDescriptor, telemetry: Telemetry | None = None
) -> PartialColoring:
    """Simple 4-regular with a triangle: a triangle edge only has about 20
    conflicting edges to begin with, so finishing the triangle last stays
    within 21 colors."""
    tel = telemetry if telemetry is not None else Telemetry()
    tel.check(len(cycle) == 3, "girth3.cycle-length")
    col = color_except_cycle(g, cycle, tel)
    for k, e in enumerate(sorted(cycle.edges)):
        tel.check(len(col.colored_conflicts(e)) <= 18 + k, "girth3.final-neighborhood")
        _greedy_one(col, e, tel, max_color=21)
    return col


# ---------------------------------------------------------------------------
# short-cycle context labeling (girth 4 and 5)


@dataclass
class CycleContext:
    """1-based labels around a chordless 4- or 5-cycle in a 4-regular
    graph: c[i] is the i-th cycle edge, a[i]/b[i] the two non-cycle edges
    at the corner where c[i-1] meets c[i].

    For 5-cycles the a/b roles are swapped where needed so that the four
    corner pairs (1,3), (3,5), (5,2), (2,4) satisfy: a at the first corner
    and b at the second are conflict-free. Girth 5 guarantees one of the
    two choices works at each corner.
    """

    cycle: CycleDescriptor
    c: dict[int, int]
    a: dict[int, int]
    b: dict[int, int]

    def incident_edges(self) -> list[int]:
        return sorted(list(self.a.values()) + list(self.b.values()))


def label_cycle_context(
    g: MultiGraph, cycle: CycleDescriptor, telemetry: Telemetry | None = None
) -> CycleContext:
    tel = telemetry if telemetry is not None else Telemetry()
    k = len(cycle)
    tel.check(k in (4, 5), "cycle-context.length")
    cset = set(cycle.edges)
    c = {i: cycle.edges[i - 1] for i in range(1, k + 1)}
    a: dict[int, int] = {}
    b: dict[int, int] = {}
    for i in range(1, k + 1):
        vi = cycle.vertices[i - 1]
        tel.check(g.degree(vi) == 4, "cycle-context.regular-corner")
        rest = sorted(set(g.incident_edges(vi)) - cset)
        tel.check(len(rest) == 2, "cycle-context.two-incident")
        a[i], b[i] = rest
    all_incident = list(a.values()) + list(b.values())
    tel.check(len(set(all_incident)) == 2 * k, "cycle-context.incident-distinct")
    if k == 5:
        for s, t in ((1, 3), (3, 5), (5, 2), (2, 4)):
            if b[t] in g.conflict_set(a[s]):
                a[t], b[t] = b[t], a[t]
            tel.check(b[t] not in g.conflict_set(a[s]), "cycle-context.separation")
    return CycleContext(cycle, c, a, b)


# ---------------------------------------------------------------------------
# girth 4


def _free_cross_pair(g: MultiGraph, ctx: CycleContext, i: int, j: int) -> tuple[int, int] | None:
    """First conflict-free pair with one edge at corner i, one at corner j."""
    for p in (ctx.a[i], ctx.b[i]):
        for q in (ctx.a[j], ctx.b[j]):
            if q not in g.conflict_set(p):
                return (p, q)
    return None


def _off_cycle_end(g: MultiGraph, e: int, cyc_verts: set[int]) -> int:
    u, v = g.endpoints(e)
    return v if u in cyc_verts else u


def _joining_edge(g: MultiGraph, p: int, q: int, cyc_verts: set[int]) -> int | None:
    """Edge between the off-cycle endpoints of two incident edges."""
    xp = _off_cycle_end(g, p, cyc_verts)
    xq = _off_cycle_end(g, q, cyc_verts)
    hits = []
    for f in g.incident_edges(xp):
        uu, vv = g.endpoints(f)
        if (uu == xp and vv == xq) or (vv == xp and uu == xq):
            hits.append(f)
    return min(hits) if hits else None


def _girth4_with_diagonals(
    g: MultiGraph, ctx: CycleContext, tel: Telemetry, i: int, j: int
) -> PartialColoring:
    """No two edges of the (i, j) pack can share a color, which forces an
    edge between the far ends of each non-adjacent pack pair. Reserving
    those four diagonals until after the cycle keeps the cycle colorable:
    both stay inside every cycle edge's conflict set while uncolored."""
    cyc_verts = set(ctx.cycle.vertices)
    diagonals = []
    for p in (ctx.a[i], ctx.b[i]):
        for q in (ctx.a[j], ctx.b[j]):
            d = _joining_edge(g, p, q, cyc_verts)
            tel.check(d is not None, "girth4.diagonal-exists")
            diagonals.append(d)
    tel.check(len(set(diagonals)) == 4, "girth4.diagonals-distinct")
    col = PartialColoring(g, PALETTE)
    skip = set(ctx.c.values()) | set(diagonals)
    order = [e for e in metrics.compatible_order(g, ctx.cycle) if e not in skip]
    greedy_color(col, order, telemetry=tel, max_conflict_colors=20, max_color=21)
    for i_ in sorted(ctx.c):
        tel.check(len(col.available_colors(ctx.c[i_])) >= 4, "girth4.cycle-availability")
    for e in sorted(ctx.c.values()):
        _greedy_one(col, e, tel)
    for d in sorted(set(diagonals)):
        tel.check(len(col.colored_conflicts(d)) <= 21, "girth4.diagonal-neighborhood")
        _greedy_one(col, d, tel)
    return col


def _girth4_with_precolor(
    g: MultiGraph, ctx: CycleContext, tel: Telemetry, precolored: list[tuple[int, int]]
) -> PartialColoring:
    """Plant repeated colors on conflict-free incident pairs, color all
    remaining non-cycle edges greedily, then the cycle: each cycle edge
    sees every planted edge, so the repeats leave it at least 4 colors."""
    col = PartialColoring(g, PALETTE)
    for e, color in precolored:
        col.assign(e, color)
    cset = set(ctx.c.values())
    done = {e for e, _ in precolored}
    order = [e for e in metrics.compatible_order(g, ctx.cycle) if e not in cset and e not in done]
    greedy_color(col, order, telemetry=tel, max_conflict_colors=21, max_color=22)
    for i in sorted(ctx.c):
        tel.check(len(col.available_colors(ctx.c[i])) >= 4, "girth4.cycle-availability")
    for e in sorted(cset):
        _greedy_one(col, e, tel)
    return col


def solve_girth4(
    g: MultiGraph, cycle: CycleDescriptor, telemetry: Telemetry | None = None
) -> PartialColoring:
    """Simple 4-regular, shortest cycle of length 4.

    The eight non-cycle edges at the cycle's corners steer the case split:
    pairs of them sharing a far endpoint ("adjacent pairs", only possible
    between opposite corners) shrink the cycle edges' neighborhoods; when
    they are scarce, same-colored planted pairs or reserved diagonal edges
    make up the difference.
    """
    tel = telemetry if telemetry is not None else Telemetry()
    ctx = label_cycle_context(g, cycle, tel)
    cyc_verts = set(cycle.vertices)

    adjacent_pairs = []
    for i, j in ((1, 3), (2, 4)):
        for p in (ctx.a[i], ctx.b[i]):
            for q in (ctx.a[j], ctx.b[j]):
                if (set(g.endpoints(p)) & set(g.endpoints(q))) - cyc_verts:
                    adjacent_pairs.append(((i, j), p, q))
    # sharing with a neighboring corner would be a triangle
    for i, j in ((1, 2), (2, 3), (3, 4), (1, 4)):
        for p in (ctx.a[i], ctx.b[i]):
            for q in (ctx.a[j], ctx.b[j]):
                tel.check(
                    not ((set(g.endpoints(p)) & set(g.endpoints(q))) - cyc_verts),
                    "girth4.no-skew-pairs",
                )

    if len(adjacent_pairs) >= 2:
        col = PartialColoring(g, PALETTE)
        incident = ctx.incident_edges()
        skip = set(ctx.c.values()) | set(incident)
        order = [e for e in metrics.compatible_order(g, cycle) if e not in skip]
        greedy_color(col, order, telemetry=tel, max_conflict_colors=20, max_color=21)
        for e in incident:
            tel.check(len(col.colored_conflicts(e)) <= 20, "girth4.incident-neighborhood")
            _greedy_one(col, e, tel, max_color=21)
        for i in sorted(ctx.c):
            tel.check(len(col.available_colors(ctx.c[i])) >= 4, "girth4.cycle-availability")
        for e in sorted(ctx.c.values()):
            _greedy_one(col, e, tel)
        return col

    if len(adjacent_pairs) == 1:
        taken = adjacent_pairs[0][0]
        i, j = (2, 4) if taken == (1, 3) else (1, 3)
        pair = _free_cross_pair(g, ctx, i, j)
        if pair is not None:
            return _girth4_with_precolor(g, ctx, tel, [(pair[0], 22), (pair[1], 22)])
        return _girth4_with_diagonals(g, ctx, tel, i, j)

    # no adjacent pair at all: plant 21s on one pack and 22s on the other,
    # or fall back to the diagonal reservation on a pack with no free pair
    pair13 = _free_cross_pair(g, ctx, 1, 3)
    pair24 = _free_cross_pair(g, ctx, 2, 4)
    if pair13 is not None and pair24 is not None:
        plants = [(pair13[0], 21), (pair13[1], 21), (pair24[0], 22), (pair24[1], 22)]
        return _girth4_with_precolor(g, ctx, tel, plants)
    if pair13 is None:
        return _girth4_with_diagonals(g, ctx, tel, 1, 3)
    return _girth4_with_diagonals(g, ctx, tel, 2, 4)


# ---------------------------------------------------------------------------
# girth 5


def solve_girth5(
    g: MultiGraph, cycle: CycleDescriptor, telemetry: Telemetry | None = None
) -> PartialColoring:
    """Simple 4-regular, shortest cycle of length 5.

    Two conflict-free pairs get planted colors (21 on b1 and the opposite
    cycle edge c3, 22 on a5 and b2), everything off the cycle's corners is
    colored greedily, and the remaining 11 edges are finished through a
    distinct-representative argument on their availability sets.
    """
    tel = telemetry if telemetry is not None else Telemetry()
    ctx = label_cycle_context(g, cycle, tel)
    tel.check(ctx.c[3] not in g.conflict_set(ctx.b[1]), "girth5.planted-pair-free")
    planted = (ctx.b[1], ctx.c[3], ctx.a[5], ctx.b[2])
    ends = {w for e in planted for w in g.endpoints(e)}
    tel.check(len(ends) == 8, "girth5.planted-endpoints-distinct")
    col = PartialColoring(g, PALETTE)
    col.assign(ctx.b[1], 21)
    col.assign(ctx.c[3], 21)
    col.assign(ctx.a[5], 22)
    col.assign(ctx.b[2], 22)
    skip = set(ctx.c.values()) | set(ctx.incident_edges())
    order = [e for e in metrics.compatible_order(g, cycle) if e not in skip]
    greedy_color(col, order, telemetry=tel, max_conflict_colors=21, max_color=22)
    return _complete_girth5(g, ctx, col, tel)


def _complete_girth5(
    g: MultiGraph, ctx: CycleContext, col: PartialColoring, tel: Telemetry
) -> PartialColoring:
    """Finish the 11 uncolored edges around the 5-cycle.

    Availability is rich (>= 8 on cycle edges, >= 5 on incident edges,
    checked here). If the sets admit distinct representatives we are done;
    otherwise the subfamily of maximum discrepancy pins down which planted
    repeat rescues the completion.
    """
    cset = set(ctx.c.values())
    incident = ctx.incident_edges()
    uncolored = [e for e in sorted(cset | set(incident)) if not col.is_colored(e)]
    tel.check(len(uncolored) == 11, "girth5.uncolored-count")
    fam = {e: frozenset(col.available_colors(e)) for e in uncolored}
    for e in uncolored:
        if e in cset:
            tel.check(len(fam[e]) >= 8, "girth5.cycle-availability")
        else:
            tel.check(len(fam[e]) >= 5, "girth5.incident-availability")

    sdr = find_sdr(fam)
    if sdr is not None:
        for e in uncolored:
            col.assign(e, sdr[e])
        return col

    res = max_discrepancy_subset(fam)
    tel.check(res.disc > 0, "girth5.discrepancy-positive")
    subset = res.subset

    if not (subset & cset):
        # purely incident edges: each still sees >= 3 uncolored cycle
        # edges, so a straight greedy pass works, and coloring a maximum
        # discrepancy subfamily first makes the rest extendable
        for e in sorted(subset):
            tel.check(len(col.colored_conflicts(e)) <= 21, "girth5.subset-neighborhood")
            _greedy_one(col, e, tel)
        rest = [e for e in uncolored if not col.is_colored(e)]
        fam2 = {e: frozenset(col.available_colors(e)) for e in rest}
        sdr2 = find_sdr(fam2)
        tel.check(sdr2 is not None, "girth5.extension")
        for e in rest:
            col.assign(e, sdr2[e])
        return col

    tel.check(len(subset) in (9, 10, 11), "girth5.subset-size")
    pairs = [
        (ctx.a[1], ctx.b[3]),
        (ctx.a[2], ctx.b[4]),
        (ctx.a[3], ctx.b[5]),
    ]
    contained = [p for p in pairs if p[0] in subset and p[1] in subset]
    if len(subset) < 11:
        tel.check(bool(contained), "girth5.pair-containment")
    chosen = None
    for p, q in contained:
        x = common_color(fam, p, q)
        if x is not None:
            chosen = ((p, q), x)
            break
    if len(subset) < 11:
        tel.check(chosen is not None, "girth5.pair-common-color")

    if chosen is not None:
        (p, q), x = chosen
        col.assign(p, x)
        col.assign(q, x)
        for e in incident:
            if col.is_colored(e):
                continue
            tel.check(len(col.colored_conflicts(e)) <= 21, "girth5.incident-neighborhood")
            _greedy_one(col, e, tel)
        if (p, q) == pairs[1]:
            tail = [ctx.c[2], ctx.c[4], ctx.c[1], ctx.c[5]]
        else:
            tail = [ctx.c[2], ctx.c[4], ctx.c[5], ctx.c[1]]
        for e in tail:
            _greedy_one(col, e, tel)
        return col

    # |subset| == 11 and no pair shares a color: the availability sets of
    # each pair partition the whole union, so a color shared by c1 and a4
    # hits exactly one edge of every pair
    c1, a4 = ctx.c[1], ctx.a[4]
    shared = set(fam[c1]) & set(fam[a4])
    tel.check(bool(shared), "girth5.crossing-color")
    x = min(shared)
    col.assign(c1, x)
    col.assign(a4, x)
    first_wave = []
    for p, q in pairs:
        holders = [e for e in (p, q) if x in fam[e]]
        tel.check(len(holders) == 1, "girth5.unique-crossing")
        first_wave.append(holders[0])
    for e in first_wave:
        tel.check(x not in col.available_colors(e), "girth5.crossing-blocked")
        _greedy_one(col, e, tel)
    second = [e for p in pairs for e in p if not col.is_colored(e)]
    # the >= 3 bound is a pre-stage guarantee; coloring one second-wave
    # edge may shrink another's set, so check all three up front
    for e in second:
        tel.check(len(col.available_colors(e)) >= 3, "girth5.second-wave-availability")
    for e in second:
        _greedy_one(col, e, tel)
    for e in (ctx.c[2], ctx.c[4], ctx.c[5]):
        _greedy_one(col, e, tel)
    return col


# ---------------------------------------------------------------------------
# girth 6 and beyond


def solve_girth6(
    g: MultiGraph, telemetry: Telemetry | None = None, anchor_vertex: int | None = None
) -> PartialColoring:
    """Simple 4-regular with girth at least 6: color everything except one
    vertex's edges, then recolor one edge per neighbor (heading to a
    distance-2 vertex) with the single color 22 -- the girth makes those
    four pairwise conflict-free -- and finish the anchor's edges greedily
    against the freed-up palette."""
    tel = telemetry if telemetry is not None else Telemetry()
    if anchor_vertex is not None:
        v = anchor_vertex
    else:
        v = next((w for w in range(g.vertex_count) if g.degree(w) > 0), 0)
    col = color_except_vertex(g, v, tel)
    dist = metrics.bfs_distances(g, v)
    vedges = sorted(set(g.incident_edges(v)))
    tel.check(len(vedges) == 4, "girth6.anchor-degree")
    neighbors = sorted({w for e in vedges for w in g.endpoints(e) if w != v})
    tel.check(len(neighbors) == 4, "girth6.neighbors-distinct")
    recolored = []
    for u in neighbors:
        cands = []
        for f in sorted(set(g.incident_edges(u))):
            if f in vedges:
                continue
            uu, vv = g.endpoints(f)
            w = vv if uu == u else uu
            if dist[w] == 2:
                cands.append(f)
        tel.check(bool(cands), "girth6.distance-two-edge")
        recolored.append(min(cands))
    for idx, e in enumerate(recolored):
        for f in recolored[:idx]:
            tel.check(f not in g.conflict_set(e), "girth6.recolor-independent")
    for e in recolored:
        col.unassign(e)
    for e in recolored:
        col.assign(e, 22)
    for e in vedges:
        _greedy_one(col, e, tel)
    return col


# ---------------------------------------------------------------------------
# fallback and dispatch


def fallback_exact(g: MultiGraph, col: PartialColoring, uncolored) -> PartialColoring:
    """Complete a valid partial coloring by backtracking within 22 colors.

    Most-constrained-first search over at most FALLBACK_LIMIT edges. This
    is the safety net behind the runtime assertions; it raises
    Unsatisfiable (with the serialized graph) rather than give up quietly.
    """
    todo = sorted(set(uncolored))
    if len(todo) > FALLBACK_LIMIT:
        raise ValueError(f"fallback limited to {FALLBACK_LIMIT} edges, got {len(todo)}")
    for e in todo:
        if col.is_colored(e):
            raise ValueError(f"edge {e} passed as uncolored but has a color")
    work = col.copy()

    def attempt(pending: list[int]) -> bool:
        if not pending:
            return True
        ranked = sorted(pending, key=lambda e: (len(work.available_colors(e)), e))
        e = ranked[0]
        rest = [f for f in pending if f != e]
        for c in sorted(work.available_colors(e)):
            work._set_unchecked(e, c)
            if attempt(rest):
                return True
            work._set_unchecked(e, 0)
        return False

    if attempt(todo):
        return work
    raise Unsatisfiable(f"backtracking completion failed on {len(todo)} edges", g)


def _plan_component(g: MultiGraph):
    """Pick (strategy, run, rescue_anchor, rescue_skip).

    The graph must have all its edges in one connected component;
    isolated vertices are tolerated and never chosen as anchors.
    """
    low = next((v for v in range(g.vertex_count) if 0 < g.degree(v) <= 3), None)
    if low is not None:
        v = low
        return (
            "low_degree",
            lambda tel: solve_low_degree(g, v, tel),
            v,
            set(g.incident_edges(v)),
        )
    cycle = metrics.find_shortest_cycle(g)  # a loop, else a parallel pair, else girth
    if cycle is None:
        raise AssertionError("4-regular component without a cycle")
    k = len(cycle)
    if k == 1:
        (loop,), (v,) = cycle.edges, cycle.vertices
        return ("loop", lambda tel: solve_loop(g, loop, tel), v, set(g.incident_edges(v)))
    if k == 2:
        v = min(cycle.vertices)
        return (
            "double_edge",
            lambda tel: solve_double_edge(g, cycle.edges, tel),
            v,
            set(g.incident_edges(v)),
        )
    if k == 3:
        return ("girth3", lambda tel: solve_girth3(g, cycle, tel), cycle, set(cycle.edges))
    if k in (4, 5):
        skip = set(cycle.edges)
        for v in cycle.vertices:
            skip.update(g.incident_edges(v))
        name = "girth4" if k == 4 else "girth5"
        fn = solve_girth4 if k == 4 else solve_girth5
        return (name, lambda tel: fn(g, cycle, tel), cycle, skip)
    v6 = next(w for w in range(g.vertex_count) if g.degree(w) > 0)
    return (
        "girth6",
        lambda tel: solve_girth6(g, tel, anchor_vertex=v6),
        v6,
        set(g.incident_edges(v6)),
    )


def _rescue_component(g: MultiGraph, tel: Telemetry, anchor, skip: set[int]) -> PartialColoring:
    """Re-run the guaranteed greedy phase and backtrack over the rest."""
    tel.fallbacks += 1
    col = PartialColoring(g, PALETTE)
    order = [e for e in metrics.compatible_order(g, anchor) if e not in skip]
    try:
        greedy_color(col, order)
    except PaletteExhausted:
        raise Unsatisfiable("guaranteed greedy phase ran out of colors", g)
    return fallback_exact(g, col, skip)


def _label_components(g: MultiGraph) -> tuple[list[int], int]:
    """Vertex component ids, numbered 0.. by ascending smallest member."""
    _, _, nbr_flat, nbr_off = g.flat_arrays()
    comp = [-1] * g.vertex_count
    k = 0
    stack: list[int] = []
    for s in range(g.vertex_count):
        if comp[s] != -1:
            continue
        comp[s] = k
        stack.append(s)
        while stack:
            x = stack.pop()
            for y in nbr_flat[nbr_off[x] : nbr_off[x + 1]]:
                if comp[y] == -1:
                    comp[y] = k
                    stack.append(y)
        k += 1
    return comp, k


def _component_anchors(g: MultiGraph, comp: list[int], k: int) -> list[int | None]:
    """Smallest vertex of degree 1..3 in each component that has edges.

    One entry per edge-bearing component in component order; None marks a
    4-regular component, which needs the structural strategies instead.
    """
    _, _, _, nbr_off = g.flat_arrays()
    anchor = [-1] * k
    has_edges = [False] * k
    for v in range(g.vertex_count):
        d = nbr_off[v + 1] - nbr_off[v]
        if d == 0:
            continue
        c = comp[v]
        has_edges[c] = True
        if d <= 3 and anchor[c] == -1:
            anchor[c] = v
    return [None if anchor[c] == -1 else anchor[c] for c in range(k) if has_edges[c]]


def _solve_fused_low_degree(
    g: MultiGraph, tel: Telemetry, comp: list[int], anchors: list[int], report: SolveReport
) -> PartialColoring:
    """Low-degree strategy over all components at once.

    A BFS from every anchor simultaneously gives each vertex its distance
    to its own component's anchor, so one greedy pass over the combined
    order behaves exactly like the per-component passes; conflicts never
    cross components. This avoids extracting subgraphs, which dominates
    the cost on large inputs with a few stray small components.
    """
    for v in anchors:
        tel.check(g.degree(v) <= 3, "low-degree.anchor-degree")
    col = PartialColoring(g, PALETTE)
    skip: set[int] = set()
    for v in anchors:
        skip.update(g.incident_edges(v))
    dist = metrics.bfs_from_sources(g, anchors)
    order = [e for e in metrics.order_by_distance(g, dist) if e not in skip]
    greedy_color(col, order, telemetry=tel, max_conflict_colors=20, max_color=21)
    bounds = (18, 19, 20)
    for v in anchors:
        tail = sorted(set(g.incident_edges(v)))
        for i, e in enumerate(tail):
            tel.check(len(col.colored_conflicts(e)) <= bounds[i], "low-degree.final-neighborhood")
            _greedy_one(col, e, tel, max_color=21)
    if len(anchors) == 1:
        report.components.append(
            ComponentReport(
                strategy="low_degree", edge_count=g.edge_count, colors_used=col.colors_used()
            )
        )
        return col
    eu = g.eu
    ncomp = max(comp) + 1
    counts = array("i", bytes(4 * ncomp))
    masks = array("q", bytes(8 * ncomp))
    colors = col._colors
    for e in range(g.edge_count):
        c = comp[eu[e]]
        counts[c] += 1
        masks[c] |= 1 << colors[e]
    for c in range(ncomp):
        if counts[c]:
            report.components.append(
                ComponentReport(
                    strategy="low_degree",
                    edge_count=counts[c],
                    colors_used=masks[c].bit_count(),
                )
            )
    return col


def _edge_components(g: MultiGraph):
    """(subgraph, edge id map) per connected component that has edges."""
    cid, k = _label_components(g)
    sizes = [0] * k
    vlocal = [0] * g.vertex_count
    for v in range(g.vertex_count):
        vlocal[v] = sizes[cid[v]]
        sizes[cid[v]] += 1
    buckets: list[list[int]] = [[] for _ in range(k)]
    for e, u in enumerate(g.eu):
        buckets[cid[u]].append(e)
    eu = array("i", map(vlocal.__getitem__, g.eu))
    ev = array("i", map(vlocal.__getitem__, g.ev))
    out = []
    for idx in range(k):
        emap = buckets[idx]
        if emap:
            sub_eu = array("i", map(eu.__getitem__, emap))
            sub_ev = array("i", map(ev.__getitem__, emap))
            out.append((MultiGraph.from_arrays(sizes[idx], sub_eu, sub_ev), emap))
    return out


def _run_with_rescue(g: MultiGraph, tel: Telemetry) -> tuple[str, PartialColoring]:
    strategy, run, anchor, skip = _plan_component(g)
    try:
        return strategy, run(tel)
    except (PaletteExhausted, LemmaAssertionError, ConflictError):
        return "fallback_exact", _rescue_component(g, tel, anchor, skip)


def _solve_split(g: MultiGraph, tel: Telemetry, report: SolveReport) -> PartialColoring:
    """Extract each edge-bearing component and solve it on its own."""
    final = PartialColoring(g, PALETTE)
    for sub, emap in _edge_components(g):
        strategy, subcol = _run_with_rescue(sub, tel)
        for le, ge in enumerate(emap):
            final._set_unchecked(ge, subcol._colors[le])
        report.components.append(
            ComponentReport(
                strategy=strategy, edge_count=sub.edge_count, colors_used=subcol.colors_used()
            )
        )
    return final


def solve(g: MultiGraph) -> tuple[PartialColoring, SolveReport]:
    """Strong edge-coloring with at most 22 colors.

    Components are handled independently; the report lists the strategy
    used for each (components without edges are skipped), the assertions
    exercised, per label and in total, and how often the backtracking
    fallback fired (expected 0). The input graph is frozen first.
    """
    g.freeze()
    if g.max_degree() > 4:
        v = next(v for v in range(g.vertex_count) if g.degree(v) > 4)
        raise MaxDegreeExceeded(v, g.degree(v))
    tel = Telemetry()
    report = SolveReport()
    if g.edge_count == 0:
        final = PartialColoring(g, PALETTE)
    else:
        comp, k = _label_components(g)
        anchors = _component_anchors(g, comp, k)
        if all(a is not None for a in anchors):
            try:
                final = _solve_fused_low_degree(g, tel, comp, anchors, report)
            except (PaletteExhausted, LemmaAssertionError, ConflictError):
                # per-component retry reproduces the failure in isolation
                # and rescues just that component
                report.components.clear()
                final = _solve_split(g, tel, report)
        elif len(anchors) == 1:
            strategy, final = _run_with_rescue(g, tel)
            report.components.append(
                ComponentReport(
                    strategy=strategy, edge_count=g.edge_count, colors_used=final.colors_used()
                )
            )
        else:
            final = _solve_split(g, tel, report)
        report.colors_used = final.colors_used()
    report.assertions_checked = tel.checks
    report.fallback_invocations = tel.fallbacks
    report.labels = dict(tel.labels)
    return final, report
