"""Constructive 22-color strong edge-coloring for max degree 4.

Every connected component gets a strategy keyed on its structure: a
vertex of degree at most 3, a loop, a parallel pair, or (for simple
4-regular components) the girth. A strategy colors everything far from a
small anchor by a greedy pass over a distance-compatible order, then
finishes the few held-back edges with whatever bookkeeping makes the
counting work. `solve` runs all components in one pass over the whole
graph: each strategy returns a Plan (held-back edges, planted colors,
greedy bounds, finish), and one BFS, one edge order and one greedy call
per bound class serve every component; the finishes call greedy_color
too. Counting claims are asserted at runtime; a component whose claim
fails is recolored by a backtracking fallback and counted, never ignored.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import partial, reduce
from itertools import compress
from operator import or_
from typing import Callable, Sequence

from . import metrics
from .coloring import ConflictError, PaletteExhausted, PartialColoring, greedy_color
from .graphio import emit_graph
from .hall import common_color, find_sdr, max_discrepancy_subset
from .metrics import Anchor, CycleDescriptor
from .multigraph import MultiGraph

PALETTE = 22
FALLBACK_LIMIT = 32
# (distinct colors among an edge's colored conflicts, color) that a
# greedy pass checks on every edge. Along a distance-compatible order the
# edges one step closer to the anchor are still uncolored, so an edge
# meets at most 20 distinct colors and 21 suffice; strategies with
# planted repeats take one more of each.
BOUND_CLASSES = ((20, 21), (21, 22))


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


@dataclass(slots=True)
class ComponentReport:
    strategy: str
    edge_count: int
    colors_used: int
    failure: str | None = None  # failing lemma label (or exception name) of a rescue


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
# the part of one component in the shared pass


@dataclass(slots=True)
class Plan:
    """What a strategy asks of the shared pass over its component.

    The pass colors `plants` first, then every other edge of the
    component except `held`, greedily along the distance order from the
    anchor and checking `bounds` (distinct colors among an edge's colored
    conflicts, and its color) on each; `finish(col, dist)` then colors the
    held-back edges, given the BFS distances to the anchor.
    """

    held: Sequence[int]
    finish: Callable[[PartialColoring, list[int]], None]
    plants: Sequence[tuple[int, int]] = ()
    bounds: tuple[int, int] = (20, 21)


# ---------------------------------------------------------------------------
# strategies for components that are not simple 4-regular, and girth 3


def _finish_tail(
    tail: list[int],
    bounds: tuple[int, ...],
    label: str,
    tel: Telemetry,
    col: PartialColoring,
    dist: list[int] | None = None,
    ceiling: int = 21,
) -> None:
    """Color the held-back `tail` last, in order, each edge within
    `ceiling` colors once the lemma `label` caps its colored conflicting
    edges at its bound. Plans bind the first four arguments with partial,
    which keeps a plan small when every component holds one at once."""
    for bound, e in zip(bounds, tail):
        tel.check(len(col.colored_conflicts(e)) <= bound, label)
        greedy_color(col, [e], telemetry=tel, max_color=ceiling)


def solve_low_degree(g: MultiGraph, v: int, tel: Telemetry) -> Plan:
    """Component with a vertex of degree at most 3: color everything else
    first, then v's edges. Their conflict neighborhoods are capped at
    18/19/20 colored edges respectively, so 21 colors suffice."""
    tel.check(g.degree(v) <= 3, "low-degree.anchor-degree")
    tail = sorted(set(g.incident_edges(v)))
    return Plan(tail, partial(_finish_tail, tail, (18, 19, 20), "low-degree.final-neighborhood", tel))


def solve_loop(g: MultiGraph, loop_edge: int, tel: Telemetry) -> Plan:
    """4-regular component with a loop: anchor at the loop's vertex, which
    carries at most three distinct edges, and finish there last."""
    tel.check(g.is_loop(loop_edge), "loop.anchor-is-loop")
    v = g.endpoints(loop_edge)[0]
    vedges = sorted(set(g.incident_edges(v)))
    tail = [e for e in vedges if not g.is_loop(e)] + [e for e in vedges if g.is_loop(e)]
    return Plan(tail, partial(_finish_tail, tail, (20, 20, 20), "loop.final-neighborhood", tel))


def solve_double_edge(g: MultiGraph, pair: tuple[int, int], tel: Telemetry) -> Plan:
    """4-regular component with parallel edges: anchor at the smaller
    endpoint. Coloring its other two edges first and the pair last keeps
    the colored neighborhoods at 17/18 then 16/17 edges."""
    p, q = sorted(pair)
    tel.check(
        tuple(sorted(g.endpoints(p))) == tuple(sorted(g.endpoints(q))),
        "double-edge.anchor-parallel",
    )
    v = min(g.endpoints(p))
    tail = sorted(set(g.incident_edges(v)) - {p, q}) + [p, q]
    tel.check(len(tail) == 4, "double-edge.vertex-shape")
    return Plan(tail, partial(_finish_tail, tail, (17, 18, 16, 17), "double-edge.final-neighborhood", tel))


def solve_girth3(g: MultiGraph, cycle: CycleDescriptor, tel: Telemetry) -> Plan:
    """Simple 4-regular with a triangle: a triangle edge only has about 20
    conflicting edges to begin with, so finishing the triangle last stays
    within 21 colors."""
    tel.check(len(cycle) == 3, "girth3.cycle-length")
    tail = sorted(cycle.edges)
    return Plan(tail, partial(_finish_tail, tail, (18, 19, 20), "girth3.final-neighborhood", tel))


# ---------------------------------------------------------------------------
# short-cycle context labeling (girth 4 and 5)


@dataclass(slots=True)
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


def _girth4_cycle(col: PartialColoring, ctx: CycleContext, tel: Telemetry) -> None:
    """Color the 4-cycle, which every branch leaves at least 4 free
    colors per edge."""
    for i in sorted(ctx.c):
        tel.check(len(col.available_colors(ctx.c[i])) >= 4, "girth4.cycle-availability")
    greedy_color(col, sorted(ctx.c.values()), telemetry=tel, max_color=PALETTE)


def _girth4_with_diagonals(g: MultiGraph, ctx: CycleContext, tel: Telemetry, i: int, j: int) -> Plan:
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
    diagonals = sorted(diagonals)

    def finish(col, dist):
        _girth4_cycle(col, ctx, tel)
        _finish_tail(diagonals, (21,) * 4, "girth4.diagonal-neighborhood", tel, col, ceiling=PALETTE)

    return Plan(list(ctx.c.values()) + diagonals, finish)


def _girth4_with_precolor(ctx: CycleContext, tel: Telemetry, plants: list[tuple[int, int]]) -> Plan:
    """Plant repeated colors on conflict-free incident pairs, color all
    remaining non-cycle edges greedily, then the cycle: each cycle edge
    sees every planted edge, so the repeats leave it at least 4 colors."""
    held = list(ctx.c.values()) + [e for e, _ in plants]
    return Plan(held, lambda col, dist: _girth4_cycle(col, ctx, tel), plants, (21, 22))


def solve_girth4(g: MultiGraph, cycle: CycleDescriptor, tel: Telemetry) -> Plan:
    """Simple 4-regular, shortest cycle of length 4.

    The eight non-cycle edges at the cycle's corners steer the case split:
    pairs of them sharing a far endpoint ("adjacent pairs", only possible
    between opposite corners) shrink the cycle edges' neighborhoods; when
    they are scarce, same-colored planted pairs or reserved diagonal edges
    make up the difference. The branch depends on the structure alone.
    """
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
        incident = ctx.incident_edges()

        def finish(col, dist):
            _finish_tail(incident, (20,) * len(incident), "girth4.incident-neighborhood", tel, col)
            _girth4_cycle(col, ctx, tel)

        return Plan(list(ctx.c.values()) + incident, finish)

    if len(adjacent_pairs) == 1:
        taken = adjacent_pairs[0][0]
        i, j = (2, 4) if taken == (1, 3) else (1, 3)
        pair = _free_cross_pair(g, ctx, i, j)
        if pair is not None:
            return _girth4_with_precolor(ctx, tel, [(pair[0], 22), (pair[1], 22)])
        return _girth4_with_diagonals(g, ctx, tel, i, j)

    # no adjacent pair at all: plant 21s on one pack and 22s on the other,
    # or fall back to the diagonal reservation on a pack with no free pair
    pair13 = _free_cross_pair(g, ctx, 1, 3)
    pair24 = _free_cross_pair(g, ctx, 2, 4)
    if pair13 is not None and pair24 is not None:
        plants = [(pair13[0], 21), (pair13[1], 21), (pair24[0], 22), (pair24[1], 22)]
        return _girth4_with_precolor(ctx, tel, plants)
    if pair13 is None:
        return _girth4_with_diagonals(g, ctx, tel, 1, 3)
    return _girth4_with_diagonals(g, ctx, tel, 2, 4)


# ---------------------------------------------------------------------------
# girth 5


def solve_girth5(g: MultiGraph, cycle: CycleDescriptor, tel: Telemetry) -> Plan:
    """Simple 4-regular, shortest cycle of length 5.

    Two conflict-free pairs get planted colors (21 on b1 and the opposite
    cycle edge c3, 22 on a5 and b2), everything off the cycle's corners is
    colored greedily, and the remaining 11 edges are finished through a
    distinct-representative argument on their availability sets.
    """
    ctx = label_cycle_context(g, cycle, tel)
    tel.check(ctx.c[3] not in g.conflict_set(ctx.b[1]), "girth5.planted-pair-free")
    planted = (ctx.b[1], ctx.c[3], ctx.a[5], ctx.b[2])
    ends = {w for e in planted for w in g.endpoints(e)}
    tel.check(len(ends) == 8, "girth5.planted-endpoints-distinct")
    held = list(ctx.c.values()) + ctx.incident_edges()
    plants = tuple(zip(planted, (21, 21, 22, 22)))
    return Plan(held, lambda col, dist: _complete_girth5(g, ctx, col, tel), plants, (21, 22))


def _complete_girth5(g: MultiGraph, ctx: CycleContext, col: PartialColoring, tel: Telemetry) -> None:
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
        return

    res = max_discrepancy_subset(fam)
    tel.check(res.disc > 0, "girth5.discrepancy-positive")
    subset = res.subset

    if not (subset & cset):
        # purely incident edges: each still sees >= 3 uncolored cycle
        # edges, so a straight greedy pass works, and coloring a maximum
        # discrepancy subfamily first makes the rest extendable
        first = sorted(subset)
        _finish_tail(first, (21,) * len(first), "girth5.subset-neighborhood", tel, col, ceiling=PALETTE)
        rest = [e for e in uncolored if not col.is_colored(e)]
        fam2 = {e: frozenset(col.available_colors(e)) for e in rest}
        sdr2 = find_sdr(fam2)
        tel.check(sdr2 is not None, "girth5.extension")
        for e in rest:
            col.assign(e, sdr2[e])
        return

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
        rest = [e for e in incident if not col.is_colored(e)]
        _finish_tail(rest, (21,) * len(rest), "girth5.incident-neighborhood", tel, col, ceiling=PALETTE)
        if (p, q) == pairs[1]:
            tail = [ctx.c[2], ctx.c[4], ctx.c[1], ctx.c[5]]
        else:
            tail = [ctx.c[2], ctx.c[4], ctx.c[5], ctx.c[1]]
        greedy_color(col, tail, telemetry=tel, max_color=PALETTE)
        return

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
        greedy_color(col, [e], telemetry=tel, max_color=PALETTE)
    second = [e for p in pairs for e in p if not col.is_colored(e)]
    # the >= 3 bound is a pre-stage guarantee; coloring one second-wave
    # edge may shrink another's set, so check all three up front
    for e in second:
        tel.check(len(col.available_colors(e)) >= 3, "girth5.second-wave-availability")
    greedy_color(col, second + [ctx.c[2], ctx.c[4], ctx.c[5]], telemetry=tel, max_color=PALETTE)


# ---------------------------------------------------------------------------
# girth 6 and beyond


def solve_girth6(g: MultiGraph, v: int, tel: Telemetry) -> Plan:
    """Simple 4-regular with girth at least 6: color everything except
    v's edges, then recolor one edge per neighbor (heading to a
    distance-2 vertex) with the single color 22 -- the girth makes those
    four pairwise conflict-free -- and finish v's edges greedily against
    the freed-up palette."""
    vedges = sorted(set(g.incident_edges(v)))

    def finish(col, dist):
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
        greedy_color(col, vedges, telemetry=tel, max_color=PALETTE)

    return Plan(vedges, finish)


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


_RESCUABLE = (PaletteExhausted, LemmaAssertionError, ConflictError)


@dataclass(slots=True)
class _Part:
    """One edge-bearing component in the pass: its id, strategy and
    anchor (BFS source), the strategy's plan, and why it failed, if it did
    (the failing lemma's label, or the exception's name)."""

    comp: int
    strategy: str
    anchor: Anchor
    plan: Plan | None = None
    failure: str | None = None

    def fail(self, exc: Exception) -> None:
        self.failure = str(exc) if isinstance(exc, LemmaAssertionError) else type(exc).__name__


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


def _plan_components(
    g: MultiGraph, comp: list[int], k: int, col: PartialColoring, tel: Telemetry
) -> list[_Part]:
    """Strategy, anchor and plan for every component with edges, in
    component order, with the plants placed in col.

    The anchor is the component's smallest vertex of degree 1..3, else its
    smallest loop, else its first parallel pair, else its shortest cycle
    of length <= 5, else (girth >= 6) its smallest vertex, all from one
    scan, whose BFS starts the cap of 5 keeps within radius 2. A strategy
    or plant that raises marks its component failed; the others are
    unaffected.
    """
    off = g.csr()[0]
    low = [-1] * k  # smallest vertex of degree 1..3
    first = [-1] * k  # smallest vertex with edges
    for v in range(g.vertex_count):
        d = off[v + 1] - off[v]
        if d:
            c = comp[v]
            if first[c] == -1:
                first[c] = v
            if d <= 3 and low[c] == -1:
                low[c] = v
    regular = [f != -1 and lo == -1 for f, lo in zip(first, low)]
    cycles = metrics.shortest_cycles(g, comp, regular, longest=5)

    parts = []
    for c in range(k):
        if first[c] == -1:
            continue
        cycle = cycles[c]
        if low[c] != -1:
            strategy, anchor, run, arg = "low_degree", low[c], solve_low_degree, low[c]
        elif cycle is None:
            strategy, anchor, run, arg = "girth6", first[c], solve_girth6, first[c]
        elif len(cycle) == 1:
            strategy, anchor, run, arg = "loop", cycle.vertices[0], solve_loop, cycle.edges[0]
        elif len(cycle) == 2:
            strategy, anchor, run, arg = "double_edge", min(cycle.vertices), solve_double_edge, cycle.edges
        else:
            strategy, anchor, arg = ("girth3", "girth4", "girth5")[len(cycle) - 3], cycle, cycle
            run = (solve_girth3, solve_girth4, solve_girth5)[len(cycle) - 3]
        part = _Part(c, strategy, anchor)
        parts.append(part)
        try:
            part.plan = run(g, arg, tel)
            for e, color in part.plan.plants:
                col.assign(e, color)
        except _RESCUABLE as exc:
            part.fail(exc)
    return parts


def _greedy_pass(
    g: MultiGraph,
    comp: list[int],
    k: int,
    parts: list[_Part],
    order: Sequence[int],
    col: PartialColoring,
    tel: Telemetry,
) -> None:
    """One greedy_color call per bound class over the shared order,
    leaving out held-back edges and failed components. When a call
    raises, the failing edge is the first uncolored one in its order: its
    component is marked failed and the call resumes after that edge
    without the component's edges."""
    cls = bytearray(k)  # component -> 1 + its bound class, 0 for none
    for p in parts:
        if p.failure is None:
            cls[p.comp] = 1 + BOUND_CLASSES.index(p.plan.bounds)
    ecls = bytearray(map(cls.__getitem__, map(comp.__getitem__, g.eu)))
    for p in parts:
        if p.failure is None:
            for e in p.plan.held:
                ecls[e] = 0
    eu = g.eu
    colors = col._colors
    for i, (conflicts, ceiling) in enumerate(BOUND_CLASSES, start=1):
        todo = array("i", compress(order, map(i.__eq__, map(ecls.__getitem__, order)))) if i in cls else []
        while todo:
            try:
                greedy_color(col, todo, telemetry=tel, max_conflict_colors=conflicts, max_color=ceiling)
                break
            except _RESCUABLE as exc:
                at = next(idx for idx, e in enumerate(todo) if not colors[e])
                c = comp[eu[todo[at]]]
                next(p for p in parts if p.comp == c).fail(exc)
                todo = [e for e in todo[at + 1 :] if comp[eu[e]] != c]


def _rescue_component(
    g: MultiGraph, comp: list[int], part: _Part, order: Sequence[int], col: PartialColoring, tel: Telemetry
) -> None:
    """Recolor one component from scratch: the guaranteed greedy phase
    over its share of the order, then backtracking over the edges at the
    anchor. It runs on the component extracted as a graph of its own, so
    Unsatisfiable carries only that component, and then overwrites all of
    the component's edges in col."""
    tel.fallbacks += 1
    c = part.comp
    eu = g.eu
    ev = g.ev
    local = {v: i for i, v in enumerate(v for v in range(g.vertex_count) if comp[v] == c)}
    edges = [e for e in range(g.edge_count) if comp[eu[e]] == c]
    eid = {e: i for i, e in enumerate(edges)}
    sub = MultiGraph.from_arrays(
        len(local), array("i", [local[eu[e]] for e in edges]), array("i", [local[ev[e]] for e in edges])
    )
    anchor = part.anchor
    if isinstance(anchor, CycleDescriptor):
        skip = set(anchor.edges)
        if len(anchor) > 3:
            for v in anchor.vertices:
                skip.update(g.incident_edges(v))
    else:
        skip = set(g.incident_edges(anchor))
    sub_col = PartialColoring(sub, PALETTE)
    try:
        greedy_color(sub_col, [eid[e] for e in order if e in eid and e not in skip])
    except PaletteExhausted:
        raise Unsatisfiable("guaranteed greedy phase ran out of colors", sub)
    sub_col = fallback_exact(sub, sub_col, [eid[e] for e in skip])
    for e in edges:
        col.unassign(e)
    for e, color in zip(edges, sub_col._colors):
        col.assign(e, color)


def _solve_report(
    g: MultiGraph, comp: list[int], k: int, parts: list[_Part], col: PartialColoring, tel: Telemetry
) -> SolveReport:
    """The SolveReport: per part, strategy (fallback_exact if rescued), edge
    count and colors used, and the colors used overall, from one pass."""
    counts = array("i", bytes(4 * k))
    masks = array("q", bytes(8 * k))
    for u, color in zip(g.eu, col._colors):
        c = comp[u]
        counts[c] += 1
        masks[c] |= 1 << color
    return SolveReport(
        components=[
            ComponentReport(
                strategy=p.strategy if p.failure is None else "fallback_exact",
                edge_count=counts[p.comp],
                colors_used=(masks[p.comp] >> 1).bit_count(),
                failure=p.failure,
            )
            for p in parts
        ],
        colors_used=(reduce(or_, masks, 0) >> 1).bit_count(),
        assertions_checked=tel.checks,
        fallback_invocations=tel.fallbacks,
        labels=dict(tel.labels),
    )


def solve(g: MultiGraph) -> tuple[PartialColoring, SolveReport]:
    """Strong edge-coloring with at most 22 colors.

    One pass over the whole graph and its edge ids: label the components
    once; plan every component with edges (strategy, anchor, held-back
    edges, planted colors, bound class) and place its planted colors; run
    one BFS from all anchors and one distance order; make one greedy_color
    call per bound class; then run each component's finish. Conflicts never cross
    components, so every component gets the coloring it would get alone.
    A component whose plan, greedy share or finish fails a check is
    recolored alone by the backtracking fallback; the others keep theirs.

    The report lists the strategy used for each component with edges, the
    assertions exercised, per label and in total, and how often the
    fallback fired (expected 0). The input graph is frozen first.
    """
    g.freeze()
    if g.max_degree() > 4:
        v = next(v for v in range(g.vertex_count) if g.degree(v) > 4)
        raise MaxDegreeExceeded(v, g.degree(v))
    tel = Telemetry()
    col = PartialColoring(g, PALETTE)
    comp, k = _label_components(g)
    parts = _plan_components(g, comp, k, col, tel)
    sources = []
    for p in parts:
        sources.extend(p.anchor.vertices if isinstance(p.anchor, CycleDescriptor) else (p.anchor,))
    dist = metrics.bfs_from_sources(g, sources)
    order = metrics.order_by_distance(g, dist)
    _greedy_pass(g, comp, k, parts, order, col, tel)
    for p in parts:
        if p.failure is None:
            try:
                p.plan.finish(col, dist)
            except _RESCUABLE as exc:
                p.fail(exc)
    for p in parts:
        if p.failure is not None:
            _rescue_component(g, comp, p, order, col, tel)
    col._at = None  # the masks served the pass; a caller's first query rebuilds them
    return col, _solve_report(g, comp, k, parts, col, tel)
