"""Constructive 22-color strong edge-coloring for max degree 4.

Every connected component gets a strategy keyed on its structure: a
vertex of degree at most 3, a loop, a parallel pair, or (for simple
4-regular components) the girth. A strategy colors everything far from a
small anchor by a greedy pass over a distance-compatible order, then
finishes the few held-back edges with whatever bookkeeping makes the
counting work. `solve` runs all components in one pass over the whole
graph and keeps what they ask of it in flat lists indexed by component
id, not in an object per component. The low_degree, loop, double_edge
and girth3 strategies return a tail (held-back edges, each with a cap on
its colored conflicting edges), and one loop colors every component's
tail after the shared greedy pass. The girth 4, 5 and 6 strategies
return held-back edges, planted colors, a bound class and a finish of
their own. One BFS, one edge order and one greedy call per bound class
serve every component. Counting claims are asserted at runtime; a
component whose claim fails is recolored by a backtracking fallback and
counted, never ignored.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import reduce
from itertools import compress
from operator import or_
from typing import Callable, Sequence

from . import metrics
from .coloring import ConflictError, PaletteExhausted, PartialColoring, greedy_color
from .graphio import emit_graph
from .hall import common_color, find_sdr, max_discrepancy_subset
from .metrics import CycleDescriptor
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


# A strategy's plan is a plain tuple. The tail strategies (low_degree,
# loop, double_edge, girth3) return a TailPlan (tail, caps, label): the
# held-back edges in coloring order, the cap on each one's colored
# conflicting edges, and the lemma those caps check. The girth 4, 5 and 6
# strategies return a HeldPlan (held, plants, bounds, finish): the pass
# colors `plants` first, then every other edge of the component except
# `held`, greedily along the distance order from the anchor and checking
# `bounds` (distinct colors among an edge's colored conflicts, and its
# color) on each; finish(col, dist) then colors the held-back edges,
# given the BFS distances to the anchor.
Finish = Callable[[PartialColoring, list[int]], None]
TailPlan = tuple[list[int], tuple[int, ...], str]
HeldPlan = tuple[list[int], Sequence[tuple[int, int]], tuple[int, int], Finish]


# ---------------------------------------------------------------------------
# the tail routine, and the strategies that end in one tail


def _color_tail(
    col: PartialColoring,
    tail: Sequence[int],
    caps: Sequence[int],
    labels: Sequence[str],
    tel: Telemetry,
    ceiling: int,
    start: int = 0,
) -> None:
    """Color tail[start:] in order. Edge tail[i] first checks its lemma
    labels[i]: at most caps[i] colored edges conflict with it, counted
    exactly over its conflict set (a popcount of the color masks would
    count colors, a weaker claim). It then takes the least color free of
    its conflicts, which must not exceed `ceiling` ("greedy.color-ceiling").
    Raises at the first failing edge, with the edges before it colored
    and every check made so far counted."""
    g = col.graph
    off, inc_flat, nbr_flat = g.csr()
    eu = g.eu
    ev = g.ev
    colors = col._colors
    color_of = colors.__getitem__
    at = col._masks()
    palette = col.palette_size
    full = (1 << (palette + 1)) - 2  # bits 1..palette
    passed: dict[str, int] = {}
    ceiling_hits = 0
    try:
        for i in range(start, len(tail)):
            e = tail[i]
            if colors[e]:
                raise ValueError(f"edge {e} in a tail is already colored")
            u = eu[e]
            v = ev[e]
            near: set[int] = set()  # e's conflict set, and e
            used = 0  # colors on it
            for y in set(nbr_flat[off[u] : off[u + 1]] + nbr_flat[off[v] : off[v + 1]]):
                used |= at[y]
                near.update(inc_flat[off[y] : off[y + 1]])
            label = labels[i]
            if len(near) - list(map(color_of, near)).count(0) > caps[i]:
                tel.check(False, label)
            passed[label] = passed.get(label, 0) + 1
            free = full & ~used
            if not free:
                raise PaletteExhausted(e, palette)
            c = (free & -free).bit_length() - 1
            if c > ceiling:
                tel.check(False, "greedy.color-ceiling")
            ceiling_hits += 1
            colors[e] = c
            bit = 1 << c
            at[u] |= bit
            at[v] |= bit
    finally:
        # passed checks are recorded in bulk; a failing one is counted by
        # telemetry.check itself
        if ceiling_hits:
            passed["greedy.color-ceiling"] = ceiling_hits
        lab = tel.labels
        for label, count in passed.items():
            tel.checks += count
            lab[label] = lab.get(label, 0) + count


def solve_low_degree(g: MultiGraph, v: int, tel: Telemetry) -> TailPlan:
    """Component with a vertex of degree at most 3: color everything else
    first, then v's edges. Their conflict neighborhoods are capped at
    18/19/20 colored edges respectively, so 21 colors suffice."""
    tel.check(g.degree(v) <= 3, "low-degree.anchor-degree")
    return sorted(set(g.incident_edges(v))), (18, 19, 20), "low-degree.final-neighborhood"


def solve_loop(g: MultiGraph, loop_edge: int, tel: Telemetry) -> TailPlan:
    """4-regular component with a loop: anchor at the loop's vertex, which
    carries at most three distinct edges, and finish there last."""
    tel.check(g.is_loop(loop_edge), "loop.anchor-is-loop")
    v = g.endpoints(loop_edge)[0]
    vedges = sorted(set(g.incident_edges(v)))
    tail = [e for e in vedges if not g.is_loop(e)] + [e for e in vedges if g.is_loop(e)]
    return tail, (20, 20, 20), "loop.final-neighborhood"


def solve_double_edge(g: MultiGraph, pair: tuple[int, int], tel: Telemetry) -> TailPlan:
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
    return tail, (17, 18, 16, 17), "double-edge.final-neighborhood"


def solve_girth3(g: MultiGraph, cycle: CycleDescriptor, tel: Telemetry) -> TailPlan:
    """Simple 4-regular with a triangle: a triangle edge only has about 20
    conflicting edges to begin with, so finishing the triangle last stays
    within 21 colors."""
    tel.check(len(cycle) == 3, "girth3.cycle-length")
    return sorted(cycle.edges), (18, 19, 20), "girth3.final-neighborhood"


def _conflicting(g: MultiGraph, p: int, q: int) -> bool:
    """Whether the distinct edges p and q conflict: they share an end or
    an edge joins their ends, i.e. an end of q is a neighbor of an end of
    p (each end of p is a neighbor of the other)."""
    off, _, nbr_flat = g.csr()
    a = g.eu[p]
    b = g.ev[p]
    near = nbr_flat[off[a] : off[a + 1]] + nbr_flat[off[b] : off[b + 1]]
    return p != q and (g.eu[q] in near or g.ev[q] in near)


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


def label_cycle_context(g: MultiGraph, cycle: CycleDescriptor, tel: Telemetry) -> CycleContext:
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
            if _conflicting(g, a[s], b[t]):
                a[t], b[t] = b[t], a[t]
            tel.check(not _conflicting(g, a[s], b[t]), "cycle-context.separation")
    return CycleContext(cycle, c, a, b)


# ---------------------------------------------------------------------------
# girth 4


def _free_cross_pair(g: MultiGraph, ctx: CycleContext, i: int, j: int) -> tuple[int, int] | None:
    """First conflict-free pair with one edge at corner i, one at corner j."""
    for p in (ctx.a[i], ctx.b[i]):
        for q in (ctx.a[j], ctx.b[j]):
            if not _conflicting(g, p, q):
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


def _girth4_with_diagonals(g: MultiGraph, ctx: CycleContext, tel: Telemetry, i: int, j: int) -> HeldPlan:
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
        _color_tail(col, diagonals, (21,) * 4, ("girth4.diagonal-neighborhood",) * 4, tel, PALETTE)

    return list(ctx.c.values()) + diagonals, (), (20, 21), finish


def _girth4_with_precolor(ctx: CycleContext, tel: Telemetry, plants: list[tuple[int, int]]) -> HeldPlan:
    """Plant repeated colors on conflict-free incident pairs, color all
    remaining non-cycle edges greedily, then the cycle: each cycle edge
    sees every planted edge, so the repeats leave it at least 4 colors."""
    held = list(ctx.c.values()) + [e for e, _ in plants]
    return held, plants, (21, 22), lambda col, dist: _girth4_cycle(col, ctx, tel)


def solve_girth4(g: MultiGraph, cycle: CycleDescriptor, tel: Telemetry) -> HeldPlan:
    """Simple 4-regular, shortest cycle of length 4.

    The eight non-cycle edges at the cycle's corners steer the case split:
    pairs of them sharing a far endpoint ("adjacent pairs", only possible
    between opposite corners) shrink the cycle edges' neighborhoods; when
    they are scarce, same-colored planted pairs or reserved diagonal edges
    make up the difference. The branch depends on the structure alone.
    """
    ctx = label_cycle_context(g, cycle, tel)
    cyc_verts = set(cycle.vertices)
    # the labeling admits no chord, so each incident edge has one end off
    # the cycle, and two of them share an end off the cycle iff those match
    far = {e: _off_cycle_end(g, e, cyc_verts) for e in ctx.incident_edges()}

    adjacent_pairs = []
    for i, j in ((1, 3), (2, 4)):
        for p in (ctx.a[i], ctx.b[i]):
            for q in (ctx.a[j], ctx.b[j]):
                if far[p] == far[q]:
                    adjacent_pairs.append(((i, j), p, q))
    # sharing with a neighboring corner would be a triangle
    for i, j in ((1, 2), (2, 3), (3, 4), (1, 4)):
        for p in (ctx.a[i], ctx.b[i]):
            for q in (ctx.a[j], ctx.b[j]):
                tel.check(far[p] != far[q], "girth4.no-skew-pairs")

    if len(adjacent_pairs) >= 2:
        incident = ctx.incident_edges()

        def finish(col, dist):
            n = len(incident)
            _color_tail(col, incident, (20,) * n, ("girth4.incident-neighborhood",) * n, tel, 21)
            _girth4_cycle(col, ctx, tel)

        return list(ctx.c.values()) + incident, (), (20, 21), finish

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


def solve_girth5(g: MultiGraph, cycle: CycleDescriptor, tel: Telemetry) -> HeldPlan:
    """Simple 4-regular, shortest cycle of length 5.

    Two conflict-free pairs get planted colors (21 on b1 and the opposite
    cycle edge c3, 22 on a5 and b2), everything off the cycle's corners is
    colored greedily, and the remaining 11 edges are finished through a
    distinct-representative argument on their availability sets.
    """
    ctx = label_cycle_context(g, cycle, tel)
    tel.check(not _conflicting(g, ctx.b[1], ctx.c[3]), "girth5.planted-pair-free")
    planted = (ctx.b[1], ctx.c[3], ctx.a[5], ctx.b[2])
    ends = {w for e in planted for w in g.endpoints(e)}
    tel.check(len(ends) == 8, "girth5.planted-endpoints-distinct")
    held = list(ctx.c.values()) + ctx.incident_edges()
    plants = tuple(zip(planted, (21, 21, 22, 22)))
    return held, plants, (21, 22), lambda col, dist: _complete_girth5(g, ctx, col, tel)


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
        n = len(first)
        _color_tail(col, first, (21,) * n, ("girth5.subset-neighborhood",) * n, tel, PALETTE)
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
        n = len(rest)
        _color_tail(col, rest, (21,) * n, ("girth5.incident-neighborhood",) * n, tel, PALETTE)
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


def solve_girth6(g: MultiGraph, v: int, tel: Telemetry) -> HeldPlan:
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
                tel.check(not _conflicting(g, e, f), "girth6.recolor-independent")
        for e in recolored:
            col.unassign(e)
        for e in recolored:
            col.assign(e, 22)
        greedy_color(col, vedges, telemetry=tel, max_color=PALETTE)

    return vedges, (), (20, 21), finish


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
_RESUME_CHUNK = 1024


def _reason(exc: Exception) -> str:
    """Why a component failed: the failing lemma's label, or the
    exception's name."""
    return str(exc) if isinstance(exc, LemmaAssertionError) else type(exc).__name__


class _Plans:
    """What the components ask of one solve, kept flat: per component id
    c, strategy[c] (None without edges), anchor[c] (its BFS source, a
    vertex or a cycle), cls[c] (1 + its bound class; 0 without edges or
    once its plan failed) and failure[c] for a failed c (see _reason);
    the BFS sources in component order; the tails of all tail strategies
    in component order, with each edge's cap and lemma label; the edges
    the other strategies hold back, and their finishes as (c, finish)."""

    __slots__ = (
        "strategy", "anchor", "cls", "failure", "sources", "tail", "caps", "labels", "held", "finishes"
    )

    def __init__(self, k: int):
        self.strategy: list[str | None] = [None] * k
        self.anchor: list = [None] * k
        self.cls = bytearray(k)
        self.failure: dict[int, str] = {}
        self.sources: list[int] = []
        self.tail = array("i")
        self.caps = bytearray()
        self.labels: list[str] = []
        self.held = array("i")
        self.finishes: list[tuple[int, Finish]] = []


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


def _plan_components(g: MultiGraph, comp: list[int], k: int, col: PartialColoring, tel: Telemetry) -> _Plans:
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

    plans = _Plans(k)
    strategy = plans.strategy
    anchor = plans.anchor
    sources = plans.sources
    tail = plans.tail
    caps = plans.caps
    labels = plans.labels
    for c in range(k):
        if first[c] == -1:
            continue
        cycle = cycles[c]
        if low[c] != -1:
            name, a, run, arg = "low_degree", low[c], solve_low_degree, low[c]
        elif cycle is None:
            name, a, run, arg = "girth6", first[c], solve_girth6, first[c]
        elif len(cycle) == 1:
            name, a, run, arg = "loop", cycle.vertices[0], solve_loop, cycle.edges[0]
        elif len(cycle) == 2:
            name, a, run, arg = "double_edge", min(cycle.vertices), solve_double_edge, cycle.edges
        else:
            name, a, arg = ("girth3", "girth4", "girth5")[len(cycle) - 3], cycle, cycle
            run = (solve_girth3, solve_girth4, solve_girth5)[len(cycle) - 3]
        strategy[c] = name
        anchor[c] = a
        sources.extend(a.vertices if isinstance(a, CycleDescriptor) else (a,))
        try:
            plan = run(g, arg, tel)
            if name in ("low_degree", "loop", "double_edge", "girth3"):
                edges, edge_caps, label = plan
                for e, cap in zip(edges, edge_caps):
                    tail.append(e)
                    caps.append(cap)
                    labels.append(label)
                plans.cls[c] = 1  # the (20, 21) class
            else:
                held, plants, bounds, finish = plan
                for e, color in plants:
                    col.assign(e, color)
                plans.held.extend(held)
                plans.finishes.append((c, finish))
                plans.cls[c] = 1 + BOUND_CLASSES.index(bounds)
        except _RESCUABLE as exc:
            plans.failure[c] = _reason(exc)
    return plans


def _greedy_pass(
    g: MultiGraph, comp: list[int], plans: _Plans, order: Sequence[int], col: PartialColoring, tel: Telemetry
) -> None:
    """One greedy_color call per bound class over the shared order,
    leaving out held-back edges and failed components. When a call
    raises, the failing edge is the first uncolored one in its order: its
    component is marked failed, and the pass resumes after that edge
    without the failed components' edges, in calls over _RESUME_CHUNK
    edges of the order at a time, so that k failures cost
    O(m + k * _RESUME_CHUNK) rather than a rebuilt order each."""
    cls = plans.cls
    ecls = bytearray(map(cls.__getitem__, map(comp.__getitem__, g.eu)))
    for held in (plans.tail, plans.held):
        for e in held:
            ecls[e] = 0
    eu = g.eu
    colors = col._colors
    for i, (conflicts, ceiling) in enumerate(BOUND_CLASSES, start=1):
        if i not in cls:
            continue
        todo = array("i", compress(order, map(i.__eq__, map(ecls.__getitem__, order))))
        dead: set[int] = set()  # components failed in this class
        lo = 0
        size = len(todo)
        while lo < len(todo):
            batch = todo[lo : lo + size] if lo else todo
            if dead:
                batch = [e for e in batch if comp[eu[e]] not in dead]
            try:
                greedy_color(col, batch, telemetry=tel, max_conflict_colors=conflicts, max_color=ceiling)
                lo += size
            except _RESCUABLE as exc:
                e = next(e for e in batch if not colors[e])
                c = comp[eu[e]]
                plans.failure[c] = _reason(exc)
                dead.add(c)
                lo = todo.index(e, lo) + 1
                size = _RESUME_CHUNK


def _finish_tails(
    g: MultiGraph, comp: list[int], plans: _Plans, col: PartialColoring, tel: Telemetry
) -> None:
    """Color the tails of all low_degree, loop, double_edge and girth3
    components in one _color_tail loop, in component order, within 21
    colors. Components never conflict, so each tail gets the colors and
    the checks it would get alone. A failing check marks only its own
    component failed, and the loop resumes after that component's tail,
    whose edges are consecutive."""
    tail, caps, labels = plans.tail, plans.caps, plans.labels
    failure = plans.failure
    eu = g.eu
    if failure:  # leave out the components the greedy pass failed
        live = [comp[eu[e]] not in failure for e in tail]
        tail, caps, labels = (list(compress(seq, live)) for seq in (tail, caps, labels))
    colors = col._colors
    i = 0
    while i < len(tail):
        try:
            _color_tail(col, tail, caps, labels, tel, 21, i)
            return
        except _RESCUABLE as exc:
            while colors[tail[i]]:
                i += 1
            c = comp[eu[tail[i]]]
            failure[c] = _reason(exc)
            while i < len(tail) and comp[eu[tail[i]]] == c:
                i += 1


def _rescue_components(
    g: MultiGraph, comp: list[int], plans: _Plans, order: Sequence[int], col: PartialColoring, tel: Telemetry
) -> None:
    """Recolor each failed component from scratch: the guaranteed greedy
    phase over its share of the order, then backtracking over the edges at
    the anchor. Each runs on its component extracted as a graph of its
    own, so Unsatisfiable carries only that component, and then overwrites
    all of the component's edges in col. The vertices, edges and order
    shares of all failed components are grouped first, in one ascending
    pass each, so the rescues cost O(n + m) however many there are."""
    failed = sorted(plans.failure)
    if not failed:
        return
    slot = {c: i for i, c in enumerate(failed)}
    vslot = [slot.get(c, -1) for c in comp]
    eslot = [vslot[u] for u in g.eu]

    def grouped(items, slots):
        out: list[list[int]] = [[] for _ in failed]
        for x, i in zip(items, slots):
            if i >= 0:
                out[i].append(x)
        return out

    eu = g.eu
    ev = g.ev
    for c, verts, edges, share in zip(
        failed,
        grouped(range(g.vertex_count), vslot),
        grouped(range(g.edge_count), eslot),
        grouped(order, map(eslot.__getitem__, order)),
    ):
        tel.fallbacks += 1
        local = {v: i for i, v in enumerate(verts)}
        eid = {e: i for i, e in enumerate(edges)}
        sub = MultiGraph(
            len(local), array("i", [local[eu[e]] for e in edges]), array("i", [local[ev[e]] for e in edges])
        )
        anchor = plans.anchor[c]
        if isinstance(anchor, CycleDescriptor):
            skip = set(anchor.edges)
            if len(anchor) > 3:
                for v in anchor.vertices:
                    skip.update(g.incident_edges(v))
        else:
            skip = set(g.incident_edges(anchor))
        sub_col = PartialColoring(sub, PALETTE)
        try:
            greedy_color(sub_col, [eid[e] for e in share if e not in skip])
        except PaletteExhausted:
            raise Unsatisfiable("guaranteed greedy phase ran out of colors", sub)
        sub_col = fallback_exact(sub, sub_col, [eid[e] for e in skip])
        for e in edges:
            col.unassign(e)
        for e, color in zip(edges, sub_col._colors):
            col.assign(e, color)


def _solve_report(
    g: MultiGraph, comp: list[int], k: int, plans: _Plans, col: PartialColoring, tel: Telemetry
) -> SolveReport:
    """The SolveReport: per component with edges, strategy (fallback_exact
    if rescued), edge count and colors used, and the colors used overall,
    from one pass."""
    counts = array("i", bytes(4 * k))
    masks = array("q", bytes(8 * k))
    for u, color in zip(g.eu, col._colors):
        c = comp[u]
        counts[c] += 1
        masks[c] |= 1 << color
    failure = plans.failure
    return SolveReport(
        components=[
            ComponentReport(
                strategy=name if c not in failure else "fallback_exact",
                edge_count=counts[c],
                colors_used=(masks[c] >> 1).bit_count(),
                failure=failure.get(c),
            )
            for c, name in enumerate(plans.strategy)
            if name is not None
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
    call per bound class; color every tail in one loop; then run the
    finishes of the girth 4, 5 and 6 components. Conflicts never cross
    components, so every component gets the coloring it would get alone.
    A component whose plan, greedy share, tail or finish fails a check is
    recolored alone by the backtracking fallback; the others keep theirs.

    The report lists the strategy used for each component with edges, the
    assertions exercised, per label and in total, and how often the
    fallback fired (expected 0).
    """
    if g.max_degree() > 4:
        v = next(v for v in range(g.vertex_count) if g.degree(v) > 4)
        raise MaxDegreeExceeded(v, g.degree(v))
    tel = Telemetry()
    col = PartialColoring(g, PALETTE)
    comp, k = _label_components(g)
    plans = _plan_components(g, comp, k, col, tel)
    dist = metrics.bfs_from_sources(g, plans.sources)
    order = metrics.order_by_distance(g, dist)
    _greedy_pass(g, comp, plans, order, col, tel)
    _finish_tails(g, comp, plans, col, tel)
    for c, finish in plans.finishes:
        if c not in plans.failure:
            try:
                finish(col, dist)
            except _RESCUABLE as exc:
                plans.failure[c] = _reason(exc)
    _rescue_components(g, comp, plans, order, col, tel)
    col._at = None  # the masks served the pass; a caller's first query rebuilds them
    return col, _solve_report(g, comp, k, plans, col, tel)
