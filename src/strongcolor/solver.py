"""Constructive 22-color strong edge-coloring for max degree 4.

Every connected component gets a strategy keyed on its structure: a
vertex of degree at most 3, a loop, a parallel pair, or (for simple
4-regular components) the girth. A strategy colors everything far from a
small anchor by a greedy pass over a distance-compatible order, then
finishes the few held-back edges with whatever bookkeeping makes the
counting work. `solve` runs all components in one pass over the whole
graph and keeps what they ask of it in flat lists indexed by component
id, not in an object per component. Every strategy returns one plan
shape: held-back edges, planted colors and a finish; the plants alone
decide the bounds the greedy pass checks. The low_degree, loop,
double_edge and girth3 strategies have no finish:
their held-back edges are a tail whose lemma caps (at most so many
colored edges conflict with each tail edge at its turn) are read from
the structure while planning, and one greedy_color call colors every
component's tail after the shared pass. One BFS, one bucketing of the
edges into a distance order per bound class and one greedy_color call
per class serve every component, and every coloring step goes through
greedy_color. The girth 4, 5 and 6 finishes keep from planning only the
ids they color (and the girth-6 anchor): what else they need of the
structure (far ends, joining edges, distance-2 vertices) they read from
the graph. Counting
claims are asserted at runtime and counted per lemma label in
Telemetry.labels; a component whose claim fails is recolored by a
backtracking fallback and counted, never ignored.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import chain, combinations, compress, islice
from operator import or_, sub
from typing import AbstractSet, Callable, Sequence

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
# meets at most 20 distinct colors and 21 suffice; plans that plant
# repeated colors take one more of each, so the plants decide the class.
BOUND_CLASSES = ((20, 21), (21, 22))


class MaxDegreeExceeded(ValueError):
    """The input graph has a vertex of degree above 4."""

    def __init__(self, vertex: int, degree: int):
        self.vertex = vertex
        self.degree = degree
        super().__init__(f"vertex {vertex} has degree {degree} > 4")


class LemmaAssertionError(Exception):
    """A counting claim failed at runtime; the solver falls back."""


class Unsatisfiable(Exception):
    """Completion failed where the construction guarantees success.

    Carries the reason and the graph, so that the instance can be
    reproduced. The graph is serialized, into graph_text and the message,
    only when one of them is read.
    """

    def __init__(self, reason: str, g: MultiGraph):
        super().__init__(reason)
        self.reason = reason
        self.graph = g

    @cached_property
    def graph_text(self) -> str:
        return emit_graph(self.graph)

    def __str__(self) -> str:
        return f"{self.reason}\n{self.graph_text}"


class Telemetry:
    """Counts every asserted claim per lemma label, in `labels`; `checks`
    is their sum. Fallback invocations are counted by solve, one per
    failed component."""

    __slots__ = ("labels",)

    def __init__(self):
        self.labels: dict[str, int] = {}

    @property
    def checks(self) -> int:
        return sum(self.labels.values())

    def passed(self, label: str, n: int) -> None:
        """Record n passed checks of `label` at once; n = 0 adds no entry."""
        if n:
            self.labels[label] = self.labels.get(label, 0) + n

    def check(self, cond: bool, label: str) -> None:
        self.labels[label] = self.labels.get(label, 0) + 1
        if not cond:
            raise LemmaAssertionError(label)

    def check_all(self, conds: Sequence[bool], label: str) -> None:
        """Record the checks `conds` of `label` as one check() call each,
        in order, would: every one if all hold, else those up to the
        first that fails, which raises."""
        if False in conds:
            self.passed(label, conds.index(False))
            self.check(False, label)
        self.passed(label, len(conds))


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


# A strategy's plan is a plain tuple (held, plants, finish): the pass
# colors `plants` first, then every other edge of the component except
# `held` and the planted edges, greedily along the distance order from
# the anchor and checking the bound class that the plants select (see
# BOUND_CLASSES) on each; finish(col) then colors the held-back edges,
# keeping only ids from planning and reading everything else from the
# graph and the coloring. The low_degree, loop, double_edge and girth3
# strategies have no finish (None): their held-back edges are a tail,
# whose lemma caps they check when planning, and the pass colors it
# greedily within 21 colors last. Every strategy is called as
# run(g, anchor, m, tel), with m the edge count of the anchor's component,
# the first proof of each lemma cap (_check_caps).
Finish = Callable[[PartialColoring], None]
Plan = tuple[list[int], Sequence[tuple[int, int]], Finish | None]


# ---------------------------------------------------------------------------
# tail lemmas, and the strategies that end in a tail


def _degree_bound(g: MultiGraph, e: int, later: AbstractSet[int]) -> int:
    """An upper bound on the edges of e's conflict set outside `later`
    (which must not hold e), from degrees alone. For e = (u, v), e's
    conflict set and e itself are the edges at the vertices of N(u) |
    N(v), which holds u and v. An edge at u or v whose other end lies in
    W, the rest of N(u) | N(v), is one of the edges at that end; so the
    set has at most sum(deg(y) for y in W) edges, plus the edges with both
    ends in {u, v} (the loops there and the edges joining u and v, read
    from the neighbor slices), less e. Every edge of `later` with an end
    in N(u) | N(v) is in the set, and is subtracted."""
    off, _, nbr_flat = g.csr()
    eu = g.eu
    ev = g.ev
    u = eu[e]
    v = ev[e]
    nu = nbr_flat[off[u] : off[u + 1]]
    ball = set(nu)
    if u == v:
        bound = nu.count(u) // 2 - 1 - len(nu)
    else:
        nv = nbr_flat[off[v] : off[v + 1]]
        ball.update(nv)
        bound = nu.count(v) + (nu.count(u) + nv.count(v)) // 2 - 1 - len(nu) - len(nv)
    for y in ball:
        bound += off[y + 1] - off[y]
    for f in later:
        if eu[f] in ball or ev[f] in ball:
            bound -= 1
    return bound


def _check_caps(
    g: MultiGraph,
    tail: Sequence[int],
    caps: Sequence[int],
    label: str,
    pending: Sequence[int],
    m: int,
    tel: Telemetry,
) -> None:
    """Check lemma `label` for a tail colored in order: at most caps[i]
    colored edges conflict with tail[i] at its turn. Then every edge of
    its component, which has m edges, is colored except the edges of
    `pending` (the held-back edges of that component still uncolored when
    the tail starts) not yet reached, so the count is read from the
    structure, over tail[i]'s conflict set (a popcount of the color masks
    would count colors, a weaker claim). Three proofs of a cap are tried
    in order, each costlier and tighter than the one before:
    1. the edge count: the edges colored by then, m - 1 - |later| with
       `later` the pending edges after tail[i], O(1);
    2. the degree count, _degree_bound, from the neighbor slices;
    3. the exact census of the conflict set, which decides.
    caps has an entry per tail edge at least. Raises at the first failing
    cap, with the checks before it counted."""
    later = set(pending)
    for i, (e, cap) in enumerate(zip(tail, caps)):
        later.discard(e)
        if (
            m - 1 - len(later) > cap
            and _degree_bound(g, e, later) > cap
            and len(g.conflict_set(e) - later) > cap
        ):
            tel.passed(label, i)
            tel.check(False, label)
    tel.passed(label, len(tail))


def solve_low_degree(g: MultiGraph, v: int, m: int, tel: Telemetry) -> Plan:
    """Component with a vertex of degree at most 3: color everything else
    first, then v's edges. Their conflict neighborhoods are capped at
    18/19/20 colored edges respectively, so 21 colors suffice."""
    tel.check(g.degree(v) <= 3, "low-degree.anchor-degree")
    tail = sorted(set(g.incident_edges(v)))
    _check_caps(g, tail, (18, 19, 20), "low-degree.final-neighborhood", tail, m, tel)
    return tail, (), None


def solve_loop(g: MultiGraph, cycle: CycleDescriptor, m: int, tel: Telemetry) -> Plan:
    """4-regular component with a loop: anchor at the loop's vertex, which
    carries at most three distinct edges, and finish there last."""
    tel.check(g.is_loop(cycle.edges[0]), "loop.anchor-is-loop")
    v = cycle.vertices[0]
    vedges = sorted(set(g.incident_edges(v)))
    tail = [e for e in vedges if not g.is_loop(e)] + [e for e in vedges if g.is_loop(e)]
    _check_caps(g, tail, (20, 20, 20), "loop.final-neighborhood", tail, m, tel)
    return tail, (), None


def solve_double_edge(g: MultiGraph, cycle: CycleDescriptor, m: int, tel: Telemetry) -> Plan:
    """4-regular component with parallel edges: anchor at the smaller
    endpoint. Coloring its other two edges first and the pair last keeps
    the colored neighborhoods at 17/18 then 16/17 edges."""
    p, q = sorted(cycle.edges)
    tel.check(
        tuple(sorted(g.endpoints(p))) == tuple(sorted(g.endpoints(q))),
        "double-edge.anchor-parallel",
    )
    v = min(g.endpoints(p))
    tail = sorted(set(g.incident_edges(v)) - {p, q}) + [p, q]
    tel.check(len(tail) == 4, "double-edge.vertex-shape")
    _check_caps(g, tail, (17, 18, 16, 17), "double-edge.final-neighborhood", tail, m, tel)
    return tail, (), None


def solve_girth3(g: MultiGraph, cycle: CycleDescriptor, m: int, tel: Telemetry) -> Plan:
    """Simple 4-regular with a triangle: a triangle edge only has about 20
    conflicting edges to begin with, so finishing the triangle last stays
    within 21 colors."""
    tel.check(len(cycle) == 3, "girth3.cycle-length")
    tail = sorted(cycle.edges)
    _check_caps(g, tail, (18, 19, 20), "girth3.final-neighborhood", tail, m, tel)
    return tail, (), None


# ---------------------------------------------------------------------------
# short-cycle corners (girth 4 and 5)


def label_cycle_context(
    g: MultiGraph, cycle: CycleDescriptor, tel: Telemetry
) -> tuple[list[tuple[int, int]], dict[int, int]]:
    """The corners of a chordless 4- or 5-cycle in a 4-regular graph, as
    (corners, far): corners[i] holds the two non-cycle edges at
    cycle.vertices[i] (where cycle.edges[i - 1] meets cycle.edges[i]),
    ascending, and far maps each of those edges to its end off the cycle.

    For 5-cycles a corner's two edges are swapped where needed so that at
    the corner pairs (0, 2), (2, 4), (4, 1), (1, 3) the first edge at the
    first corner and the second edge at the second are conflict-free.
    Girth 5 guarantees one of the two orders works at each corner.
    """
    k = len(cycle)
    tel.check(k in (4, 5), "cycle-context.length")
    off, inc_flat, nbr_flat = g.csr()
    cset = set(cycle.edges)
    corners = []
    far: dict[int, int] = {}
    for i, v in enumerate(cycle.vertices):
        lo = off[v]
        hi = off[v + 1]
        # the corner's slots hold its edges ascending, each with its far end
        rest = {e: w for e, w in zip(inc_flat[lo:hi], nbr_flat[lo:hi]) if e not in cset}
        if hi - lo != 4 or len(rest) != 2:
            tel.passed("cycle-context.regular-corner", i)
            tel.passed("cycle-context.two-incident", i)
            tel.check(hi - lo == 4, "cycle-context.regular-corner")
            tel.check(False, "cycle-context.two-incident")
        corners.append(tuple(rest))
        far.update(rest)
    tel.passed("cycle-context.regular-corner", k)
    tel.passed("cycle-context.two-incident", k)
    tel.check(len(far) == 2 * k, "cycle-context.incident-distinct")
    if k == 5:
        for i, (s, t) in enumerate(((0, 2), (2, 4), (4, 1), (1, 3))):
            if g.conflicts(corners[s][0], corners[t][1]):
                corners[t] = corners[t][::-1]
                if g.conflicts(corners[s][0], corners[t][1]):
                    tel.passed("cycle-context.separation", i)
                    tel.check(False, "cycle-context.separation")
        tel.passed("cycle-context.separation", 4)
    return corners, far


# ---------------------------------------------------------------------------
# girth 4


def _girth4_cycle(col: PartialColoring, cycle_edges: Sequence[int], tel: Telemetry) -> None:
    """Color the 4-cycle, which every branch leaves at least 4 free colors
    per edge."""
    tel.check_all([col.available_mask(e).bit_count() >= 4 for e in cycle_edges], "girth4.cycle-availability")
    greedy_color(col, sorted(cycle_edges), telemetry=tel, max_color=PALETTE)


def _girth4_with_diagonals(
    g: MultiGraph,
    cycle: CycleDescriptor,
    corners: list[tuple[int, int]],
    far: dict[int, int],
    m: int,
    tel: Telemetry,
    i: int,
    j: int,
) -> Plan:
    """No two edges of the (i, j) pack can share a color, which forces an
    edge between the far ends of each non-adjacent pack pair. Reserving
    those four diagonals until after the cycle keeps the cycle colorable:
    both stay inside every cycle edge's conflict set while uncolored."""
    off, inc_flat, nbr_flat = g.csr()
    diagonals = []
    for p in corners[i]:
        x = far[p]
        for q in corners[j]:
            y = far[q]
            # x's slots ascend by edge id: the first reaching y is the smallest
            d = next((inc_flat[t] for t in range(off[x], off[x + 1]) if nbr_flat[t] == y), None)
            tel.check(d is not None, "girth4.diagonal-exists")
            diagonals.append(d)
    tel.check(len(set(diagonals)) == 4, "girth4.diagonals-distinct")
    diagonals = sorted(diagonals)
    cycle_edges = cycle.edges

    def finish(col):
        _girth4_cycle(col, cycle_edges, tel)
        _check_caps(col.graph, diagonals, (21,) * 4, "girth4.diagonal-neighborhood", diagonals, m, tel)
        greedy_color(col, diagonals, telemetry=tel, max_color=PALETTE)

    return list(cycle_edges) + diagonals, (), finish


def solve_girth4(g: MultiGraph, cycle: CycleDescriptor, m: int, tel: Telemetry) -> Plan:
    """Simple 4-regular, shortest cycle of length 4.

    The eight non-cycle edges at the cycle's corners steer the case split:
    pairs of them sharing a far endpoint ("adjacent pairs", only possible
    within the packs of opposite corners, (0, 2) and (1, 3)) shrink the
    cycle edges' neighborhoods. With fewer than two, each pack without
    one plants a repeated color on its first conflict-free pair (22, and
    21 on the first pack when both are open): every cycle edge sees every
    planted edge, so the repeats leave it at least 4 colors. A pack with
    no free pair has its diagonals reserved instead. The branch depends
    on the structure alone.
    """
    corners, far = label_cycle_context(g, cycle, tel)
    cycle_edges = cycle.edges
    packs = ((0, 2), (1, 3))
    adjacent = [(i, j) for i, j in packs for p in corners[i] for q in corners[j] if far[p] == far[q]]
    # sharing with a neighboring corner would be a triangle
    apart = [far[p] != far[q] for i, j in ((0, 1), (1, 2), (2, 3), (0, 3)) for p in corners[i] for q in corners[j]]
    tel.check_all(apart, "girth4.no-skew-pairs")

    if len(adjacent) >= 2:
        incident = tuple(sorted(far))

        def finish(col):
            caps = (20,) * len(incident)
            _check_caps(col.graph, incident, caps, "girth4.incident-neighborhood", cycle_edges + incident, m, tel)
            greedy_color(col, incident, telemetry=tel, max_color=21)
            _girth4_cycle(col, cycle_edges, tel)

        return list(cycle_edges + incident), (), finish

    plants = []
    for (i, j), color in zip([pk for pk in packs if pk not in adjacent], (22,) if adjacent else (21, 22)):
        pair = next(((p, q) for p in corners[i] for q in corners[j] if not g.conflicts(p, q)), None)
        if pair is None:
            return _girth4_with_diagonals(g, cycle, corners, far, m, tel, i, j)
        plants += [(pair[0], color), (pair[1], color)]
    return list(cycle_edges), plants, lambda col: _girth4_cycle(col, cycle_edges, tel)


# ---------------------------------------------------------------------------
# girth 5


def solve_girth5(g: MultiGraph, cycle: CycleDescriptor, m: int, tel: Telemetry) -> Plan:
    """Simple 4-regular, shortest cycle of length 5.

    Two conflict-free pairs get planted colors (21 on b[0] and the
    opposite cycle edge c[2], 22 on a[4] and b[1], where a[i] and b[i]
    are the first and second edge at corner i), everything off the
    cycle's corners is colored greedily, and the remaining 11 edges are
    finished through a distinct-representative argument on their
    availability sets.
    """
    corners, far = label_cycle_context(g, cycle, tel)
    a, b = zip(*corners)
    c = cycle.edges
    tel.check(not g.conflicts(b[0], c[2]), "girth5.planted-pair-free")
    planted = (b[0], c[2], a[4], b[1])
    ends = {w for e in planted for w in g.endpoints(e)}
    tel.check(len(ends) == 8, "girth5.planted-endpoints-distinct")
    held = sorted(set(c).union(far).difference(planted))
    plants = tuple(zip(planted, (21, 21, 22, 22)))
    return held, plants, lambda col: _complete_girth5(col, c, a, b, m, tel)


def _complete_girth5(
    col: PartialColoring, c: Sequence[int], a: Sequence[int], b: Sequence[int], m: int, tel: Telemetry
) -> None:
    """Finish the 11 uncolored edges around the 5-cycle, given its edges
    c1..c5 (cycle.edges) and the first and second edges a1..a5 and b1..b5
    of its corners (label_cycle_context) as c, a and b, in a component of
    m edges.

    Availability is rich (>= 8 on cycle edges, >= 5 on incident edges,
    checked here). If the sets admit distinct representatives we are done;
    otherwise the subfamily of maximum discrepancy pins down which planted
    repeat rescues the completion. The sets are color masks throughout
    (PartialColoring.available_mask), which hall takes as they are.
    """
    c1, c2, _, c4, c5 = c
    a1, a2, a3, a4, _ = a
    _, _, b3, b4, b5 = b
    cset = set(c)
    incident = sorted(a + b)
    uncolored = [e for e in sorted(cset.union(incident)) if not col.is_colored(e)]
    tel.check(len(uncolored) == 11, "girth5.uncolored-count")
    fam = {e: col.available_mask(e) for e in uncolored}
    labels = ["girth5.cycle-availability" if e in cset else "girth5.incident-availability" for e in uncolored]
    rich = [fam[e].bit_count() >= (8 if e in cset else 5) for e in uncolored]
    n = rich.index(False) if False in rich else len(rich)
    for label in dict.fromkeys(labels[:n]):  # in the order one check per edge enters them
        tel.passed(label, labels[:n].count(label))
    if n < len(rich):
        tel.check(False, labels[n])

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
        _check_caps(col.graph, first, (21,) * len(first), "girth5.subset-neighborhood", uncolored, m, tel)
        greedy_color(col, first, telemetry=tel, max_color=PALETTE)
        rest = [e for e in uncolored if not col.is_colored(e)]
        fam2 = {e: col.available_mask(e) for e in rest}
        sdr2 = find_sdr(fam2)
        tel.check(sdr2 is not None, "girth5.extension")
        for e in rest:
            col.assign(e, sdr2[e])
        return

    tel.check(len(subset) in (9, 10, 11), "girth5.subset-size")
    pairs = [(a1, b3), (a2, b4), (a3, b5)]
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
        pending = [e for e in uncolored if not col.is_colored(e)]
        _check_caps(col.graph, rest, (21,) * len(rest), "girth5.incident-neighborhood", pending, m, tel)
        greedy_color(col, rest, telemetry=tel, max_color=PALETTE)
        tail = [c2, c4, c1, c5] if (p, q) == pairs[1] else [c2, c4, c5, c1]
        greedy_color(col, tail, telemetry=tel, max_color=PALETTE)
        return

    # |subset| == 11 and no pair shares a color: the availability sets of
    # each pair partition the whole union, so a color shared by c1 and a4
    # hits exactly one edge of every pair
    x = common_color(fam, c1, a4)
    tel.check(x is not None, "girth5.crossing-color")
    col.assign(c1, x)
    col.assign(a4, x)
    first_wave = []
    for p, q in pairs:
        holders = [e for e in (p, q) if fam[e] >> x & 1]
        tel.check(len(holders) == 1, "girth5.unique-crossing")
        first_wave.append(holders[0])
    for e in first_wave:
        tel.check(not col.available_mask(e) >> x & 1, "girth5.crossing-blocked")
        greedy_color(col, [e], telemetry=tel, max_color=PALETTE)
    second = [e for p in pairs for e in p if not col.is_colored(e)]
    # the >= 3 bound is a pre-stage guarantee; coloring one second-wave
    # edge may shrink another's set, so check all three up front
    for e in second:
        tel.check(col.available_mask(e).bit_count() >= 3, "girth5.second-wave-availability")
    greedy_color(col, second + [c2, c4, c5], telemetry=tel, max_color=PALETTE)


# ---------------------------------------------------------------------------
# girth 6 and beyond


def solve_girth6(g: MultiGraph, v: int, m: int, tel: Telemetry) -> Plan:
    """Simple 4-regular with girth at least 6: color everything except
    v's edges, then recolor one edge per neighbor (heading to a
    distance-2 vertex, i.e. neither v nor a neighbor of v) with the single
    color 22 -- the girth makes those four pairwise conflict-free -- and
    finish v's edges greedily against the freed-up palette. No cap is
    checked, so the edge count m goes unread."""
    vedges = sorted(set(g.incident_edges(v)))

    def finish(col):
        tel.check(len(vedges) == 4, "girth6.anchor-degree")
        neighbors = sorted({w for e in vedges for w in g.endpoints(e) if w != v})
        tel.check(len(neighbors) == 4, "girth6.neighbors-distinct")
        near = {v, *neighbors}
        off, inc_flat, nbr_flat = g.csr()
        recolored = []
        for i, u in enumerate(neighbors):
            cands = [inc_flat[t] for t in range(off[u], off[u + 1]) if nbr_flat[t] not in near]
            if not cands:
                tel.passed("girth6.distance-two-edge", i)
                tel.check(False, "girth6.distance-two-edge")
            recolored.append(min(cands))
        tel.passed("girth6.distance-two-edge", len(neighbors))
        independent = [not g.conflicts(e, f) for i, e in enumerate(recolored) for f in recolored[:i]]
        tel.check_all(independent, "girth6.recolor-independent")
        for e in recolored:
            col.unassign(e)
        for e in recolored:
            col.assign(e, 22)
        greedy_color(col, vedges, telemetry=tel, max_color=PALETTE)

    return vedges, (), finish


# ---------------------------------------------------------------------------
# fallback and dispatch


def fallback_exact(col: PartialColoring, uncolored) -> PartialColoring:
    """Complete a valid partial coloring in place by backtracking within
    its palette, and return it.

    Most-constrained-first search over at most FALLBACK_LIMIT edges: the
    edge with the fewest free colors (ties to the smaller id) takes each
    of its free colors in turn, lowest first, read off available_mask. This
    is the safety net behind the runtime assertions; it raises
    Unsatisfiable (with the serialized graph) rather than give up quietly,
    at once, without a search, when the edges pairwise conflict and their
    free colors together are fewer than they are. The search uncolors
    every edge it backs out of, so a failed search leaves col as it was.
    """
    todo = sorted(set(uncolored))
    if len(todo) > FALLBACK_LIMIT:
        raise ValueError(f"fallback limited to {FALLBACK_LIMIT} edges, got {len(todo)}")
    for e in todo:
        if col.is_colored(e):
            raise ValueError(f"edge {e} passed as uncolored but has a color")
    reason = f"backtracking completion failed on {len(todo)} edges"
    # edges that pairwise conflict need distinct colors, so with fewer
    # free colors among them all than edges no search can succeed
    free = reduce(or_, map(col.available_mask, todo), 0)
    if free.bit_count() < len(todo) and all(col.graph.conflicts(e, f) for e, f in combinations(todo, 2)):
        raise Unsatisfiable(reason, col.graph)

    def attempt(pending: list[int]) -> bool:
        if not pending:
            return True
        e = min(pending, key=lambda e: (col.available_mask(e).bit_count(), e))
        rest = [f for f in pending if f != e]
        free = col.available_mask(e)
        while free:
            low = free & -free
            free ^= low
            col._set_unchecked(e, low.bit_length() - 1)
            if attempt(rest):
                return True
            col._set_unchecked(e, 0)
        return False

    if attempt(todo):
        return col
    raise Unsatisfiable(reason, col.graph)


_RESCUABLE = (PaletteExhausted, LemmaAssertionError, ConflictError)
_RESUME_CHUNK = 1024


def _reason(exc: Exception) -> str:
    """Why a component failed: the failing lemma's label, or the
    exception's name."""
    return str(exc) if isinstance(exc, LemmaAssertionError) else type(exc).__name__


class _Plans:
    """What the components ask of one solve, kept flat: per component id
    c (components have edges), strategy[c], edges[c] (its edge count),
    cls[c] (1 + its bound class; 0 once its plan failed) and failure[c]
    for a failed c (see _reason);
    the BFS sources in component order; the held-back edges of the plans
    without a finish (the tails, in component order), the other held-back
    and all planted edges, and the finishes as (c, finish)."""

    __slots__ = ("strategy", "edges", "cls", "failure", "sources", "tail", "held", "finishes")

    def __init__(self, k: int, edges: list[int]):
        self.strategy: list[str] = [""] * k
        self.edges = edges
        self.cls = bytearray(k)
        self.failure: dict[int, str] = {}
        self.sources: list[int] = []
        self.tail = array("i")
        self.held = array("i")
        self.finishes: list[tuple[int, Finish]] = []


def _plan_components(g: MultiGraph, comp: list[int], k: int, col: PartialColoring, tel: Telemetry) -> _Plans:
    """Strategy and plan for every component, in component order, with
    the plants placed in col.

    The anchor is the component's smallest vertex of degree 1..3, else its
    smallest loop, else its first parallel pair, else its shortest cycle
    of length <= 5, else (girth >= 6) its smallest vertex, all from one
    scan, whose BFS starts the cap of 5 keeps within radius 2; the same
    walk over the vertices sums each component's degrees, twice its edge
    count (a loop counts 2), which every strategy gets. A vertex
    anchor, a loop's vertex and a parallel pair's smaller end are BFS
    sources, and so are all vertices of a 3-, 4- or 5-cycle. The plan's
    bound class is the one its plants select (BOUND_CLASSES), and its
    planted edges are held back with the others. A strategy or plant that
    raises marks its component failed; the others are unaffected.
    """
    off = g.csr()[0]
    low = [-1] * k  # smallest vertex of degree 1..3
    first = [-1] * k  # smallest vertex
    twice = [0] * k  # degree sum
    degree = list(map(sub, islice(off, 1, None), off))
    for v in compress(range(g.vertex_count), degree):
        c = comp[v]
        d = degree[v]
        twice[c] += d
        if first[c] == -1:
            first[c] = v
        if low[c] == -1 and d <= 3:
            low[c] = v
    cycles = metrics.shortest_cycles(g, comp, [lo == -1 for lo in low], longest=5)

    plans = _Plans(k, [t >> 1 for t in twice])
    edges = plans.edges
    strategy = plans.strategy
    sources = plans.sources
    for c in range(k):
        if low[c] != -1:
            name, run, anchor = "low_degree", solve_low_degree, low[c]
            sources.append(anchor)
        elif cycles[c] is None:
            name, run, anchor = "girth6", solve_girth6, first[c]
            sources.append(anchor)
        else:
            anchor = cycles[c]
            i = len(anchor) - 1
            name = ("loop", "double_edge", "girth3", "girth4", "girth5")[i]
            run = (solve_loop, solve_double_edge, solve_girth3, solve_girth4, solve_girth5)[i]
            sources.extend(anchor.vertices if i > 1 else (min(anchor.vertices),))
        strategy[c] = name
        try:
            held, plants, finish = run(g, anchor, edges[c], tel)
            for e, color in plants:
                col.assign(e, color)
            if finish is None:
                plans.tail.extend(held)
            else:
                plans.held.extend(held)
                plans.finishes.append((c, finish))
            plans.held.extend(e for e, _ in plants)
            plans.cls[c] = 2 if plants else 1
        except _RESCUABLE as exc:
            plans.failure[c] = _reason(exc)
    return plans


def _greedy_pass(
    g: MultiGraph, comp: list[int], plans: _Plans, orders: list[array], col: PartialColoring, tel: Telemetry
) -> None:
    """One greedy_color call per bound class over its order (orders[i] for
    BOUND_CLASSES[i], as metrics.order_by_distance buckets them, without
    held-back edges and failed components), then one over the tails in
    component order within 21 colors (their caps were checked when
    planning). Components never conflict, so each tail gets the colors
    and the checks it would get alone. When a call raises, the failing
    edge is the first uncolored one in its order: its component is
    marked failed, and the call resumes after that edge without the
    failed components' edges, over _RESUME_CHUNK edges of its order at a
    time, so that k failures cost O(m + k * _RESUME_CHUNK) rather than a
    rebuilt order each."""
    eu = g.eu
    colors = col._colors
    failure = plans.failure
    for todo, (conflicts, ceiling) in chain(zip(orders, BOUND_CLASSES), [(plans.tail, (None, 21))]):
        lo = 0
        size = len(todo)
        while lo < len(todo):
            batch = todo[lo : lo + size] if lo else todo
            if failure:
                batch = [e for e in batch if comp[eu[e]] not in failure]
            try:
                greedy_color(col, batch, telemetry=tel, max_conflict_colors=conflicts, max_color=ceiling)
                lo += size
            except _RESCUABLE as exc:
                e = next(e for e in batch if not colors[e])
                failure[comp[eu[e]]] = _reason(exc)
                lo = todo.index(e, lo) + 1
                size = _RESUME_CHUNK


def _rescue_components(
    g: MultiGraph, comp: list[int], plans: _Plans, dist: list[int], col: PartialColoring
) -> None:
    """Recolor each failed component in col: uncolor its edges, run the
    guaranteed greedy phase over its share of the distance order (from
    the BFS distances `dist`) without the edges at the anchor, those with
    an end at distance 0, which the order puts last, then backtrack over
    those. Components never conflict, so each gets the
    colors it would get alone. One metrics.order_by_distance call orders
    the edges of all failed components, and one pass over it groups their
    shares, so the rescues cost O(n + m) however many there are.
    Unsatisfiable carries only the failing component, its vertices
    renumbered in ascending order."""
    if not plans.failure:
        return
    eu = g.eu
    ev = g.ev
    failed = bytearray(len(plans.cls))
    for c in plans.failure:
        failed[c] = 1
    shares: dict[int, list[int]] = {c: [] for c in sorted(plans.failure)}
    for e in metrics.order_by_distance(g, dist, comp, failed)[0]:
        shares[comp[eu[e]]].append(e)
    for c, share in shares.items():
        for e in share:
            col.unassign(e)
        at_anchor = [e for e in share if not (dist[eu[e]] and dist[ev[e]])]
        try:
            greedy_color(col, share[: len(share) - len(at_anchor)])
            fallback_exact(col, at_anchor)
        except (PaletteExhausted, Unsatisfiable) as exc:
            edges = sorted(share)
            local = {v: i for i, v in enumerate(sorted({x for e in edges for x in (eu[e], ev[e])}))}
            part = MultiGraph.from_edges(len(local), [(local[eu[e]], local[ev[e]]) for e in edges])
            if isinstance(exc, PaletteExhausted):
                raise Unsatisfiable("guaranteed greedy phase ran out of colors", part)
            raise Unsatisfiable(exc.reason, part) from None


def _solve_report(
    g: MultiGraph, comp: list[int], k: int, plans: _Plans, col: PartialColoring, tel: Telemetry
) -> SolveReport:
    """The SolveReport: per component, strategy (fallback_exact
    if rescued), edge count (counted when planning) and colors used, and
    the colors used overall. One pass over the vertices with edges reads
    col's color masks: a component's colors are the OR of its vertices'
    masks. col is total, so the vertices with edges are those with a
    nonzero mask, which the pass selects without reading a degree."""
    at = col._masks()
    masks = [0] * k
    for v in compress(range(g.vertex_count), at):
        masks[comp[v]] |= at[v]
    failure = plans.failure
    edges = plans.edges
    return SolveReport(
        components=[
            ComponentReport(
                strategy=name if c not in failure else "fallback_exact",
                edge_count=edges[c],
                colors_used=masks[c].bit_count(),
                failure=failure.get(c),
            )
            for c, name in enumerate(plans.strategy)
        ],
        colors_used=reduce(or_, masks, 0).bit_count(),
        assertions_checked=tel.checks,
        fallback_invocations=len(failure),
        labels=dict(tel.labels),
    )


def solve(g: MultiGraph) -> tuple[PartialColoring, SolveReport]:
    """Strong edge-coloring with at most 22 colors.

    One pass over the whole graph and its edge ids: label the components
    once (metrics.label_components, which `strongcolor stats` shares);
    plan every component with edges (strategy, held-back edges, planted
    colors and finish, with the bound class its plants select), checking
    the tail strategies' lemma caps from the structure, and place its
    planted colors; run one BFS from all anchors; bucket the edges once
    (metrics.order_by_distance) into a distance order per bound class,
    without the held-back edges and the failed components; make one
    greedy_color call per bound class and one over all tails; then run
    the finishes of the girth 4, 5 and 6 components, which keep only the
    ids they read. Conflicts never cross components, so every
    component gets the coloring it would get alone. A component whose
    plan, greedy share, tail or finish fails a check is recolored in the
    same coloring by a greedy phase and the backtracking fallback; the
    others keep theirs.

    The report lists the strategy used for each component with edges, the
    assertions exercised, per label and in total, and how often the
    fallback fired (expected 0); its colors are read from the coloring's
    masks before they are dropped.
    """
    if g.max_degree() > 4:
        v = next(v for v in range(g.vertex_count) if g.degree(v) > 4)
        raise MaxDegreeExceeded(v, g.degree(v))
    tel = Telemetry()
    col = PartialColoring(g, PALETTE)
    comp, k = metrics.label_components(g)
    plans = _plan_components(g, comp, k, col, tel)
    dist = metrics.bfs_from_sources(g, plans.sources)
    orders = metrics.order_by_distance(g, dist, comp, plans.cls, chain(plans.tail, plans.held))
    _greedy_pass(g, comp, plans, orders, col, tel)
    for c, finish in plans.finishes:
        if c not in plans.failure:
            try:
                finish(col)
            except _RESCUABLE as exc:
                plans.failure[c] = _reason(exc)
    _rescue_components(g, comp, plans, dist, col)
    report = _solve_report(g, comp, k, plans, col, tel)
    col._at = None  # the masks served the pass and the report; a caller's first query rebuilds them
    return col, report
