"""Partial strong edge-colorings and the greedy coloring step.

Colors are 1-based; 0 is the internal "uncolored" sentinel. A coloring is
valid when no two conflicting edges (distance <= 1 in the line-graph
sense) share a color.
"""

from __future__ import annotations

from array import array
from itertools import compress

from .multigraph import MultiGraph


class PaletteExhausted(Exception):
    """Greedy found no free color for an edge within the palette."""

    def __init__(self, edge: int, palette_size: int):
        self.edge = edge
        self.palette_size = palette_size
        super().__init__(f"no color in 1..{palette_size} free for edge {edge}")


class ConflictError(ValueError):
    """Attempt to assign a color already used inside the conflict set."""


class PartialColoring:
    """Color assignment for a fixed graph and palette.

    Mutable by design: every write updates it in place. assign enforces
    validity. greedy_color writes the color list directly, with a color
    free of every colored conflict; parse_coloring stores a file as given,
    for verify to check; fallback_exact's search and the exact oracle's
    witness go through _set_unchecked.

    Conflict queries (available_mask, assign, greedy_color) read one
    per-vertex mask array, _at[x] holding bit c when an edge at x has
    color c. The first query builds it from the colored edges only, and
    raises ValueError if a color above 62 is present; every write keeps it
    exact: a color given to an uncolored edge ORs its bit in at the edge's
    ends (assign, greedy_color), any other write through unassign or
    _set_unchecked recomputes the ends' masks, and a write above 62 drops
    the array.
    """

    __slots__ = ("graph", "palette_size", "_colors", "_at")

    def __init__(self, graph: MultiGraph, palette_size: int):
        if palette_size < 1:
            raise ValueError("palette_size must be >= 1")
        self.graph = graph
        self.palette_size = palette_size
        self._colors = [0] * graph.edge_count
        self._at: array | None = None

    def is_colored(self, e: int) -> bool:
        return self._colors[e] != 0

    def is_total(self) -> bool:
        return all(self._colors)

    def uncolored_edges(self) -> list[int]:
        return [e for e, c in enumerate(self._colors) if c == 0]

    def _masks(self) -> array:
        at = self._at
        if at is None:
            g = self.graph
            if max(self._colors, default=0) > 62:
                raise ValueError(f"conflict queries need colors <= 62, found {max(self._colors)}")
            at = self._at = array("q", bytes(8 * g.vertex_count))
            colors = self._colors
            eu = g.eu
            ev = g.ev
            for e in compress(range(len(colors)), colors):
                bit = 1 << colors[e]
                at[eu[e]] |= bit
                at[ev[e]] |= bit
        return at

    def _conflict_colors(self, e: int) -> int:
        """Mask of the colors on the edges conflicting with the uncolored
        e: the OR of the masks at the neighbors of e's ends."""
        at = self._masks()
        g = self.graph
        off, _, nbr_flat = g.csr()
        used = 0
        for x in (g.eu[e], g.ev[e]):
            for y in nbr_flat[off[x] : off[x + 1]]:
                used |= at[y]
        return used

    def available_mask(self, e: int) -> int:
        """The palette colors not used on any edge conflicting with e, as
        a mask: bit c set when color c is free."""
        if self._colors[e]:
            raise ValueError(f"edge {e} is already colored")
        return ((1 << (self.palette_size + 1)) - 2) & ~self._conflict_colors(e)

    def assign(self, e: int, c: int) -> None:
        if not (1 <= c <= self.palette_size):
            raise ValueError(f"color {c} outside palette 1..{self.palette_size}")
        if self._colors[e]:
            raise ValueError(f"edge {e} is already colored")
        if self._conflict_colors(e) >> c & 1:
            f = min(f for f in self.graph.conflict_set(e) if self._colors[f] == c)
            raise ConflictError(f"color {c} already on conflicting edge {f} (assigning edge {e})")
        self._set_unchecked(e, c)

    def unassign(self, e: int) -> None:
        self._set_unchecked(e, 0)

    def _set_unchecked(self, e: int, c: int) -> None:
        colors = self._colors
        old = colors[e]
        colors[e] = c
        at = self._at
        if c > 62:
            self._at = None
        elif at is not None:
            g = self.graph
            if not old:  # coloring an uncolored edge only adds its bit
                if c:
                    at[g.eu[e]] |= 1 << c
                    at[g.ev[e]] |= 1 << c
                return
            off, inc_flat, _ = g.csr()
            for x in (g.eu[e], g.ev[e]):
                mask = 0
                for f in inc_flat[off[x] : off[x + 1]]:
                    mask |= 1 << colors[f]
                at[x] = mask & ~1  # bit 0 would be the uncolored edges


def greedy_color(
    col: PartialColoring,
    order: list[int],
    *,
    telemetry=None,
    max_conflict_colors: int | None = None,
    max_color: int | None = None,
) -> PartialColoring:
    """Assign each edge in order the least color free in its conflict set.

    Edges in `order` must be uncolored. Raises PaletteExhausted when an
    edge has no free color. The two optional bounds turn counting claims
    into checks: max_conflict_colors caps the number of distinct colors
    seen among colored conflicting edges, max_color caps the assigned
    color; violations raise through telemetry.check, and the passed
    checks are recorded per label with one telemetry.passed call each
    when the call ends, also when it raises.

    Conflict colors come from col's per-vertex masks, into which each new
    color is ORed. Palettes are capped at 62 colors so the masks fit
    machine words; that is far above the 25 any greedy order can need at
    max degree 4.

    Args:
        col: coloring to extend in place (also returned).
        order: edge ids, typically a distance order from
            metrics.order_by_distance.
    """
    g = col.graph
    colors = col._colors
    palette = col.palette_size
    if palette > 62:
        raise ValueError(f"greedy palette capped at 62 colors, got {palette}")
    full = (1 << (palette + 1)) - 2  # bits 1..palette
    check_bound = max_conflict_colors is not None and telemetry is not None
    check_ceiling = max_color is not None and telemetry is not None
    bound_hits = 0
    ceiling_hits = 0

    # col._conflict_colors inlined for speed
    eu, ev, nbr_flat, nbr_off = g.flat_arrays()
    at_v = col._masks()

    try:
        for e in order:
            if colors[e]:
                raise ValueError(f"edge {e} in greedy order is already colored")
            u = eu[e]
            v = ev[e]
            used = 0  # the neighbors of e's ends include both ends
            for y in nbr_flat[nbr_off[u] : nbr_off[u + 1]]:
                used |= at_v[y]
            for y in nbr_flat[nbr_off[v] : nbr_off[v + 1]]:
                used |= at_v[y]
            free = full & ~used
            if check_bound:
                if used.bit_count() > max_conflict_colors:
                    telemetry.check(False, "greedy.conflict-color-bound")
                bound_hits += 1
            if not free:
                raise PaletteExhausted(e, palette)
            c = (free & -free).bit_length() - 1
            if check_ceiling:
                if c > max_color:
                    telemetry.check(False, "greedy.color-ceiling")
                ceiling_hits += 1
            colors[e] = c
            bit = 1 << c
            at_v[u] |= bit
            at_v[v] |= bit
    finally:
        # passed checks are recorded in bulk instead of one call per edge;
        # a failing check above is counted by telemetry.check itself
        if telemetry is not None:
            telemetry.passed("greedy.conflict-color-bound", bound_hits)
            telemetry.passed("greedy.color-ceiling", ceiling_hits)
    return col


def verify(col: PartialColoring) -> list[tuple[int, int, int]]:
    """All conflicting same-colored pairs as (e, f, color) with e < f,
    ordered by e, then f.

    Empty result means the partial coloring is valid. Edges e and f
    conflict iff both lie in inc(a) | inc(b) for some edge h = (a, b), so
    a coloring is valid iff every vertex is rainbow (no color on two
    distinct edges there; a loop counts once) and, for every non-loop
    edge (a, b), the colors seen at both a and b are exactly the colors
    on the edges joining a and b.

    Both conditions are checked with per-vertex color masks, kept in
    plain lists, in two O(n + m) passes over the edges, whatever the
    color values: when no color exceeds 62, color c takes mask bit c;
    otherwise the distinct colors are numbered and number i takes bit
    i mod 63. A shared bit can only flag extra vertices, never hide a
    conflict. Edges whose own bit is not the whole shared mask of their
    ends (on a valid coloring, only parallel edges) are grouped by
    endpoint pair, and a pair is flagged when their bits together are
    not that mask; this may also flag the ends of an uncolored edge
    parallel to a colored one. The exact conflict-set listing then runs
    only for colored edges at a flagged vertex, in ascending edge order,
    so a valid coloring with at most 63 colors makes no conflict-set
    query at all. On `random_max4` at n = 1e5 (m = 1.75e5) a valid
    coloring takes about 0.09 s (Python 3.11 on a shared 2-core Xeon VM).
    """
    g = col.graph
    colors = col._colors
    eu = g.eu
    ev = g.ev
    n = g.vertex_count
    top = max(colors, default=0)
    if top <= 62:
        bit_of = [1 << c for c in range(top + 1)]
    else:
        bit_of = {c: 1 << (i % 63) for i, c in enumerate(set(colors) - {0})}
    bit_of[0] = 0

    # at[x]: colors on the edges at x; dup[x]: colors met twice there.
    # Lists, not arrays: an array read boxes a new int every time.
    at = [0] * n
    dup = [0] * n
    for u, v, c in zip(eu, ev, colors):
        if c:
            bit = bit_of[c]
            dup[u] |= at[u] & bit
            at[u] |= bit
            if v != u:
                dup[v] |= at[v] & bit
                at[v] |= bit

    flagged = bytearray(map(bool, dup))
    joining: dict[int, int] = {}  # pair a * n + b (a < b) -> OR of the bits
    for a, b, c in zip(eu, ev, colors):
        if a != b and at[a] & at[b] != bit_of[c]:
            key = a * n + b if a < b else b * n + a
            joining[key] = joining.get(key, 0) | bit_of[c]
    for key, bits in joining.items():
        a, b = divmod(key, n)
        if at[a] & at[b] != bits:
            flagged[a] = flagged[b] = 1
    if 1 not in flagged:
        return []

    out = []
    for e, (u, v, c) in enumerate(zip(eu, ev, colors)):
        if c and (flagged[u] or flagged[v]):
            hits = [f for f in g.conflict_set(e) if f > e and colors[f] == c]
            for f in sorted(hits):
                out.append((e, f, c))
    return out
