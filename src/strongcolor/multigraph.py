"""Undirected multigraphs with loops and parallel edges.

Vertices and edges use dense integer ids; edge ids follow the order given.
The conflict relation (edges within distance one of each other) is what the
coloring machinery is built on: two edges conflict when they share an
endpoint or are joined by a third edge.
"""

from __future__ import annotations

from array import array
from itertools import accumulate
from operator import sub


class MultiGraph:
    """Immutable: built whole in one call, never changed afterwards.

    The graph is typed arrays only: endpoint arrays `eu`/`ev` indexed by
    edge id, and a compressed incidence structure (CSR) built on the
    first incidence query: vertex v's incidences are slots
    off[v]:off[v+1], where inc_flat holds the edge id (ascending) and
    nbr_flat the far endpoint. A loop (u == v) takes two slots at its
    vertex and so counts 2 toward the degree. Parallel edges are
    distinct ids with equal endpoint pairs. Treat every array handed out
    as read-only.
    """

    __slots__ = ("vertex_count", "eu", "ev", "_csr")

    def __init__(self, vertex_count: int, eu: array | None = None, ev: array | None = None):
        """Graph over the endpoint arrays ("i" typecode), which it takes
        over; edge e joins eu[e] and ev[e]. Omitted arrays mean no edges."""
        if vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        eu = array("i") if eu is None else eu
        ev = array("i") if ev is None else ev
        if len(eu) != len(ev):
            raise ValueError("endpoint arrays differ in length")
        n = vertex_count
        if eu and not (0 <= min(min(eu), min(ev)) and max(max(eu), max(ev)) < n):
            u, v = next((u, v) for u, v in zip(eu, ev) if not (0 <= u < n and 0 <= v < n))
            raise IndexError(f"vertex id out of range: ({u}, {v})")
        self.vertex_count = vertex_count
        self.eu = eu
        self.ev = ev
        self._csr: tuple[array, array, array] | None = None

    @classmethod
    def from_edges(cls, vertex_count: int, edges) -> MultiGraph:
        edges = list(edges)
        return cls(vertex_count, array("i", [u for u, _ in edges]), array("i", [v for _, v in edges]))

    @property
    def edge_count(self) -> int:
        return len(self.eu)

    @property
    def edges(self) -> list[tuple[int, int]]:
        """Endpoint pairs indexed by edge id, as a fresh list."""
        return list(zip(self.eu, self.ev))

    def endpoints(self, e: int) -> tuple[int, int]:
        return self.eu[e], self.ev[e]

    def is_loop(self, e: int) -> bool:
        return self.eu[e] == self.ev[e]

    def csr(self) -> tuple[array, array, array]:
        """(off, inc_flat, nbr_flat), built on the first call: a counting
        sort of the edge ends by vertex."""
        if self._csr is not None:
            return self._csr
        n = self.vertex_count
        eu = self.eu
        ev = self.ev
        deg = [0] * n
        for u in eu:
            deg[u] += 1
        for v in ev:
            deg[v] += 1
        off = array("i", accumulate(deg, initial=0))
        fill = off.tolist()
        inc_flat = array("i", bytes(8 * len(eu)))
        nbr_flat = array("i", bytes(8 * len(eu)))
        e = 0
        for a, b in zip(eu, ev):
            i = fill[a]
            fill[a] = i + 1
            inc_flat[i] = e
            nbr_flat[i] = b
            i = fill[b]
            fill[b] = i + 1
            inc_flat[i] = e
            nbr_flat[i] = a
            e += 1
        self._csr = (off, inc_flat, nbr_flat)
        return self._csr

    def flat_arrays(self) -> tuple[array, array, array, array]:
        """(eu, ev, nbr_flat, off): the endpoint arrays and the CSR
        neighbor slots, v's neighbors being nbr_flat[off[v]:off[v+1]]."""
        off, _, nbr_flat = self.csr()
        return self.eu, self.ev, nbr_flat, off

    def degree(self, v: int) -> int:
        off = self.csr()[0]
        return off[v + 1] - off[v]

    def incident_edges(self, v: int) -> list[int]:
        """Edge ids at v, ascending; a loop appears twice."""
        off, inc_flat, _ = self.csr()
        return inc_flat[off[v] : off[v + 1]].tolist()

    def max_degree(self) -> int:
        off = self.csr()[0]
        return max(map(sub, off[1:], off), default=0)

    def min_degree(self) -> int:
        off = self.csr()[0]
        return min(map(sub, off[1:], off), default=0)

    def conflict_set(self, e: int) -> set[int]:
        """All edges within distance one of e (e itself excluded).

        This is the set of edges that must avoid e's color: edges sharing
        an endpoint with e, plus edges sharing an endpoint with one of
        those, which is the union of inc(y) over the neighbors y of e's
        endpoints (every edge at an endpoint x lies in inc of its far
        end). With max degree 4 the result has at most 24 members.
        """
        off, inc_flat, nbr_flat = self.csr()
        out: set[int] = set()
        for x in (self.eu[e], self.ev[e]):
            for y in nbr_flat[off[x] : off[x + 1]]:
                out.update(inc_flat[off[y] : off[y + 1]])
        out.discard(e)
        return out

    def conflicts(self, p: int, q: int) -> bool:
        """Whether q is in p's conflict set: q != p, and an end of q is a
        neighbor of an end of p. Reads the neighbor slices of p's two
        ends and builds no set."""
        if p == q:
            return False
        off, _, nbr_flat = self.csr()
        c = self.eu[q]
        d = self.ev[q]
        for x in (self.eu[p], self.ev[p]):
            near = nbr_flat[off[x] : off[x + 1]]
            if c in near or d in near:
                return True
        return False

    def __repr__(self) -> str:
        return f"MultiGraph(n={self.vertex_count}, m={self.edge_count})"
