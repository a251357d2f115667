"""Distance classes, compatible edge orders, and shortest cycles."""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from operator import eq

from .multigraph import MultiGraph


@dataclass(frozen=True, slots=True)
class CycleDescriptor:
    """A closed walk with distinct vertices; edges[i] joins vertices[i]
    and vertices[(i+1) % k]. A loop is the length-1 cycle, a parallel
    pair the length-2 cycle."""

    vertices: tuple[int, ...]
    edges: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.edges)


class DisconnectedGraphError(ValueError):
    """An edge has an endpoint that the BFS from the anchor did not reach."""


def bfs_from_sources(g: MultiGraph, starts) -> list[int]:
    """BFS distances from a set of start vertices; unreached stay -1."""
    dist = [-1] * g.vertex_count
    q = deque()
    for s in starts:
        if dist[s] == -1:
            dist[s] = 0
            q.append(s)
    _, _, nbr_flat, nbr_off = g.flat_arrays()
    while q:
        x = q.popleft()
        d = dist[x] + 1
        for y in nbr_flat[nbr_off[x] : nbr_off[x + 1]]:
            if dist[y] == -1:
                dist[y] = d
                q.append(y)
    return dist


def order_by_distance(g: MultiGraph, dist: list[int]) -> array:
    """Edge ids sorted by nonincreasing distance class (the distance of
    the closer endpoint), given BFS distances, as a compact array. An
    edge with an unreached endpoint (-1) lands in the extra last bucket
    and raises."""
    eu = g.eu
    ev = g.ev
    maxd = max(dist, default=0)
    buckets = [array("i") for _ in range(maxd + 2)]
    for e in range(g.edge_count):
        du = dist[eu[e]]
        dv = dist[ev[e]]
        buckets[du if du < dv else dv].append(e)
    if buckets[-1]:
        raise DisconnectedGraphError(f"edge {buckets[-1][0]} has an endpoint unreached by the BFS")
    out = array("i")
    for c in range(maxd, -1, -1):
        out += buckets[c]
    return out


def find_shortest_cycle(g: MultiGraph) -> CycleDescriptor | None:
    """Shortest cycle as a descriptor, or None for a forest: the
    one-component case of shortest_cycles."""
    return shortest_cycles(g, [0] * g.vertex_count, [True])[0]


def shortest_cycles(g: MultiGraph, comp, wanted, longest=None) -> list[CycleDescriptor | None]:
    """Shortest cycle of every component c with wanted[c], from one scan
    of the graph; None for the other components, for forests and for
    girths above `longest`.

    comp[v] is the component id of vertex v. Conventions, per component:
    the loop with the smallest edge id is a 1-cycle, else the first
    parallel pair (by smallest later edge id) a 2-cycle; both are found
    before any BFS. A simple component gets one BFS per start vertex, in
    ascending order, and the first strictly shortest closing edge wins
    (Itai and Rodeh). Each BFS stops at the first level dx with
    2 * dx + 1 >= its component's best so far: a closing edge scanned
    there closes a walk of at least that length, except one back to
    level dx - 1, which was already seen from that level. Only the
    vertices it reached are reset, so a start costs the ball of radius
    about half the current best: O(n * 3^(g/2)) in total at degree 4,
    where g = min(girth, longest).

    Each BFS visits its start s and the vertices above s only, and that
    changes no result. A closing edge of length L closes a walk through s
    that contains a cycle of length <= L, and when L is the girth g the
    walk is itself a g-cycle through s. So the scan first reaches g at
    s*, the smallest vertex on any g-cycle, whether restricted or not,
    and takes the witness from the BFS at s*. There every shortest path
    from s* to a vertex of a closed walk of length g stays above s* (two
    such paths would close a cycle of length at most g through s*), so
    those vertices keep their parents and their order in the queue: the
    restricted BFS meets the unrestricted one's first closing edge of
    length g first, with the same tree paths, and the descriptor is the
    same. Each cycle is searched from its smallest vertex only: on the
    12,000 components of the benchmark's small_components graph the scan
    reads 323k neighbor slices, against 522k unrestricted.
    """
    found: list[CycleDescriptor | None] = [None] * len(wanted)
    if not any(wanted):
        return found
    n = g.vertex_count
    eu = g.eu
    ev = g.ev
    loops = bytes(map(eq, eu, ev))
    e = loops.find(1)
    while e >= 0:
        c = comp[eu[e]]
        if wanted[c] and found[c] is None:
            found[c] = CycleDescriptor((eu[e],), (e,))
        e = loops.find(1, e + 1)
    # a parallel pair shows as a repeated neighbor in the CSR; per
    # component keep the pair whose later edge id is smallest
    off, inc_flat, nbr_flat = g.csr()
    pairs: dict[int, tuple[int, int]] = {}
    for x in range(n):
        c = comp[x]
        if not wanted[c] or found[c] is not None:
            continue
        lo = off[x]
        nbrs = nbr_flat[lo : off[x + 1]]
        if len(set(nbrs)) == len(nbrs):
            continue
        for w in set(nbrs):
            if w > x and nbrs.count(w) > 1:
                i, j = [inc_flat[lo + t] for t, y in enumerate(nbrs) if y == w][:2]
                if c not in pairs or j < pairs[c][1]:
                    pairs[c] = (i, j)
    for c, (i, j) in pairs.items():
        found[c] = CycleDescriptor((eu[i], ev[i]), (i, j))

    bests = [(n if longest is None else longest) + 1] * len(wanted)  # longer than any cycle sought
    walks: list[list[int] | None] = [None] * len(wanted)  # closed walk of length bests[c]
    searching = [w and f is None for w, f in zip(wanted, found)]
    dist = [-1] * n
    par = [-1] * n  # BFS parent; the components searched here are simple
    for s in range(n):
        c = comp[s]
        if not searching[c]:
            continue
        best = bests[c]
        dist[s] = 0
        par[s] = -1
        closing = None
        reached = [s]  # the BFS queue, and the slots to reset afterwards
        for x in reached:
            dx = dist[x]
            if 2 * dx + 1 >= best:
                break  # no closing edge from here on can improve on best
            # a vertex first seen on level dx + 1 closes walks of length
            # >= 2 * dx + 2 and is never expanded, so that level is only
            # grown while it can still improve on best
            grow = 2 * dx + 2 < best
            px = par[x]
            for y in nbr_flat[off[x] : off[x + 1]]:
                if dist[y] == -1:
                    if grow and y > s:
                        dist[y] = dx + 1
                        par[y] = x
                        reached.append(y)
                elif y != px and par[y] != x:
                    cand = dx + dist[y] + 1
                    if cand < best:
                        best = cand
                        closing = (x, y)
        if closing is not None:
            bests[c] = best
            f = _edge_between(g, *closing)
            walks[c] = _splice(par, s, eu[f], ev[f])
            searching[c] = best > 3  # girth cannot beat 3 in a simple graph
        for x in reached:
            dist[x] = -1

    for c, walk in enumerate(walks):
        if walk is None:
            continue
        # A closed walk found earlier can repeat vertices (its two tree
        # paths may share a prefix); the shortest one never does.
        if len(set(walk)) != len(walk) or len(walk) != bests[c]:
            raise RuntimeError("shortest-cycle search produced a non-simple walk")
        edges = tuple(_edge_between(g, a, b) for a, b in zip(walk, walk[1:] + walk[:1]))
        found[c] = CycleDescriptor(tuple(walk), edges)
    return found


def _edge_between(g: MultiGraph, a: int, b: int) -> int:
    """The edge joining a and b in a simple graph."""
    off, inc_flat, nbr_flat = g.csr()
    lo = off[a]
    return inc_flat[lo + nbr_flat[lo : off[a + 1]].index(b)]


def _splice(par, s: int, x: int, y: int) -> list[int]:
    """The closed walk s .. x, edge (x, y), y .. s along the BFS tree
    `par`, as its vertex list starting at s."""
    halves = []
    for v in (x, y):
        verts = [v]
        while v != s:
            v = par[v]
            verts.append(v)
        halves.append(verts)
    vx, vy = halves
    return vx[::-1] + vy[:-1]


def girth(g: MultiGraph) -> int | None:
    """Length of a shortest cycle; None for forests."""
    c = find_shortest_cycle(g)
    return None if c is None else len(c)
