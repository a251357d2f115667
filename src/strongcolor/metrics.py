"""Distance classes, compatible edge orders, and shortest cycles."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Union

from .multigraph import MultiGraph


@dataclass(frozen=True)
class CycleDescriptor:
    """A closed walk with distinct vertices; edges[i] joins vertices[i]
    and vertices[(i+1) % k]. A loop is the length-1 cycle, a parallel
    pair the length-2 cycle."""

    vertices: tuple[int, ...]
    edges: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.edges)


Anchor = Union[int, CycleDescriptor]


class DisconnectedGraphError(ValueError):
    """An edge-bearing vertex is unreachable from the anchor."""


def bfs_distances(g: MultiGraph, anchor: Anchor) -> list[int]:
    """Distance from every vertex to the anchor (vertex or cycle).

    Isolated vertices keep the sentinel -1; a vertex that has edges but
    cannot be reached raises DisconnectedGraphError, since coloring logic
    anchored here would silently mis-order such edges.
    """
    if isinstance(anchor, CycleDescriptor):
        starts = anchor.vertices
    else:
        starts = (anchor,)
    dist = bfs_from_sources(g, starts)
    off = g.csr()[0]
    for v, d in enumerate(dist):
        if d == -1 and off[v] != off[v + 1]:
            raise DisconnectedGraphError(f"vertex {v} has edges but is unreachable from the anchor")
    return dist


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


def compatible_order(g: MultiGraph, anchor: Anchor) -> list[int]:
    """All edge ids sorted by nonincreasing distance class from the anchor.

    Ties break by ascending edge id, so the order is fully deterministic.
    Coloring edges in this order guarantees that whenever an edge is
    reached, everything strictly closer to the anchor is still uncolored.
    Bucket sort keeps this linear in the graph size.
    """
    return order_by_distance(g, bfs_distances(g, anchor))


def order_by_distance(g: MultiGraph, dist: list[int]) -> list[int]:
    """Edge ids sorted by nonincreasing distance class (the distance of
    the closer endpoint), given BFS distances. An edge with an unreached
    endpoint (-1) lands in the extra last bucket and raises."""
    eu = g.eu
    ev = g.ev
    maxd = max(dist, default=0)
    buckets: list[list[int]] = [[] for _ in range(maxd + 2)]
    for e in range(g.edge_count):
        du = dist[eu[e]]
        dv = dist[ev[e]]
        buckets[du if du < dv else dv].append(e)
    if buckets[-1]:
        raise DisconnectedGraphError(f"edge {buckets[-1][0]} has an endpoint unreached by the BFS")
    out: list[int] = []
    for c in range(maxd, -1, -1):
        out.extend(buckets[c])
    return out


def find_shortest_cycle(g: MultiGraph) -> CycleDescriptor | None:
    """Shortest cycle as a descriptor, or None for a forest.

    Conventions: a loop is a 1-cycle and a parallel pair a 2-cycle; both
    are checked before any BFS. A simple graph gets one BFS per start
    vertex, in ascending order, and the first strictly shortest closing
    edge wins (Itai and Rodeh). Each BFS stops once no closing edge can
    beat the best so far, and only the vertices it reached are reset, so
    a start costs the ball up to the current best radius: O(n * 3^(g/2))
    in total at degree 4, where g is the girth.
    """
    e = g.find_loop()
    if e is not None:
        v, _ = g.endpoints(e)
        return CycleDescriptor((v,), (e,))
    pair = g.find_parallel_pair()
    if pair is not None:
        u, v = g.endpoints(pair[0])
        return CycleDescriptor((u, v), pair)

    off, inc_flat, nbr_flat = g.csr()
    n = g.vertex_count
    dist = [-1] * n
    par = [-1] * n  # BFS parent; the graph is simple from here on
    best = n + 1  # longer than any cycle
    walk = None  # vertices of the closed walk of length best

    for s in range(n):
        if best == 3:
            break  # girth cannot beat 3 in a simple graph
        dist[s] = 0
        par[s] = -1
        closing = None
        reached = [s]  # the BFS queue, and the slots to reset afterwards
        for x in reached:
            dx = dist[x]
            if 2 * dx >= best:
                break  # even a level-up closing edge cannot improve on best
            # a vertex first seen on level dx + 1 closes walks of length
            # >= 2 * dx + 2 and is never expanded, so that level is only
            # grown while it can still improve on best
            grow = 2 * dx + 2 < best
            px = par[x]
            for y in nbr_flat[off[x] : off[x + 1]]:
                if dist[y] == -1:
                    if grow:
                        dist[y] = dx + 1
                        par[y] = x
                        reached.append(y)
                elif y != px and par[y] != x:
                    cand = dx + dist[y] + 1
                    if cand < best:
                        best = cand
                        closing = (x, y)
        if closing is not None:
            f = _edge_between(g, *closing)
            walk = _splice(par, s, g.eu[f], g.ev[f])
        for x in reached:
            dist[x] = -1

    if walk is None:
        return None
    # A closed walk found earlier can repeat vertices (its two tree paths
    # may share a prefix); the shortest one never does.
    if len(set(walk)) != len(walk) or len(walk) != best:
        raise RuntimeError("shortest-cycle search produced a non-simple walk")
    edges = tuple(_edge_between(g, a, b) for a, b in zip(walk, walk[1:] + walk[:1]))
    return CycleDescriptor(tuple(walk), edges)


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
