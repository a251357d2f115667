"""Shared builders and reference implementations for the test suite.

The reference functions here are deliberately naive re-implementations of
the library's definitions (path enumeration, assignment enumeration) so
that the optimized code is checked against something independent.
"""

from __future__ import annotations

import random
from array import array
from collections import deque

from strongcolor import MultiGraph, PartialColoring, greedy_color, metrics
from strongcolor.metrics import CycleDescriptor


def path(n: int) -> MultiGraph:
    """Path on n vertices (n - 1 edges)."""
    g = MultiGraph(n)
    for i in range(n - 1):
        g.add_edge(i, i + 1)
    return g.freeze()


def cycle(k: int) -> MultiGraph:
    g = MultiGraph(k)
    for i in range(k):
        g.add_edge(i, (i + 1) % k)
    return g.freeze()


def complete(n: int) -> MultiGraph:
    g = MultiGraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            g.add_edge(u, v)
    return g.freeze()


def complete_bipartite(a: int, b: int) -> MultiGraph:
    g = MultiGraph(a + b)
    for u in range(a):
        for v in range(b):
            g.add_edge(u, a + v)
    return g.freeze()


def star(leaves: int) -> MultiGraph:
    g = MultiGraph(leaves + 1)
    for i in range(leaves):
        g.add_edge(0, 1 + i)
    return g.freeze()


def hypercube4() -> MultiGraph:
    """4-dimensional hypercube: 4-regular, girth 4, 16 vertices."""
    g = MultiGraph(16)
    for v in range(16):
        for bit in range(4):
            w = v ^ (1 << bit)
            if v < w:
                g.add_edge(v, w)
    return g.freeze()


def triangle_with_loops() -> MultiGraph:
    """Triangle plus one loop per vertex: 4-regular with loops."""
    g = MultiGraph(3)
    for i in range(3):
        g.add_edge(i, (i + 1) % 3)
    for i in range(3):
        g.add_edge(i, i)
    return g.freeze()


def doubled_triangle() -> MultiGraph:
    """Every triangle edge doubled: 4-regular with parallel pairs."""
    g = MultiGraph(3)
    for i in range(3):
        g.add_edge(i, (i + 1) % 3)
        g.add_edge(i, (i + 1) % 3)
    return g.freeze()


def two_loops_one_vertex() -> MultiGraph:
    g = MultiGraph(1)
    g.add_edge(0, 0)
    g.add_edge(0, 0)
    return g.freeze()


def disjoint_union(*graphs: MultiGraph) -> MultiGraph:
    out = MultiGraph(sum(g.vertex_count for g in graphs))
    base = 0
    for g in graphs:
        for u, v in g.edges:
            out.add_edge(base + u, base + v)
        base += g.vertex_count
    return out.freeze()


def cayley_sl2(p: int) -> MultiGraph:
    """Cayley graph of SL(2, p) for a prime p >= 5 with generators
    [[1,2],[0,1]] and [[1,0],[2,1]]: simple, 4-regular and connected,
    with p * (p * p - 1) vertices numbered in BFS order from the identity
    and a large girth (10 at p = 13). Each vertex x gets the edges to x*A
    and x*B, in vertex order."""
    gens = ((1, 2, 0, 1), (1, 0, 2, 1))

    def times(x, y):
        a, b, c, d = x
        e, f, g, h = y
        return ((a * e + b * g) % p, (a * f + b * h) % p, (c * e + d * g) % p, (c * f + d * h) % p)

    ident = (1, 0, 0, 1)
    inverses = tuple((d, -b % p, -c % p, a) for a, b, c, d in gens)
    ids = {ident: 0}
    queue = deque([ident])
    while queue:
        x = queue.popleft()
        for y in gens + inverses:
            z = times(x, y)
            if z not in ids:
                ids[z] = len(ids)
                queue.append(z)
    g = MultiGraph(len(ids))
    for x in ids:
        for y in gens:
            g.add_edge(ids[x], ids[times(x, y)])
    return g.freeze()


def random_multigraph(seed: int, max_n: int = 16, max_m: int = 28) -> MultiGraph:
    """Arbitrary small multigraph with max degree 4, loops and parallels."""
    rng = random.Random(seed)
    n = rng.randint(1, max_n)
    g = MultiGraph(n)
    for _ in range(rng.randint(0, max_m)):
        u = rng.randrange(n)
        v = rng.randrange(n)
        cost_u = 2 if u == v else 1
        if g.degree(u) + cost_u > 4 or (u != v and g.degree(v) >= 4):
            continue
        g.add_edge(u, v)
    return g.freeze()


def components(g: MultiGraph) -> list[list[int]]:
    """Vertex groups, each sorted ascending, ordered by smallest member,
    by a plain search over the endpoint pairs."""
    adj: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * g.vertex_count
    comps = []
    for start in range(g.vertex_count):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        stack = [start]
        while stack:
            for y in adj[stack.pop()]:
                if not seen[y]:
                    seen[y] = True
                    comp.append(y)
                    stack.append(y)
        comps.append(sorted(comp))
    return comps


def split_components(g: MultiGraph) -> list[tuple[MultiGraph, list[int]]]:
    """(subgraph, global edge ids) per connected component with edges, in
    order of smallest vertex; vertex and edge ids are renumbered in
    ascending order, so the subgraph is the component relabelled
    monotonically."""
    groups = components(g)
    cid = [0] * g.vertex_count
    local = [0] * g.vertex_count
    for idx, group in enumerate(groups):
        for i, v in enumerate(group):
            cid[v] = idx
            local[v] = i
    buckets: list[list[int]] = [[] for _ in groups]
    for e, u in enumerate(g.eu):
        buckets[cid[u]].append(e)
    return [
        (
            MultiGraph.from_arrays(
                len(group),
                array("i", [local[g.eu[e]] for e in emap]),
                array("i", [local[g.ev[e]] for e in emap]),
            ),
            emap,
        )
        for group, emap in zip(groups, buckets)
        if emap
    ]


def greedy_phase(g: MultiGraph, anchor, held=(), plants=(), bounds=(20, 21), telemetry=None):
    """(coloring, BFS distances) after the guaranteed greedy phase as
    solve runs it for one component: the plants, then one greedy pass
    over the compatible order from the anchor without the held-back
    edges, checking the bounds."""
    col = PartialColoring(g, 22)
    for e, c in plants:
        col.assign(e, c)
    dist = metrics.bfs_distances(g, anchor)
    skip = set(held)
    order = [e for e in metrics.order_by_distance(g, dist) if e not in skip]
    conflicts, ceiling = bounds
    greedy_color(col, order, telemetry=telemetry, max_conflict_colors=conflicts, max_color=ceiling)
    return col, dist


def run_plan(g: MultiGraph, anchor, plan, telemetry) -> PartialColoring:
    """One strategy's plan run on its own: the greedy phase, then the
    finish."""
    col, dist = greedy_phase(g, anchor, plan.held, plan.plants, plan.bounds, telemetry)
    plan.finish(col, dist)
    return col


def shuffled_union(graphs, seed: int) -> MultiGraph:
    """Disjoint union with vertex ids permuted and edge order shuffled."""
    rng = random.Random(seed)
    edges = []
    n = 0
    for h in graphs:
        edges.extend((u + n, v + n) for u, v in h.edges)
        n += h.vertex_count
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in edges]
    rng.shuffle(edges)
    return MultiGraph.from_edges(n, edges)


def brute_conflict_set(g: MultiGraph, e: int) -> set[int]:
    """Edges f != e such that e and f are the end edges of a path with at
    most 3 edges, enumerated directly over edge pairs."""
    out = set()
    for f in range(g.edge_count):
        if f == e:
            continue
        a, b = g.endpoints(e)
        c, d = g.endpoints(f)
        if {a, b} & {c, d}:
            out.add(f)
            continue
        for h in range(g.edge_count):
            x, y = g.endpoints(h)
            if {x, y} & {a, b} and {x, y} & {c, d}:
                out.add(f)
                break
    return out


def conflicting(g: MultiGraph, e: int, f: int) -> bool:
    return f in brute_conflict_set(g, e)


def ref_violations(g: MultiGraph, colors: dict[int, int]) -> list[tuple[int, int]]:
    """Conflicting colored pairs with equal colors, by direct definition."""
    bad = []
    ids = sorted(colors)
    for i, e in enumerate(ids):
        for f in ids[i + 1 :]:
            if colors[e] == colors[f] and conflicting(g, e, f):
                bad.append((e, f))
    return bad


def ref_verify(col: PartialColoring) -> list[tuple[int, int, int]]:
    """verify's contract by one conflict-set listing per colored edge:
    every (e, f, color) with e < f, ordered by e, then f."""
    g = col.graph
    colors = col._colors
    out = []
    for e in range(g.edge_count):
        c = colors[e]
        if not c:
            continue
        hits = [f for f in g.conflict_set(e) if f > e and colors[f] == c]
        for f in sorted(hits):
            out.append((e, f, c))
    return out


def edge_distance_class(g: MultiGraph, dist: list[int], e: int) -> int:
    """An edge sits in the class of its closer endpoint."""
    u, v = g.endpoints(e)
    return min(dist[u], dist[v])


def ref_shortest_cycle(g: MultiGraph) -> CycleDescriptor | None:
    """find_shortest_cycle's contract by a fresh full BFS per start vertex:
    loop first, then parallel pair, then the first strictly shortest
    closing edge in start order, whose witness is rebuilt by one more BFS
    from its start."""
    e = g.find_loop()
    if e is not None:
        v, _ = g.endpoints(e)
        return CycleDescriptor((v,), (e,))
    pair = g.find_parallel_pair()
    if pair is not None:
        u, v = g.endpoints(pair[0])
        return CycleDescriptor((u, v), pair)

    edges = g.edges
    n = g.vertex_count
    best: tuple[int, int, int] | None = None  # (length, start, closing edge)

    for s in range(n):
        if best is not None and best[0] == 3:
            break  # girth cannot beat 3 in a simple graph
        dist = [-1] * n
        via = [-1] * n  # edge id used to reach each vertex
        dist[s] = 0
        q = deque([s])
        while q:
            x = q.popleft()
            if best is not None and 2 * dist[x] >= best[0]:
                break  # even a level-up closing edge cannot improve on best
            for f in g.incident_edges(x):
                a, b = edges[f]
                y = b if a == x else a
                if dist[y] == -1:
                    dist[y] = dist[x] + 1
                    via[y] = f
                    q.append(y)
                elif f != via[x] and f != via[y]:
                    cand = dist[x] + dist[y] + 1
                    if best is None or cand < best[0]:
                        best = (cand, s, f)

    if best is None:
        return None
    return _ref_reconstruct_cycle(g, *best)


def _ref_reconstruct_cycle(g: MultiGraph, length: int, s: int, closing: int) -> CycleDescriptor:
    # Re-run the BFS from s and splice the two parent paths of the closing
    # edge together. For the global minimum the paths share only s, so the
    # walk below is a simple cycle.
    edges = g.edges
    n = g.vertex_count
    dist = [-1] * n
    via = [-1] * n
    dist[s] = 0
    q = deque([s])
    while q:
        x = q.popleft()
        for f in g.incident_edges(x):
            a, b = edges[f]
            y = b if a == x else a
            if dist[y] == -1:
                dist[y] = dist[x] + 1
                via[y] = f
                q.append(y)

    def path_to_root(x: int) -> tuple[list[int], list[int]]:
        verts, es = [x], []
        while x != s:
            f = via[x]
            a, b = edges[f]
            x = b if a == x else a
            verts.append(x)
            es.append(f)
        return verts, es

    x, y = edges[closing]
    vx, ex = path_to_root(x)  # x .. s
    vy, ey = path_to_root(y)  # y .. s
    verts = vx[::-1] + vy[:-1]  # s .. x, y .. (s excluded)
    cyc_edges = ex[::-1] + [closing] + ey
    if len(set(verts)) != len(verts) or len(verts) != length:
        raise RuntimeError("shortest-cycle reconstruction produced a non-simple walk")
    return CycleDescriptor(tuple(verts), tuple(cyc_edges))


def naive_exact(g: MultiGraph, max_k: int = 8) -> int:
    """Minimum colors by enumerating assignments in insertion order.

    No edge reordering and no availability reasoning, just a depth-first
    walk over all assignments that skips conflicting colors; only the
    first-use canonicalization keeps m <= 8 affordable.
    """
    m = g.edge_count
    assert m <= 8, "enumeration blows up past 8 edges"
    if m == 0:
        return 0
    conf = [brute_conflict_set(g, e) for e in range(m)]
    colors = [-1] * m

    def extend(e: int, used: int, k: int) -> bool:
        if e == m:
            return True
        banned = {colors[f] for f in conf[e]}
        for c in range(min(used + 1, k)):
            if c in banned:
                continue
            colors[e] = c
            if extend(e + 1, max(used, c + 1), k):
                return True
        colors[e] = -1
        return False

    for k in range(1, max_k + 1):
        if extend(0, 0, k):
            return k
    raise AssertionError(f"no coloring with <= {max_k} colors")
