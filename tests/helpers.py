"""Shared builders and reference implementations for the test suite.

The reference functions here are deliberately naive re-implementations of
the library's definitions (path enumeration, assignment enumeration) so
that the optimized code is checked against something independent.
"""

from __future__ import annotations

import random
import time
from array import array
from collections import deque
from operator import eq

from strongcolor import GraphFormatError, MultiGraph, PartialColoring, greedy_color, metrics, random_max4, solve, solver
from strongcolor.metrics import CycleDescriptor


def path(n: int) -> MultiGraph:
    """Path on n vertices (n - 1 edges)."""
    return MultiGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(k: int) -> MultiGraph:
    return MultiGraph.from_edges(k, [(i, (i + 1) % k) for i in range(k)])


def complete(n: int) -> MultiGraph:
    return MultiGraph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def complete_bipartite(a: int, b: int) -> MultiGraph:
    return MultiGraph.from_edges(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def star(leaves: int) -> MultiGraph:
    return MultiGraph.from_edges(leaves + 1, [(0, 1 + i) for i in range(leaves)])


def hypercube4() -> MultiGraph:
    """4-dimensional hypercube: 4-regular, girth 4, 16 vertices."""
    edges = []
    for v in range(16):
        for bit in range(4):
            w = v ^ (1 << bit)
            if v < w:
                edges.append((v, w))
    return MultiGraph.from_edges(16, edges)


def triangle_with_loops() -> MultiGraph:
    """Triangle plus one loop per vertex: 4-regular with loops."""
    return MultiGraph.from_edges(3, [(i, (i + 1) % 3) for i in range(3)] + [(i, i) for i in range(3)])


def doubled_triangle() -> MultiGraph:
    """Every triangle edge doubled: 4-regular with parallel pairs."""
    return MultiGraph.from_edges(3, [(i, (i + 1) % 3) for i in range(3) for _ in range(2)])


def two_loops_one_vertex() -> MultiGraph:
    return MultiGraph.from_edges(1, [(0, 0), (0, 0)])


def disjoint_union(*graphs: MultiGraph) -> MultiGraph:
    edges = []
    base = 0
    for g in graphs:
        edges.extend((base + u, base + v) for u, v in g.edges)
        base += g.vertex_count
    return MultiGraph.from_edges(base, edges)


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
    return MultiGraph.from_edges(len(ids), [(ids[x], ids[times(x, y)]) for x in ids for y in gens])


def random_multigraph(seed: int, max_n: int = 16, max_m: int = 28) -> MultiGraph:
    """Arbitrary small multigraph with max degree 4, loops and parallels."""
    rng = random.Random(seed)
    n = rng.randint(1, max_n)
    deg = [0] * n
    edges = []
    for _ in range(rng.randint(0, max_m)):
        u = rng.randrange(n)
        v = rng.randrange(n)
        cost_u = 2 if u == v else 1
        if deg[u] + cost_u > 4 or (u != v and deg[v] >= 4):
            continue
        deg[u] += 1
        deg[v] += 1
        edges.append((u, v))
    return MultiGraph.from_edges(n, edges)


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
            MultiGraph(
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
    dist = metrics.bfs_from_sources(g, anchor.vertices if isinstance(anchor, CycleDescriptor) else (anchor,))
    skip = set(held)
    order = [e for e in metrics.order_by_distance(g, dist) if e not in skip]
    conflicts, ceiling = bounds
    greedy_color(col, order, telemetry=telemetry, max_conflict_colors=conflicts, max_color=ceiling)
    return col, dist


def bench_rows(sizes, seed: int = 0) -> list[tuple[int, int, int, int]]:
    """(n, m, millis, colors) per size, sizes ascending. Used by the
    wall-clock scaling checks in the test suite."""
    rows = []
    for n in sorted(sizes):
        g = random_max4(n, seed=seed)
        t0 = time.perf_counter()
        _, report = solve(g)
        millis = int((time.perf_counter() - t0) * 1000)
        rows.append((n, g.edge_count, millis, report.colors_used))
    return rows


def run_plan(g: MultiGraph, anchor, plan, telemetry) -> PartialColoring:
    """One strategy's plan run on its own, as solve runs it: the greedy
    phase, then the tail of a (tail, caps, label) plan within 21 colors,
    or the finish of a (held, plants, bounds, finish) plan."""
    if len(plan) == 3:
        tail, caps, label = plan
        tail = tail[: len(caps)]
        col, _ = greedy_phase(g, anchor, tail, telemetry=telemetry)
        solver._color_tail(col, tail, caps, [label] * len(tail), telemetry, 21)
        return col
    held, plants, bounds, finish = plan
    col, dist = greedy_phase(g, anchor, held, plants, bounds, telemetry)
    finish(col, dist)
    return col


def ref_color_tail(col: PartialColoring, tail, caps, label: str, telemetry, ceiling: int) -> None:
    """solver._color_tail with one lemma label, as the solver's finishes
    colored a tail before its tails ran in one loop: per edge, the colored
    members of its conflict set counted against the cap, then a one-edge
    greedy_color call."""
    colors = col._colors
    for cap, e in zip(caps, tail):
        telemetry.check(sum(1 for f in col.graph.conflict_set(e) if colors[f]) <= cap, label)
        greedy_color(col, [e], telemetry=telemetry, max_color=ceiling)


def color_of(col: PartialColoring, e: int) -> int | None:
    """Color of edge e, or None while it is uncolored."""
    return col._colors[e] or None


def as_dict(col: PartialColoring) -> dict[int, int]:
    """{edge id: color} over the colored edges."""
    return {e: c for e, c in enumerate(col._colors) if c}


def colors_used(col: PartialColoring) -> int:
    """Number of distinct colors on the colored edges."""
    return len(set(col._colors) - {0})


def compatible_order(g: MultiGraph, anchor) -> list[int]:
    """All edge ids by nonincreasing distance class from the anchor (a
    vertex or a CycleDescriptor), ties by ascending id, as solve orders a
    component. An edge the anchor cannot reach raises
    DisconnectedGraphError."""
    starts = anchor.vertices if isinstance(anchor, CycleDescriptor) else (anchor,)
    return metrics.order_by_distance(g, metrics.bfs_from_sources(g, starts)).tolist()


def greedy_upper_bound(g: MultiGraph) -> int:
    """Colors used by least-color greedy over edges in id order. With max
    degree 4 every conflict set has at most 24 members, so 25 colors
    never run dry whatever the order."""
    col = PartialColoring(g, 25)
    greedy_color(col, list(range(g.edge_count)))
    return colors_used(col)


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


class CountingSlices:
    """Stand-in for a CSR array that counts the slices read from it."""

    def __init__(self, arr):
        self.arr = arr
        self.reads = 0

    def __getitem__(self, i):
        if isinstance(i, slice):
            self.reads += 1
        return self.arr[i]


def ref_content_lines(text: str):
    """graphio._content_lines by one splitlines of the whole text:
    (line number, stripped line) of every non-blank, non-comment line."""
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield ln, line


def ref_parse_graph(text: str) -> MultiGraph:
    """graphio.parse_graph as a line-by-line reader only, over
    ref_content_lines: the reference for its bulk-decoded slices."""
    lines = ref_content_lines(text)
    try:
        ln, header = next(lines)
    except StopIteration:
        raise GraphFormatError("empty graph file: missing 'p sec <n> <m>' header")
    parts = header.split()
    if len(parts) != 4 or parts[0] != "p" or parts[1] != "sec":
        raise GraphFormatError(f"line {ln}: expected 'p sec <n> <m>', got {header!r}")
    try:
        n, m = int(parts[2]), int(parts[3])
    except ValueError:
        raise GraphFormatError(f"line {ln}: non-integer vertex or edge count")
    if n < 0 or m < 0:
        raise GraphFormatError(f"line {ln}: negative vertex or edge count")

    eu = array("i")
    ev = array("i")
    for ln, line in lines:
        parts = line.split()
        if len(parts) != 3 or parts[0] != "e":
            raise GraphFormatError(f"line {ln}: expected 'e <u> <v>', got {line!r}")
        try:
            u, v = int(parts[1]), int(parts[2])
        except ValueError:
            raise GraphFormatError(f"line {ln}: non-integer endpoint")
        if not (1 <= u <= n and 1 <= v <= n):
            raise GraphFormatError(f"line {ln}: endpoint out of range 1..{n}")
        eu.append(u - 1)
        ev.append(v - 1)
    if len(eu) != m:
        raise GraphFormatError(f"header declares {m} edges, file has {len(eu)}")
    return MultiGraph(n, eu, ev)


def ref_parse_coloring(text: str, g: MultiGraph) -> PartialColoring:
    """graphio.parse_coloring as a line-by-line reader only, over
    ref_content_lines: the reference for its bulk-decoded slices."""
    m = g.edge_count
    col = PartialColoring(g, 22)
    colors = col._colors
    max_color = 0
    for ln, line in ref_content_lines(text):
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"line {ln}: expected '<edge_id> <color>', got {line!r}")
        try:
            e, c = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"line {ln}: non-integer field")
        if not (0 <= e < m):
            raise GraphFormatError(f"line {ln}: edge id {e} out of range 0..{m - 1}")
        if c < 1:
            raise GraphFormatError(f"line {ln}: color must be >= 1")
        if colors[e]:
            raise GraphFormatError(f"line {ln}: duplicate edge id {e}")
        colors[e] = c
        if c > max_color:
            max_color = c
    col.palette_size = max(col.palette_size, max_color)
    return col


def ref_shortest_cycles(g: MultiGraph, comp, wanted, longest=None) -> list[CycleDescriptor | None]:
    """metrics.shortest_cycles as it was before each start's BFS was
    restricted to the vertices above the start: every BFS runs over the
    whole component, and the witness is the walk of the closing edge that
    last improved the component's best. The reference for the restricted
    scan."""
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
            bests[c] = best
            f = metrics._edge_between(g, *closing)
            walks[c] = metrics._splice(par, s, eu[f], ev[f])
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
        edges = tuple(metrics._edge_between(g, a, b) for a, b in zip(walk, walk[1:] + walk[:1]))
        found[c] = CycleDescriptor(tuple(walk), edges)
    return found


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
