import functools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    CountingSlices,
    compatible_order,
    complete,
    complete_bipartite,
    components,
    cycle,
    disjoint_union,
    edge_distance_class,
    has_loop,
    parallel_pair,
    path,
    random_multigraph,
    ref_shortest_cycle,
    ref_shortest_cycles,
    shuffled_union,
    split_components,
    star,
)
from strongcolor import (
    MultiGraph,
    find_shortest_cycle,
    girth,
    load_fixture,
    random_4regular,
)
from strongcolor.metrics import (
    CycleDescriptor,
    DisconnectedGraphError,
    bfs_from_sources,
    order_by_distance,
    shortest_cycles,
)


def test_bfs_on_pentagon():
    g = cycle(5)
    assert bfs_from_sources(g, [0]) == [0, 1, 2, 2, 1]


def test_bfs_anchored_on_whole_cycle():
    g = cycle(5)
    c = find_shortest_cycle(g)
    assert bfs_from_sources(g, c.vertices) == [0] * 5


def test_bfs_on_star():
    g = star(4)
    assert bfs_from_sources(g, [0]) == [0, 1, 1, 1, 1]


def test_bfs_tolerates_isolated_vertices():
    g = MultiGraph.from_edges(3, [(0, 1)])
    assert bfs_from_sources(g, [0]) == [0, 1, -1]
    assert compatible_order(g, 0) == [0]


def test_bfs_rejects_unreachable_edges():
    g = MultiGraph.from_edges(4, [(0, 1), (2, 3)])
    assert bfs_from_sources(g, [0]) == [0, 1, -1, -1]
    with pytest.raises(DisconnectedGraphError):
        compatible_order(g, 0)


def test_edge_distance_class_is_min_of_endpoints():
    g = path(4)
    dist = bfs_from_sources(g, [0])
    assert edge_distance_class(g, dist, 0) == 0
    assert edge_distance_class(g, dist, 1) == 1
    assert edge_distance_class(g, dist, 2) == 2


def test_compatible_order_path():
    # v-a-b anchored at v: the far edge comes first
    g = path(3)
    assert compatible_order(g, 0) == [1, 0]


def test_compatible_order_cycle_anchor_in_k4():
    # every K4 edge touches the anchor triangle, so all six edges sit in
    # class 0 and the ascending-id tie-break decides the whole order
    g = complete(4)
    c = find_shortest_cycle(g)
    dist = bfs_from_sources(g, c.vertices)
    assert [edge_distance_class(g, dist, e) for e in range(6)] == [0] * 6
    assert compatible_order(g, c) == [0, 1, 2, 3, 4, 5]


def test_compatible_order_classes_nonincreasing():
    for seed in range(20):
        g = random_multigraph(seed, max_n=12)
        for v in range(g.vertex_count):
            if g.degree(v) == 0:
                continue
            try:
                order = compatible_order(g, v)
            except DisconnectedGraphError:
                continue
            dist = bfs_from_sources(g, [v])
            classes = [edge_distance_class(g, dist, e) for e in order]
            assert classes == sorted(classes, reverse=True)
            assert sorted(order) == list(range(g.edge_count))
            break


def test_order_by_distance_rejects_unreached_edges():
    g = path(4)
    with pytest.raises(DisconnectedGraphError):
        order_by_distance(g, [0, 1, 2, -1], [0] * 4, b"\x01")
    with pytest.raises(DisconnectedGraphError):
        order_by_distance(g, [-1] * 4, [0] * 4, b"\x01")
    # an isolated vertex may stay unreached
    h = MultiGraph.from_edges(3, [(0, 1)])
    assert [o.tolist() for o in order_by_distance(h, [0, 1, -1], [0, 0, -1], b"\x01")] == [[0]]


def test_order_by_distance_rejects_an_unreached_held_back_edge():
    """A held-back edge is in no order but is still checked: the BFS
    leaving its end unreached raises, as for an edge of any class."""
    g = path(4)  # edges (0, 1), (1, 2), (2, 3)
    comp = [0] * 4
    for cls in (bytearray([1]), bytearray([2]), bytearray([0])):
        with pytest.raises(DisconnectedGraphError, match="^edge 2 "):
            order_by_distance(g, [0, 1, 2, -1], comp, cls, held=[2])
        orders = order_by_distance(g, [0, 1, 2, 3], comp, cls, held=[2])
        assert [o.tolist() for o in orders] == [[1, 0] if c == cls[0] else [] for c in range(1, cls[0] + 1)]


@pytest.mark.parametrize("classes", [(1, 2), (2, 1), (0, 2), (2, 0), (1, 1)])
@pytest.mark.parametrize("unreached", [2, 5])
def test_order_by_distance_rejects_unreached_edges_of_every_class(classes, unreached):
    """Two paths of three vertices, one per component and class: the one
    unreached vertex raises whatever the classes, naming its edge."""
    g = disjoint_union(path(3), path(3))  # edges (0, 1), (1, 2), (3, 4), (4, 5)
    dist = [0, 1, 2, 0, 1, 2]
    dist[unreached] = -1
    with pytest.raises(DisconnectedGraphError, match=f"^edge {1 if unreached == 2 else 3} "):
        order_by_distance(g, dist, [0, 0, 0, 1, 1, 1], bytearray(classes))


@pytest.mark.parametrize("classes", [(1, 2), (2, 1), (1, 0), (0, 1), (2, 0), (0, 2)])
def test_order_by_distance_peak_stays_near_one_class(classes):
    """A long path next to a Petersen graph: split over two or three
    class regions (solve's pass, a planning failure putting a component
    in class 0, the rescue's failed and kept components), the bucketing
    peaks within a quarter of the same graph's one-class peak. A bucket
    per distance class in every region would near double it."""
    n = 20000
    g = disjoint_union(path(n), load_fixture("petersen"))
    comp = [0] * n + [1] * 10
    dist = bfs_from_sources(g, [0, n])

    def peak(cls):
        tracemalloc.start()
        try:
            order_by_distance(g, dist, comp, bytearray(cls))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(classes) <= 1.25 * peak((1, 1))


def test_compatible_order_ties_break_by_edge_id():
    g = star(4)
    assert compatible_order(g, 0) == [0, 1, 2, 3]


def test_en_anchor_edges_come_last(en_graph):
    for v in range(en_graph.vertex_count):
        order = compatible_order(en_graph, v)
        at_v = set(en_graph.incident_edges(v))
        assert set(order[-len(at_v) :]) == at_v


def test_girth_conventions_loop_and_parallel():
    g = MultiGraph.from_edges(2, [(0, 1), (1, 1)])
    c = find_shortest_cycle(g)
    assert girth(g) == 1
    assert tuple(c.vertices) == (1,) and tuple(c.edges) == (1,)

    h = MultiGraph.from_edges(2, [(0, 1), (0, 1)])
    c = find_shortest_cycle(h)
    assert girth(h) == 2
    assert sorted(c.edges) == [0, 1]


def test_girth_examples():
    assert girth(path(5)) is None
    assert find_shortest_cycle(path(5)) is None
    assert girth(complete(5)) == 3
    assert girth(cycle(7)) == 7


def test_en_graph_girth_is_4(en_graph):
    assert girth(en_graph) == 4


def test_fixture_girths(petersen, robertson, cage46):
    assert girth(petersen) == 5
    assert girth(robertson) == 5
    assert girth(cage46) == 6


def test_cycle_scan_stops_where_no_closing_edge_can_improve(petersen, robertson, cage46):
    """Each BFS stops at the first level dx with 2 * dx + 1 >= best and
    visits only the vertices above its start, so the scan reads few
    neighbor slices (one per vertex for parallel pairs, plus the BFS
    levels it expands); the witness is the same."""
    for g, reads, want in (
        (petersen, 42, ((0, 1, 2, 3, 4), (0, 1, 2, 3, 4))),
        (robertson, 83, ((0, 4, 18, 5, 11), (13, 6, 4, 20, 30))),
        (cage46, 189, ((0, 17, 1, 13, 4, 14), (1, 5, 4, 16, 17, 0))),
    ):
        csr = g.csr()
        nbr = CountingSlices(csr[2])
        g._csr = (csr[0], csr[1], nbr)
        try:
            found = shortest_cycles(g, [0] * g.vertex_count, [True])
        finally:
            g._csr = csr
        assert found == [CycleDescriptor(*want)]
        assert nbr.reads == reads


def _cycle_is_valid(g: MultiGraph, c: CycleDescriptor) -> bool:
    k = len(c)
    if len(c.vertices) != k or len(set(c.vertices)) != k:
        return False
    for i, e in enumerate(c.edges):
        u = c.vertices[i]
        v = c.vertices[(i + 1) % k]
        if tuple(sorted(g.endpoints(e))) != tuple(sorted((u, v))):
            return False
    return len(set(c.edges)) == k


def test_shortest_cycle_witness_validates():
    for seed in range(40):
        g = random_multigraph(seed, max_n=10)
        c = find_shortest_cycle(g)
        if c is None:
            continue
        assert len(c) == girth(g)
        assert _cycle_is_valid(g, c)


def test_girth_matches_networkx_on_simple_graphs():
    nx = pytest.importorskip("networkx")
    for seed in range(40):
        g = random_multigraph(seed, max_n=10)
        if has_loop(g) or parallel_pair(g) is not None:
            continue
        h = nx.Graph()
        h.add_nodes_from(range(g.vertex_count))
        h.add_edges_from(g.edges)
        want = nx.girth(h)
        got = girth(g)
        if want == float("inf"):
            assert got is None
        else:
            assert got == want


@st.composite
def cycle_search_graphs(draw):
    """Disjoint unions of small multigraphs, forests and simple graphs,
    plus isolated vertices, with the vertex ids shuffled."""
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 10))
        shape = draw(st.sampled_from(["multi", "simple", "forest"]))
        pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=24))
        root = list(range(n))  # union-find, for forests

        def find(x):
            while root[x] != x:
                x = root[x]
            return x

        edges = []
        for u, v in pairs:
            if shape != "multi" and (u == v or (u, v) in edges or (v, u) in edges):
                continue
            if shape == "forest":
                if find(u) == find(v):
                    continue
                root[find(u)] = find(v)
            edges.append((u, v))
        parts.append(MultiGraph.from_edges(n, edges))
    parts.append(MultiGraph(draw(st.integers(0, 3))))
    g = disjoint_union(*parts)
    perm = draw(st.permutations(range(g.vertex_count)))
    return MultiGraph.from_edges(g.vertex_count, [(perm[u], perm[v]) for u, v in g.edges])


@given(cycle_search_graphs())
@settings(max_examples=400, deadline=None)
def test_find_shortest_cycle_equals_reference(g):
    assert find_shortest_cycle(g) == ref_shortest_cycle(g)


def assert_component_cycles_match_reference(g, wanted):
    """shortest_cycles per component equals ref_shortest_cycle of the
    component extracted as its own graph (ids mapped back), and None
    where the component is not wanted or has no edges."""
    groups = components(g)
    comp = [0] * g.vertex_count
    for c, group in enumerate(groups):
        for v in group:
            comp[v] = c
    got = shortest_cycles(g, comp, wanted)
    subs = {comp[g.eu[emap[0]]]: (sub, emap) for sub, emap in split_components(g)}
    for c, group in enumerate(groups):
        want = None
        if wanted[c] and c in subs:
            sub, emap = subs[c]
            ref = ref_shortest_cycle(sub)
            if ref is not None:
                want = CycleDescriptor(
                    tuple(group[v] for v in ref.vertices), tuple(emap[e] for e in ref.edges)
                )
        assert got[c] == want


@given(cycle_search_graphs(), st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_shortest_cycles_per_component_equal_reference(g, rnd):
    k = len(components(g))
    assert_component_cycles_match_reference(g, [True] * k)
    assert_component_cycles_match_reference(g, [rnd.random() < 0.5 for _ in range(k)])


def test_shortest_cycles_per_component_on_4regular_unions():
    graphs = [
        random_4regular(30 + 2 * seed, seed=seed, min_girth=g)[0] for seed in range(2) for g in (3, 4, 5)
    ]
    graphs += [load_fixture("cage_4_6"), load_fixture("petersen"), path(3), MultiGraph(2)]
    for seed in range(3):
        g = shuffled_union(graphs, seed)
        assert_component_cycles_match_reference(g, [True] * len(components(g)))
    assert find_shortest_cycle(g) == ref_shortest_cycle(g)


# girth-6 repair stalls at small n, so that case runs larger
@pytest.mark.parametrize("min_girth, n", [(3, 30), (4, 30), (5, 40), (6, 200)])
def test_find_shortest_cycle_equals_reference_on_4regular(min_girth, n):
    for seed in range(4):
        g, achieved = random_4regular(n + 4 * seed, seed=seed, min_girth=min_girth)
        c = find_shortest_cycle(g)
        assert c == ref_shortest_cycle(g)
        assert len(c) == achieved >= min_girth


def test_find_shortest_cycle_after_a_non_simple_walk():
    # Start 0 hangs off the triangle 1-2-3. Its BFS first closes the edge
    # (2, 3) into the walk 0-1-2-3-1-0, whose two tree paths share the
    # edge (0, 1): an improvement that is not a simple cycle. The search
    # must carry on and return the triangle found from start 1. The path
    # 4-5-6-7 keeps the vertex count above the walk's length 5, so no
    # bound on cycle length by the vertex count rules the walk out.
    g = MultiGraph.from_edges(8, [(0, 1), (1, 2), (1, 3), (2, 3), (4, 5), (5, 6), (6, 7)])
    want = CycleDescriptor((1, 2, 3), (1, 3, 2))
    assert find_shortest_cycle(g) == want
    assert ref_shortest_cycle(g) == want


@functools.cache
def scan_pool() -> tuple[MultiGraph, ...]:
    """Parts for the scan reference test: random 4-regular graphs of
    girth 3 to 6, K5, K4,4, the fixtures, and small multigraphs with
    loops and parallel edges."""
    parts = [
        random_4regular(n + 4 * seed, seed=seed, min_girth=girth)[0]
        for girth, n in ((3, 30), (4, 30), (5, 40), (6, 200))
        for seed in (0, 1)
    ]
    parts += [complete(5), complete_bipartite(4, 4), cycle(7), path(4), MultiGraph(1)]
    parts += [load_fixture(name) for name in ("petersen", "robertson", "cage_4_6")]
    multi = (random_multigraph(seed, max_n=9) for seed in range(40))
    parts += [h for h in multi if has_loop(h) or parallel_pair(h) is not None][:12]
    return tuple(parts)


@given(
    st.lists(st.integers(0, 27), min_size=1, max_size=6),
    st.integers(0, 10_000),
    st.randoms(use_true_random=False),
)
@settings(max_examples=120, deadline=None)
def test_restricted_scan_equals_the_unrestricted_one(picks, seed, rnd):
    """Each start's BFS visits only the vertices above it, and the
    witness comes from the smallest start that reaches the girth: the
    whole result list equals the unrestricted scan's, capped at 5 as
    dispatch runs it and uncapped, for all components wanted and for a
    random subset."""
    pool = scan_pool()
    g = shuffled_union([pool[i % len(pool)] for i in picks], seed)
    groups = components(g)
    comp = [0] * g.vertex_count
    for c, group in enumerate(groups):
        for v in group:
            comp[v] = c
    for wanted in ([True] * len(groups), [rnd.random() < 0.5 for _ in groups]):
        for longest in (5, None):
            assert shortest_cycles(g, comp, wanted, longest) == ref_shortest_cycles(g, comp, wanted, longest)
