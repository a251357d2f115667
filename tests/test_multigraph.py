from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_conflict_set, complete, conflicting, has_loop, parallel_pair, path, random_multigraph
from strongcolor import MultiGraph


def test_add_edge_returns_dense_ids():
    # Edges are numbered 0..m-1 in the order they are given.
    g = MultiGraph.from_edges(3, [(0, 1), (1, 2)])
    assert g.edge_count == 2
    assert [g.endpoints(e) for e in range(g.edge_count)] == [(0, 1), (1, 2)]
    assert sorted(set(g.incident_edges(1))) == [0, 1]


def test_loop_counts_two_toward_degree():
    g = MultiGraph.from_edges(3, [(2, 2)])
    assert g.degree(2) == 2
    assert g.degree(0) == 0
    assert g.is_loop(0)


def test_vertex_id_out_of_range_rejected():
    with pytest.raises(IndexError):
        MultiGraph.from_edges(2, [(0, 2)])
    with pytest.raises(IndexError):
        MultiGraph(2, array("i", [-1]), array("i", [0]))
    with pytest.raises(IndexError, match=r"\(1, 2\)"):
        MultiGraph.from_edges(2, [(0, 1), (1, 2), (-1, 0)])


def test_constructor_rejects_bad_shapes():
    with pytest.raises(ValueError, match="differ in length"):
        MultiGraph(3, array("i", [0, 1]), array("i", [1]))
    with pytest.raises(ValueError, match="nonnegative"):
        MultiGraph(-1)


def test_constructor_takes_over_its_arrays():
    eu = array("i", [0, 1])
    ev = array("i", [1, 2])
    g = MultiGraph(3, eu, ev)
    assert g.eu is eu and g.ev is ev
    assert MultiGraph(3).edge_count == 0


def test_degree_sum_is_twice_edge_count():
    for seed in range(30):
        g = random_multigraph(seed)
        assert sum(g.degree(v) for v in range(g.vertex_count)) == 2 * g.edge_count


def test_k5_degrees():
    g = complete(5)
    assert all(g.degree(v) == 4 for v in range(5))


def test_conflict_set_on_path():
    # a-b-c-d: the first edge conflicts with both others
    g = path(4)
    assert g.conflict_set(0) == {1, 2}
    assert g.conflict_set(1) == {0, 2}


def test_conflict_set_excludes_self_and_is_symmetric():
    for seed in range(25):
        g = random_multigraph(seed)
        for e in range(g.edge_count):
            cs = g.conflict_set(e)
            assert e not in cs
            for f in cs:
                assert e in g.conflict_set(f)


def test_conflict_set_matches_path_enumeration():
    for seed in range(40):
        g = random_multigraph(seed, max_n=12)
        for e in range(g.edge_count):
            assert g.conflict_set(e) == brute_conflict_set(g, e)


def test_conflicts_matches_path_enumeration_on_every_ordered_pair():
    """conflicts(p, q) is membership of q in p's conflict set, by the
    brute force, for every ordered pair, p == q included, on multigraphs
    with loops and parallel edges."""
    seeds = range(40)
    graphs = [random_multigraph(seed, max_n=10, max_m=20) for seed in seeds]
    assert any(has_loop(g) for g in graphs) and any(parallel_pair(g) for g in graphs)
    for g in graphs:
        m = g.edge_count
        for p in range(m):
            for q in range(m):
                assert g.conflicts(p, q) == conflicting(g, p, q), (p, q)


def test_conflict_set_size_bounded_by_24():
    for seed in range(40):
        g = random_multigraph(seed)
        assert all(len(g.conflict_set(e)) <= 24 for e in range(g.edge_count))


def test_parallel_edges_conflict():
    g = MultiGraph.from_edges(2, [(0, 1), (0, 1)])
    assert 1 in g.conflict_set(0)


def test_incident_edges_lists_loop_twice():
    g = MultiGraph.from_edges(2, [(0, 0), (0, 1)])
    assert g.incident_edges(0) == [0, 0, 1]
    assert g.incident_edges(1) == [1]


def naive_incidence(g: MultiGraph, v: int) -> list[int]:
    """Edge ids at v from the edge list, ascending, a loop twice."""
    return [e for e, (a, b) in enumerate(g.edges) for _ in range((a == v) + (b == v))]


def naive_degree(g: MultiGraph, v: int) -> int:
    return sum((a == v) + (b == v) for a, b in g.edges)


def far_end(g: MultiGraph, e: int, v: int) -> int:
    a, b = g.endpoints(e)
    return b if a == v else a


def test_flat_neighbors_match_incidence():
    for seed in range(25):
        g = random_multigraph(seed)
        _, _, nbr_flat, off = g.flat_arrays()
        for v in range(g.vertex_count):
            # slot by slot: the far end of the incident edge in the same
            # slot; a loop at v takes two slots, both pointing back at v
            want = [far_end(g, e, v) for e in g.incident_edges(v)]
            assert list(nbr_flat[off[v] : off[v + 1]]) == want


def test_flat_arrays_agree_with_edges_and_neighbors():
    for seed in range(25):
        g = random_multigraph(seed)
        eu, ev, nbr_flat, off = g.flat_arrays()
        assert list(eu) == [u for u, _ in g.edges]
        assert list(ev) == [v for _, v in g.edges]
        assert off[0] == 0 and off[-1] == 2 * g.edge_count
        for v in range(g.vertex_count):
            want = [far_end(g, e, v) for e in naive_incidence(g, v)]
            assert list(nbr_flat[off[v] : off[v + 1]]) == want


def test_flat_arrays_cached_after_freeze():
    g = MultiGraph.from_edges(3, [(0, 1), (1, 2)])
    assert g.degree(2) == 1 and g.incident_edges(1) == [0, 1]
    assert all(a is b for a, b in zip(g.flat_arrays(), g.flat_arrays()))


@st.composite
def multigraphs(draw):
    """Any multigraph with loops and parallel edges, plus a few isolated
    vertices at the end; degrees are not capped."""
    n = draw(st.integers(min_value=1, max_value=10))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=18))
    return n + draw(st.integers(0, 3)), pairs


@given(multigraphs())
@settings(max_examples=150, deadline=None)
def test_incidence_queries_equal_a_reference_from_the_edge_list(spec):
    n, pairs = spec
    g = MultiGraph.from_edges(n, pairs)
    assert g.edges == pairs
    assert [g.endpoints(e) for e in range(g.edge_count)] == pairs
    eu, ev, nbr_flat, off = g.flat_arrays()
    assert list(eu) == [u for u, _ in pairs] and list(ev) == [v for _, v in pairs]
    assert len(off) == n + 1 and len(nbr_flat) == 2 * len(pairs)
    for v in range(n):
        inc = naive_incidence(g, v)
        assert g.degree(v) == naive_degree(g, v) == len(inc) == off[v + 1] - off[v]
        assert g.incident_edges(v) == inc
        assert list(nbr_flat[off[v] : off[v + 1]]) == [far_end(g, e, v) for e in inc]
    degrees = [naive_degree(g, v) for v in range(n)]
    assert (g.max_degree(), g.min_degree()) == (max(degrees), min(degrees))
    for e in range(g.edge_count):
        assert g.conflict_set(e) == brute_conflict_set(g, e)


def test_max_min_degree():
    g = MultiGraph.from_edges(3, [(0, 1)])
    assert g.max_degree() == 1
    assert g.min_degree() == 0


def test_from_edges_builder():
    g = MultiGraph.from_edges(3, [(0, 1), (1, 2)])
    assert g.edge_count == 2
    assert g.endpoints(0) == (0, 1)
    assert g.endpoints(1) == (1, 2)


def test_en_graph_structure(en_graph):
    assert en_graph.vertex_count == 10
    assert en_graph.edge_count == 20
    assert all(en_graph.degree(v) == 4 for v in range(10))


def test_en_graph_conflicts_are_complete(en_graph):
    # every edge must receive its own color: all pairs conflict
    for e in range(20):
        assert en_graph.conflict_set(e) == set(range(20)) - {e}


def test_star_fixture_center_conflict_is_24(star_graph):
    sizes = [len(star_graph.conflict_set(e)) for e in range(star_graph.edge_count)]
    assert max(sizes) == 24
    assert star_graph.max_degree() == 4
