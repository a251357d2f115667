import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strongcolor.solver as solver
from strongcolor import (
    LemmaAssertionError,
    MaxDegreeExceeded,
    MultiGraph,
    PartialColoring,
    Telemetry,
    Unsatisfiable,
    find_shortest_cycle,
    solve,
    verify,
)
from strongcolor.solver import (
    color_except_cycle,
    color_except_vertex,
    fallback_exact,
    label_cycle_context,
    solve_double_edge,
    solve_girth3,
    solve_girth4,
    solve_girth5,
    solve_girth6,
    solve_loop,
    solve_low_degree,
)
from helpers import (
    complete,
    complete_bipartite,
    components,
    cycle,
    disjoint_union,
    doubled_triangle,
    hypercube4,
    path,
    random_multigraph,
    star,
    triangle_with_loops,
    two_loops_one_vertex,
)


def assert_total_valid(g, col, max_colors=22):
    assert col.is_total()
    assert verify(col) == []
    assert col.colors_used() <= max_colors


# --- greedy phases ---------------------------------------------------------


def test_color_except_vertex_star_center():
    g = star(4)
    col = color_except_vertex(g, 0)
    assert col.uncolored_edges() == list(range(4))


def test_color_except_vertex_pentagon():
    g = cycle(5)
    col = color_except_vertex(g, 0)
    assert len(col.uncolored_edges()) == 2
    assert verify(col) == []
    assert col.colors_used() <= 21


def test_color_except_vertex_4regular(robertson):
    col = color_except_vertex(robertson, 7)
    assert set(col.uncolored_edges()) == set(robertson.incident_edges(7))
    assert verify(col) == []


def test_color_except_cycle_whole_graph():
    g = cycle(5)
    c = find_shortest_cycle(g)
    col = color_except_cycle(g, c)
    assert col.uncolored_edges() == sorted(c.edges)
    assert len(col.uncolored_edges()) == 5


def test_color_except_cycle_k5():
    g = complete(5)
    c = find_shortest_cycle(g)
    assert len(c) == 3
    col = color_except_cycle(g, c)
    assert len(col.uncolored_edges()) == 3
    assert verify(col) == []


# --- per-shape strategies --------------------------------------------------


def test_low_degree_path_is_optimal():
    col = solve_low_degree(path(4), 0)
    assert_total_valid(path(4), col, max_colors=21)
    assert col.colors_used() == 3


def test_low_degree_petersen(petersen):
    col = solve_low_degree(petersen, 0)
    assert_total_valid(petersen, col, max_colors=21)


def test_low_degree_star():
    g = star(4)
    with pytest.raises(LemmaAssertionError):
        solve_low_degree(g, 0)  # center has degree 4
    col = solve_low_degree(g, 1)
    assert_total_valid(g, col, max_colors=21)
    assert col.colors_used() == 4


def test_loop_strategy():
    g = triangle_with_loops()
    e = g.find_loop()
    col = solve_loop(g, e)
    assert_total_valid(g, col, max_colors=21)


def test_loop_strategy_rejects_plain_edge():
    g = triangle_with_loops()
    with pytest.raises(LemmaAssertionError):
        solve_loop(g, 0)


def test_two_loops_need_two_colors():
    g = two_loops_one_vertex()
    col = solve_loop(g, 0)
    assert_total_valid(g, col, max_colors=21)
    assert col.colors_used() == 2


def test_double_edge_strategy():
    g = doubled_triangle()
    pair = g.find_parallel_pair()
    col = solve_double_edge(g, pair)
    assert_total_valid(g, col, max_colors=21)


def test_girth3_strategy():
    g = complete(5)
    c = find_shortest_cycle(g)
    col = solve_girth3(g, c)
    assert_total_valid(g, col, max_colors=21)
    assert col.colors_used() == 10


def test_girth4_strategy_k44():
    g = complete_bipartite(4, 4)
    c = find_shortest_cycle(g)
    assert len(c) == 4
    col = solve_girth4(g, c)
    assert_total_valid(g, col)
    assert col.colors_used() == 16


def test_girth4_strategy_hypercube():
    g = hypercube4()
    c = find_shortest_cycle(g)
    col = solve_girth4(g, c)
    assert_total_valid(g, col)


def test_girth5_strategy(robertson):
    c = find_shortest_cycle(robertson)
    assert len(c) == 5
    col = solve_girth5(robertson, c)
    assert_total_valid(robertson, col)


def test_girth6_strategy(cage46):
    col = solve_girth6(cage46)
    assert_total_valid(cage46, col)
    assert 22 in {col.color_of(e) for e in range(cage46.edge_count)}


# --- cycle context labeling ------------------------------------------------


def test_cycle_context_k44():
    g = complete_bipartite(4, 4)
    c = find_shortest_cycle(g)
    ctx = label_cycle_context(g, c)
    assert sorted(ctx.c) == [1, 2, 3, 4]
    incident = ctx.incident_edges()
    assert len(incident) == 8
    assert len(set(incident)) == 8
    assert not set(incident) & set(c.edges)
    for i in range(1, 5):
        assert ctx.a[i] != ctx.b[i]


def test_cycle_context_girth5_separation(robertson):
    c = find_shortest_cycle(robertson)
    ctx = label_cycle_context(robertson, c)
    assert len(ctx.incident_edges()) == 10
    for s, t in ((1, 3), (3, 5), (5, 2), (2, 4)):
        assert ctx.b[t] not in robertson.conflict_set(ctx.a[s])


def test_cycle_context_rejects_wrong_length():
    g = complete(5)
    c = find_shortest_cycle(g)
    with pytest.raises(LemmaAssertionError):
        label_cycle_context(g, c)


# --- instrumentation -------------------------------------------------------


def test_girth5_instrumentation_counts(robertson):
    tel = Telemetry()
    c = find_shortest_cycle(robertson)
    solve_girth5(robertson, c, tel)
    assert tel.labels["girth5.uncolored-count"] == 1
    assert tel.labels["girth5.cycle-availability"] == 4
    assert tel.labels["girth5.incident-availability"] == 7
    assert tel.fallbacks == 0


def test_girth6_instrumentation_counts(cage46):
    tel = Telemetry()
    solve_girth6(cage46, tel)
    assert tel.labels["girth6.distance-two-edge"] == 4
    assert tel.labels["girth6.recolor-independent"] == 6


# --- fallback --------------------------------------------------------------


def test_fallback_exact_nothing_to_do():
    g = path(3)
    col = PartialColoring(g, 22)
    col.assign(0, 1)
    col.assign(1, 2)
    out = fallback_exact(g, col, [])
    assert out.as_dict() == {0: 1, 1: 2}


def test_fallback_exact_single_edge():
    g = path(2)
    col = PartialColoring(g, 22)
    out = fallback_exact(g, col, [0])
    assert out.color_of(0) == 1


def test_fallback_exact_completes_stripped_k5():
    g = complete(5)
    full = solve_girth3(g, find_shortest_cycle(g))
    col = full.copy()
    removed = [0, 3, 7]
    for e in removed:
        col.unassign(e)
    out = fallback_exact(g, col, removed)
    assert_total_valid(g, out)


def test_fallback_exact_rejects_colored_edges():
    g = path(3)
    col = PartialColoring(g, 22)
    col.assign(0, 1)
    with pytest.raises(ValueError):
        fallback_exact(g, col, [0, 1])


def test_fallback_exact_unsatisfiable_carries_graph():
    g = cycle(5)
    col = PartialColoring(g, 3)  # pentagon needs 5 colors
    with pytest.raises(Unsatisfiable) as exc:
        fallback_exact(g, col, range(5))
    assert "p sec 5 5" in str(exc.value)
    assert exc.value.graph_text.startswith("p sec 5 5")


# --- top-level solve -------------------------------------------------------


def test_solve_empty_graph():
    col, rep = solve(MultiGraph(0).freeze())
    assert col.is_total()
    assert rep.components == []
    assert rep.colors_used == 0


def test_solve_isolated_vertices_only():
    col, rep = solve(MultiGraph(6).freeze())
    assert col.is_total()
    assert rep.strategies() == []


def test_solve_dispatch_table(en_graph, robertson, cage46):
    cases = [
        (path(4), "low_degree", 3),
        (triangle_with_loops(), "loop", None),
        (doubled_triangle(), "double_edge", None),
        (complete(5), "girth3", 10),
        (en_graph, "girth4", 20),
        (robertson, "girth5", None),
        (cage46, "girth6", None),
    ]
    for g, want, colors in cases:
        col, rep = solve(g)
        assert_total_valid(g, col)
        assert rep.strategies() == [want]
        assert rep.fallback_invocations == 0
        if colors is not None:
            assert rep.colors_used == colors


def test_solve_single_component_bounds():
    for g in (path(6), triangle_with_loops(), doubled_triangle(), complete(5)):
        col, rep = solve(g)
        assert rep.colors_used <= 21


def test_solve_fused_low_degree_components(petersen):
    g = disjoint_union(path(4), cycle(5), petersen)
    col, rep = solve(g)
    assert_total_valid(g, col)
    assert rep.strategies() == ["low_degree"] * 3
    assert [c.edge_count for c in rep.components] == [3, 5, 15]
    assert sum(c.edge_count for c in rep.components) == g.edge_count
    assert rep.fallback_invocations == 0
    for c in rep.components:
        assert c.colors_used <= 21


def test_solve_mixed_components(robertson, cage46):
    g = disjoint_union(robertson, cage46)
    col, rep = solve(g)
    assert_total_valid(g, col)
    assert rep.strategies() == ["girth5", "girth6"]
    assert [c.edge_count for c in rep.components] == [38, 52]


def test_solve_mixed_low_and_regular(cage46):
    g = disjoint_union(path(5), cage46)
    col, rep = solve(g)
    assert_total_valid(g, col)
    assert rep.strategies() == ["low_degree", "girth6"]


def test_solve_rejects_degree_5():
    with pytest.raises(MaxDegreeExceeded) as exc:
        solve(complete(6))
    assert exc.value.degree == 5


def test_solve_deterministic(robertson):
    a, _ = solve(robertson)
    b, _ = solve(robertson)
    assert a.as_dict() == b.as_dict()


def test_rescue_path_counts_fallback(monkeypatch):
    def boom(g, cycle, telemetry=None):
        tel = telemetry if telemetry is not None else Telemetry()
        tel.check(False, "girth3.cycle-length")
        raise AssertionError("unreachable")

    monkeypatch.setattr(solver, "solve_girth3", boom)
    g = complete(5)
    col, rep = solve(g)
    assert_total_valid(g, col)
    assert rep.strategies() == ["fallback_exact"]
    assert rep.fallback_invocations == 1


def test_fused_failure_falls_back_to_split(monkeypatch, petersen):
    calls = {"n": 0}
    real = solver._solve_fused_low_degree

    def flaky(g, tel, comp, anchors, report):
        calls["n"] += 1
        raise LemmaAssertionError("forced")

    monkeypatch.setattr(solver, "_solve_fused_low_degree", flaky)
    g = disjoint_union(path(4), petersen)
    col, rep = solve(g)
    assert calls["n"] == 1
    assert_total_valid(g, col)
    assert rep.strategies() == ["low_degree", "low_degree"]
    assert rep.fallback_invocations == 0
    monkeypatch.setattr(solver, "_solve_fused_low_degree", real)


def test_report_assertions_counted(en_graph):
    _, rep = solve(en_graph)
    assert rep.assertions_checked > 0


def test_report_labels_sum_to_assertions_checked(robertson, cage46, petersen):
    for g, label in (
        (robertson, "girth5.cycle-availability"),
        (disjoint_union(path(4), complete(5), robertson, cage46), "girth6.anchor-degree"),
        (disjoint_union(path(4), petersen), "low-degree.final-neighborhood"),
    ):
        _, rep = solve(g)
        assert rep.labels[label] > 0
        assert sum(rep.labels.values()) == rep.assertions_checked


def test_solve_freezes_an_unfrozen_graph(cage46):
    src = disjoint_union(path(5), cage46, triangle_with_loops())
    g = MultiGraph(src.vertex_count)
    for u, v in src.edges:
        g.add_edge(u, v)
    assert not g.frozen
    col, rep = solve(g)
    assert g.frozen
    with pytest.raises(RuntimeError):
        g.add_edge(0, 1)
    assert_total_valid(g, col)
    want_col, want_rep = solve(src)
    assert col.as_dict() == want_col.as_dict()
    assert rep == want_rep


def test_label_components_order_and_content():
    g = MultiGraph(6)
    g.add_edge(4, 5)
    g.add_edge(0, 1)
    g.freeze()
    assert components(g) == [[0, 1], [2], [3], [4, 5]]
    assert solver._label_components(g) == ([0, 0, 1, 2, 3, 3], 4)
    for seed in range(25):
        h = random_multigraph(seed)
        comp, k = solver._label_components(h)
        groups = [[v for v in range(h.vertex_count) if comp[v] == c] for c in range(k)]
        assert groups == components(h)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_solve_property_random_multigraphs(seed):
    g = random_multigraph(seed, max_n=14, max_m=24)
    col, rep = solve(g)
    assert col.is_total()
    assert verify(col) == []
    assert rep.colors_used <= 22
    assert rep.fallback_invocations == 0
