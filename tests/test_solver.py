import random
from collections import Counter
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strongcolor.solver as solver
from strongcolor import (
    LemmaAssertionError,
    MaxDegreeExceeded,
    MultiGraph,
    PaletteExhausted,
    PartialColoring,
    Telemetry,
    Unsatisfiable,
    emit_graph,
    erdos_nesetril_5,
    find_shortest_cycle,
    greedy_color,
    load_fixture,
    metrics,
    random_4regular,
    solve,
    verify,
)
from strongcolor.solver import (
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
from strongcolor.metrics import CycleDescriptor
from helpers import (
    CountingSlices,
    as_dict,
    cayley_sl2,
    color_of,
    colors_used,
    complete,
    complete_bipartite,
    components,
    copy,
    cycle,
    disjoint_union,
    doubled_triangle,
    edge_between,
    greedy_phase,
    hypercube4,
    one_order,
    parallel_pair,
    path,
    random_multigraph,
    ref_class_orders,
    ref_color_tail,
    ref_component_report,
    run_plan,
    shuffled_union,
    split_components,
    star,
    triangle_with_loops,
    two_loops_one_vertex,
)


def assert_total_valid(g, col, max_colors=22):
    assert col.is_total()
    assert verify(col) == []
    assert colors_used(col) <= max_colors


# --- greedy phases ---------------------------------------------------------
# Everything except the anchor's edges, greedy along the order compatible
# with the anchor, within 21 colors and 20 conflict colors per edge.


def test_color_except_vertex_star_center():
    g = star(4)
    col = greedy_phase(g, 0, held=g.incident_edges(0), telemetry=Telemetry())
    assert col.uncolored_edges() == list(range(4))


def test_color_except_vertex_pentagon():
    g = cycle(5)
    col = greedy_phase(g, 0, held=g.incident_edges(0), telemetry=Telemetry())
    assert len(col.uncolored_edges()) == 2
    assert verify(col) == []
    assert colors_used(col) <= 21


def test_color_except_vertex_4regular(robertson):
    col = greedy_phase(robertson, 7, held=robertson.incident_edges(7), telemetry=Telemetry())
    assert set(col.uncolored_edges()) == set(robertson.incident_edges(7))
    assert verify(col) == []


def test_color_except_cycle_whole_graph():
    g = cycle(5)
    c = find_shortest_cycle(g)
    col = greedy_phase(g, c, held=c.edges, telemetry=Telemetry())
    assert col.uncolored_edges() == sorted(c.edges)
    assert len(col.uncolored_edges()) == 5


def test_color_except_cycle_k5():
    g = complete(5)
    c = find_shortest_cycle(g)
    assert len(c) == 3
    col = greedy_phase(g, c, held=c.edges, telemetry=Telemetry())
    assert len(col.uncolored_edges()) == 3
    assert verify(col) == []


# --- per-shape strategies --------------------------------------------------
# Each strategy returns a plan tuple; run_plan runs it alone, as solve runs it.


def run_strategy(strategy, g, arg, anchor):
    tel = Telemetry()
    return run_plan(g, anchor, strategy(g, arg, tel), tel)


def test_low_degree_path_is_optimal():
    col = run_strategy(solve_low_degree, path(4), 0, 0)
    assert_total_valid(path(4), col, max_colors=21)
    assert colors_used(col) == 3


def test_low_degree_petersen(petersen):
    col = run_strategy(solve_low_degree, petersen, 0, 0)
    assert_total_valid(petersen, col, max_colors=21)


def test_low_degree_star():
    g = star(4)
    with pytest.raises(LemmaAssertionError):
        solve_low_degree(g, 0, Telemetry())  # center has degree 4
    col = run_strategy(solve_low_degree, g, 1, 1)
    assert_total_valid(g, col, max_colors=21)
    assert colors_used(col) == 4


def test_loop_strategy():
    g = triangle_with_loops()
    e = next(e for e, (u, v) in enumerate(g.edges) if u == v)
    col = run_strategy(solve_loop, g, e, g.endpoints(e)[0])
    assert_total_valid(g, col, max_colors=21)


def test_loop_strategy_rejects_plain_edge():
    g = triangle_with_loops()
    with pytest.raises(LemmaAssertionError):
        solve_loop(g, 0, Telemetry())


def test_two_loops_need_two_colors():
    g = two_loops_one_vertex()
    col = run_strategy(solve_loop, g, 0, 0)
    assert_total_valid(g, col, max_colors=21)
    assert colors_used(col) == 2


def test_double_edge_strategy():
    g = doubled_triangle()
    pair = parallel_pair(g)
    col = run_strategy(solve_double_edge, g, pair, min(g.endpoints(pair[0])))
    assert_total_valid(g, col, max_colors=21)


def test_girth3_strategy():
    g = complete(5)
    c = find_shortest_cycle(g)
    col = run_strategy(solve_girth3, g, c, c)
    assert_total_valid(g, col, max_colors=21)
    assert colors_used(col) == 10


def test_girth4_strategy_k44():
    g = complete_bipartite(4, 4)
    c = find_shortest_cycle(g)
    assert len(c) == 4
    col = run_strategy(solve_girth4, g, c, c)
    assert_total_valid(g, col)
    assert colors_used(col) == 16


def test_girth4_strategy_hypercube():
    g = hypercube4()
    c = find_shortest_cycle(g)
    col = run_strategy(solve_girth4, g, c, c)
    assert_total_valid(g, col)


def test_girth4_strategy_reserves_diagonals():
    """A 4-cycle with no adjacent pair and a pack with no free pair: the
    four diagonals joining that pack's far ends are held back and colored
    after the cycle."""
    g, _ = random_4regular(12, seed=4, min_girth=4)
    verts = (2, 5, 6, 7)
    edges = tuple(edge_between(g, a, b) for a, b in zip(verts, verts[1:] + verts[:1]))
    c = CycleDescriptor(verts, edges)
    tel = Telemetry()
    plan = solve_girth4(g, c, tel)
    held = plan[0]
    assert len(set(held) - set(c.edges)) == 4
    col = run_plan(g, c, plan, tel)
    assert tel.labels["girth4.diagonal-neighborhood"] == 4
    assert_total_valid(g, col)


@pytest.mark.parametrize(
    "n, seed, perm, adjacent, pack, colors",
    [
        (12, 24, None, 0, (1, 3), 13),
        (14, 31, None, 0, (1, 3), 17),
        (13, 16, [1, 5, 8, 7, 2, 4, 10, 12, 0, 3, 9, 6, 11], 1, (2, 4), 15),
        (15, 24, [13, 9, 3, 12, 0, 6, 11, 1, 8, 2, 10, 7, 5, 14, 4], 1, (1, 3), 16),
        (14, 26, [11, 5, 12, 10, 7, 9, 1, 3, 13, 8, 6, 2, 0, 4], 0, (2, 4), 17),
    ],
    ids=["12-24-13", "14-31-17", "one-adjacent-pair-24", "one-adjacent-pair-13", "no-adjacent-pair-24"],
)
def test_solve_dispatches_girth4_to_the_diagonals(monkeypatch, n, seed, perm, adjacent, pack, colors):
    """solve_girth4 reserves the diagonals of a pack with no free pair on
    every branch that gets there: with no adjacent pair, on (1, 3), or on
    (2, 4) when only (2, 4) has none; with one adjacent pair, on the other
    pack, (1, 3) or (2, 4). The spy counts the anchor's adjacent pairs as
    solve_girth4 does. The relabelled graphs anchor at another 4-cycle:
    each perm is the 3rd, 3rd and 24th list(range(n)) shuffled by
    random.Random(1000 * seed + n), one after another."""
    real = solver._girth4_with_diagonals
    calls = []

    def spy(g, ctx, tel, i, j):
        ends = [(ctx.a[k], ctx.b[k]) for k in range(1, 5)]
        pairs = sum(ctx.far[p] == ctx.far[q] for s, t in ((0, 2), (1, 3)) for p in ends[s] for q in ends[t])
        calls.append((pairs, (i, j)))
        return real(g, ctx, tel, i, j)

    monkeypatch.setattr(solver, "_girth4_with_diagonals", spy)
    g, _ = random_4regular(n, seed=seed, min_girth=4)
    if perm is not None:
        g = MultiGraph.from_edges(n, [(perm[u], perm[v]) for u, v in g.edges])
    col, rep = solve(g)
    assert calls == [(adjacent, pack)]
    assert rep.strategies() == ["girth4"] and rep.fallback_invocations == 0
    assert col.is_total() and verify(col) == [] and rep.colors_used == colors
    assert rep.labels["girth4.diagonal-neighborhood"] == 4
    assert rep.labels["girth4.diagonals-distinct"] == 1


def test_girth4_far_ends_and_diagonals_equal_brute_force():
    """On every girth-4 anchor of small random 4-regular graphs, the far
    ends the cycle context reads from the CSR and the diagonals of each
    pack equal a search over the edge list: the non-cycle edges at each
    corner with their other ends, and the smallest edge id joining two
    far ends. A pack whose diagonals are missing or not distinct is
    refused by the matching check."""
    reserved = 0
    for n in (10, 12, 14, 16):
        for seed in range(30):
            g, _ = random_4regular(n, seed=seed, min_girth=4)
            comp, k = metrics.label_components(g)
            for cyc in metrics.shortest_cycles(g, comp, [True] * k):
                if cyc is None or len(cyc) != 4:
                    continue
                ctx = label_cycle_context(g, cyc, Telemetry())
                far = {}
                for i, v in enumerate(cyc.vertices, start=1):
                    at = {e: b if a == v else a for e, (a, b) in enumerate(g.edges) if v in (a, b)}
                    rest = {e: w for e, w in at.items() if e not in cyc.edges}
                    assert sorted(rest) == [ctx.a[i], ctx.b[i]]
                    far.update(rest)
                assert ctx.far == far and ctx.incident == sorted(far)
                for i, j in ((1, 3), (2, 4)):
                    diagonals = []
                    for p in (ctx.a[i], ctx.b[i]):
                        for q in (ctx.a[j], ctx.b[j]):
                            ends = {far[p], far[q]}
                            joins = [f for f, (a, b) in enumerate(g.edges) if {a, b} == ends]
                            diagonals.append(min(joins, default=None))
                    if None in diagonals or len(set(diagonals)) < 4:
                        label = "girth4.diagonal-exists" if None in diagonals else "girth4.diagonals-distinct"
                        with pytest.raises(LemmaAssertionError, match=label):
                            solver._girth4_with_diagonals(g, ctx, Telemetry(), i, j)
                    else:
                        held = solver._girth4_with_diagonals(g, ctx, Telemetry(), i, j)[0]
                        assert held == list(ctx.c.values()) + sorted(diagonals)
                        reserved += 1
    assert reserved


def test_girth5_strategy(robertson):
    c = find_shortest_cycle(robertson)
    assert len(c) == 5
    col = run_strategy(solve_girth5, robertson, c, c)
    assert_total_valid(robertson, col)


def test_girth6_strategy(cage46):
    col = run_strategy(solve_girth6, cage46, 0, 0)
    assert_total_valid(cage46, col)
    assert 22 in {color_of(col, e) for e in range(cage46.edge_count)}


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 100_000))
def test_color_tail_equals_one_greedy_call_per_edge(seed):
    """A tail's caps checked from the structure (_check_caps, with every
    edge outside the tail colored) and one greedy_color call over it do
    what a conflict-set count on the coloring and a one-edge greedy_color
    call per edge did: where that succeeds, the same colors and the same
    checks per label; where it fails, a rescuable failure too. A cap
    failure colors no tail edge and, where the reference also failed a
    cap, counts the same lemma checks; without one, the failure is the
    same, at the same edge, after every cap was checked. On multigraphs
    with loops and parallel edges."""
    rng = random.Random(seed)
    g = random_multigraph(seed, max_n=12, max_m=24)
    base = PartialColoring(g, 22)
    greedy_color(base, rng.sample(range(g.edge_count), rng.randint(0, g.edge_count)))
    tail = [e for e in range(g.edge_count) if not base._colors[e]]
    rng.shuffle(tail)
    caps = [rng.randint(0, 24) for _ in tail]
    ceiling = rng.randint(1, 22)

    def outcome(color_tail):
        col = copy(base)
        tel = Telemetry()
        try:
            color_tail(col, tel)
            failure = None
        except (LemmaAssertionError, PaletteExhausted) as exc:
            failure = (type(exc), str(exc))
        assert sum(tel.labels.values()) == tel.checks
        return failure, col._colors, tel.checks, tel.labels

    def checked_then_greedy(col, tel):
        solver._check_caps(g, tail, caps, "lemma", tail, tel)
        greedy_color(col, tail, telemetry=tel, max_color=ceiling)

    got = outcome(checked_then_greedy)
    want = outcome(lambda col, tel: ref_color_tail(col, tail, caps, "lemma", tel, ceiling))
    if want[0] is None:
        assert got == want
    elif got[0] == (LemmaAssertionError, "lemma"):
        assert got[1] == base._colors and got[3] == {"lemma": got[2]}
        if want[0] == got[0]:
            assert got[3] == {"lemma": want[3]["lemma"]}
    else:  # every cap holds: the same greedy failure at the same edge
        assert got[:2] == want[:2]
        assert got[3] == {**want[3], "lemma": len(tail)}


# --- cycle context labeling ------------------------------------------------


def test_cycle_context_k44():
    g = complete_bipartite(4, 4)
    c = find_shortest_cycle(g)
    ctx = label_cycle_context(g, c, Telemetry())
    assert sorted(ctx.c) == [1, 2, 3, 4]
    incident = ctx.incident
    assert len(incident) == 8
    assert len(set(incident)) == 8
    assert not set(incident) & set(c.edges)
    for i in range(1, 5):
        assert ctx.a[i] != ctx.b[i]


def test_cycle_context_girth5_separation(robertson):
    c = find_shortest_cycle(robertson)
    ctx = label_cycle_context(robertson, c, Telemetry())
    assert len(ctx.incident) == 10
    for s, t in ((1, 3), (3, 5), (5, 2), (2, 4)):
        assert ctx.b[t] not in robertson.conflict_set(ctx.a[s])


def test_cycle_context_rejects_wrong_length():
    g = complete(5)
    c = find_shortest_cycle(g)
    with pytest.raises(LemmaAssertionError):
        label_cycle_context(g, c, Telemetry())


# --- instrumentation -------------------------------------------------------


def test_girth5_instrumentation_counts(robertson):
    tel = Telemetry()
    c = find_shortest_cycle(robertson)
    run_plan(robertson, c, solve_girth5(robertson, c, tel), tel)
    assert tel.labels["girth5.uncolored-count"] == 1
    assert tel.labels["girth5.cycle-availability"] == 4
    assert tel.labels["girth5.incident-availability"] == 7


def test_girth5_disc_incident_branch_on_a_hand_built_prestate():
    """The finish's branch where the SDR fails and the maximum-discrepancy
    subfamily is incident edges only. Around every far end x of a corner
    edge, x's three other edges take 1-3 (at a[i]) or 13-15 (at b[i]) and
    the nine edges one step further take 4-12, so the seven uncolored
    incident edges keep only 16-20 and cannot all get distinct colors."""
    g = random_4regular(3000, seed=0, min_girth=5)[0]
    cycle = find_shortest_cycle(g)
    held, plants, _, _ = solve_girth5(g, cycle, Telemetry())
    ctx = label_cycle_context(g, cycle, Telemetry())
    col = PartialColoring(g, 22)
    for e, c in plants:
        col.assign(e, c)
    for i in range(1, 6):
        for e, first in ((ctx.a[i], 1), (ctx.b[i], 13)):
            x = ctx.far[e]
            others = [f for f in g.incident_edges(x) if f != e]
            for c, f in enumerate(others, start=first):
                col.assign(f, c)
            beyond = [h for f in others for h in g.incident_edges(sum(g.endpoints(f)) - x) if h != f]
            for c, h in enumerate(beyond, start=4):
                col.assign(h, c)
    skip = set(held)
    order = one_order(g, metrics.bfs_from_sources(g, cycle.vertices))
    greedy_color(col, [e for e in order if e not in skip and not col.is_colored(e)])
    uncolored = [e for e in ctx.incident if not col.is_colored(e)]
    assert len(uncolored) == 7
    assert all(col.available_colors(e) == set(range(16, 21)) for e in uncolored)
    tel = Telemetry()
    a = tuple(ctx.a[i] for i in range(1, 6))
    b = tuple(ctx.b[i] for i in range(1, 6))
    solver._complete_girth5(col, cycle.edges, a, b, tel)
    assert tel.labels["girth5.discrepancy-positive"] == 1
    assert tel.labels["girth5.subset-neighborhood"] == 7
    assert tel.labels["girth5.extension"] == 1
    assert col.is_total() and verify(col) == []
    assert colors_used(col) <= 22


def test_girth6_instrumentation_counts(cage46):
    tel = Telemetry()
    run_plan(cage46, 0, solve_girth6(cage46, 0, tel), tel)
    assert tel.labels["girth6.distance-two-edge"] == 4
    assert tel.labels["girth6.recolor-independent"] == 6


# --- fallback --------------------------------------------------------------


def test_fallback_exact_nothing_to_do():
    g = path(3)
    col = PartialColoring(g, 22)
    col.assign(0, 1)
    col.assign(1, 2)
    out = fallback_exact(col, [])
    assert out is col
    assert as_dict(out) == {0: 1, 1: 2}


def test_fallback_exact_single_edge():
    g = path(2)
    col = PartialColoring(g, 22)
    out = fallback_exact(col, [0])
    assert out is col
    assert color_of(out, 0) == 1


def test_fallback_exact_completes_stripped_k5():
    g = complete(5)
    full, _ = solve(g)
    col = copy(full)
    removed = [0, 3, 7]
    for e in removed:
        col.unassign(e)
    out = fallback_exact(col, removed)
    assert out is col
    assert_total_valid(g, out)


def test_fallback_exact_rejects_colored_edges():
    g = path(3)
    col = PartialColoring(g, 22)
    col.assign(0, 1)
    with pytest.raises(ValueError):
        fallback_exact(col, [0, 1])


def test_fallback_exact_rejects_more_edges_than_its_limit():
    g = path(solver.FALLBACK_LIMIT + 3)
    col = PartialColoring(g, 22)
    with pytest.raises(ValueError, match=f"limited to {solver.FALLBACK_LIMIT} edges"):
        fallback_exact(col, range(solver.FALLBACK_LIMIT + 1))
    assert not any(col._colors)


def test_fallback_exact_unsatisfiable_carries_graph():
    g = cycle(5)
    col = PartialColoring(g, 3)  # pentagon needs 5 colors
    with pytest.raises(Unsatisfiable) as exc:
        fallback_exact(col, range(5))
    assert "p sec 5 5" in str(exc.value)
    assert exc.value.graph_text.startswith("p sec 5 5")
    assert col._colors == [0] * 5
    assert col._at == copy(col)._masks()


def test_fallback_exact_failure_leaves_the_coloring_as_it_was():
    """A failed search backs out of every edge it tried: the colors and
    the per-vertex masks are those of the coloring passed in."""
    g = complete(5)  # its 10 edges pairwise conflict
    col = PartialColoring(g, 9)
    greedy_color(col, range(7))
    before = list(col._colors)
    with pytest.raises(Unsatisfiable) as exc:
        fallback_exact(col, [7, 8, 9])
    assert str(exc.value).split("\n")[0] == "backtracking completion failed on 3 edges"
    assert col._colors == before
    assert col._at == copy(col)._masks()


# --- top-level solve -------------------------------------------------------


def test_solve_empty_graph():
    col, rep = solve(MultiGraph(0))
    assert col.is_total()
    assert rep.components == []
    assert rep.colors_used == 0


def test_solve_isolated_vertices_only():
    col, rep = solve(MultiGraph(6))
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
    assert as_dict(a) == as_dict(b)


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
    assert rep.components[0].failure == "girth3.cycle-length"
    assert rep.labels == {"girth3.cycle-length": 1} and rep.assertions_checked == 1


def _fail_girth3(g, cycle, tel):
    tel.check(False, "girth3.cycle-length")


def _rescue_runs_out_of_colors(monkeypatch):
    """The rescue's greedy phase, the only greedy_color call without
    telemetry, raises PaletteExhausted at its first edge."""
    real = solver.greedy_color

    def flaky(col, order, **kwargs):
        if kwargs.get("telemetry") is None and len(order):
            raise PaletteExhausted(order[0], col.palette_size)
        return real(col, order, **kwargs)

    monkeypatch.setattr(solver, "greedy_color", flaky)


def _rescue_backtracking_fails(monkeypatch):
    """With 9 colors the K5's greedy phase colors its 7 edges off the
    triangle, and its 3 triangle edges, which conflict with every other
    edge, are left 2 colors."""
    monkeypatch.setattr(solver, "PALETTE", 9)


@pytest.mark.parametrize(
    "make_rescue_fail, reason",
    [
        (_rescue_runs_out_of_colors, "guaranteed greedy phase ran out of colors"),
        (_rescue_backtracking_fails, "backtracking completion failed on 3 edges"),
    ],
    ids=["greedy", "backtracking"],
)
def test_failed_rescue_raises_with_its_component_alone(monkeypatch, make_rescue_fail, reason):
    """A K5 fails its plan and then its rescue: Unsatisfiable names the
    failing step and carries the K5 alone, its vertices renumbered in
    ascending order, whatever else the graph holds. The backtracking's own
    Unsatisfiable, which holds the whole graph, is never serialized."""
    g = shuffled_union([path(4), complete(5), cycle(6)], seed=5)
    k5 = next(sub for sub, _ in split_components(g) if sub.edge_count == 10)
    monkeypatch.setattr(solver, "solve_girth3", _fail_girth3)
    make_rescue_fail(monkeypatch)
    emitted = []

    def spy(h):
        emitted.append(emit_graph(h))
        return emitted[-1]

    monkeypatch.setattr(solver, "emit_graph", spy)
    with pytest.raises(Unsatisfiable) as exc:
        solve(g)
    assert exc.value.graph_text.startswith("p sec 5 10\n")
    assert exc.value.graph_text == emit_graph(k5)
    assert str(exc.value) == f"{reason}\n{exc.value.graph_text}"
    # the graph is serialized once, when read, and never the whole union
    assert emitted == [emit_graph(k5)]


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("forced", [None, "low_degree", "loop", "double_edge"])
def test_report_counts_match_the_edges(monkeypatch, seed, forced):
    """The report's per-component edge counts and colors, and its colors
    used overall, equal those counted from the edges, on random
    multigraphs with loops, parallel edges and isolated vertices, also
    when every component of one strategy is rescued."""
    if forced is not None:
        def boom(g, anchor, tel):
            tel.check(False, f"{forced}.forced")

        monkeypatch.setattr(solver, f"solve_{forced}", boom)
    g = disjoint_union(
        random_multigraph(seed, max_n=20, max_m=30),
        triangle_with_loops(),
        doubled_triangle(),
        MultiGraph(3),
        random_multigraph(100 + seed, max_n=12, max_m=20),
    )
    col, rep = solve(g)
    assert col.is_total() and verify(col) == []
    per_component, overall = ref_component_report(col)
    assert [(c.edge_count, c.colors_used) for c in rep.components] == [(m, len(cs)) for m, cs in per_component]
    assert rep.colors_used == overall
    if forced is not None:
        assert forced not in rep.strategies()
        assert rep.fallback_invocations == sum(c.failure == f"{forced}.forced" for c in rep.components) > 0


class CountingList(list):
    """A list that counts the items read from it, by index or by iteration."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)

    def __iter__(self):
        for x in super().__iter__():
            self.reads += 1
            yield x


@pytest.mark.parametrize("copies", [50, 400])
def test_rescues_read_the_component_ids_a_bounded_number_of_times(monkeypatch, copies):
    """Every K5 fails its girth3 plan and is rescued; grouping the failed
    components first keeps the reads of the component ids within a fixed
    multiple of n + m, however many components fail."""

    def boom(g, cycle, tel):
        tel.check(False, "girth3.cycle-length")

    comps = []

    def labelled(g):
        comp, k = real(g)
        comps.append(CountingList(comp))
        return comps[-1], k

    real = metrics.label_components
    monkeypatch.setattr(solver, "solve_girth3", boom)
    monkeypatch.setattr(metrics, "label_components", labelled)
    g = disjoint_union(*[complete(5)] * copies)
    col, rep = solve(g)
    assert col.is_total() and verify(col) == []
    assert rep.strategies() == ["fallback_exact"] * copies and rep.fallback_invocations == copies
    assert comps[0].reads <= 6 * (g.vertex_count + g.edge_count)


def _failing_greedy(monkeypatch, graph, target, exc_factory):
    """Make solver.greedy_color fail at edge `target` the first time it
    is called on `graph` with that edge in its order: the edges before it
    are colored, then exc_factory(telemetry, target) raises. Returns the
    orders the patched function is called with."""
    real = solver.greedy_color
    seen = []

    def flaky(col, order, **kwargs):
        seen.append(list(order))
        if col.graph is graph and target in order and not flaky.fired:
            flaky.fired = True
            real(col, order[: order.index(target)], **kwargs)
            exc_factory(kwargs.get("telemetry"), target)
        return real(col, order, **kwargs)

    flaky.fired = False
    monkeypatch.setattr(solver, "greedy_color", flaky)
    return seen


def _bound_failure(tel, e):
    tel.check(False, "greedy.conflict-color-bound")


def _palette_failure(tel, e):
    raise PaletteExhausted(e, 22)


@pytest.mark.parametrize(
    "exc_factory, failure",
    [(_bound_failure, "greedy.conflict-color-bound"), (_palette_failure, "PaletteExhausted")],
    ids=["lemma", "palette"],
)
def test_shared_greedy_failure_rescues_only_its_component(
    monkeypatch, petersen, cage46, exc_factory, failure
):
    g = shuffled_union([petersen, path(6), complete(5), cage46, complete(5)], seed=3)
    clean_col, clean_rep = solve(g)
    subs = split_components(g)
    victim = 2  # component index; its edges are not all last in the order
    emap = subs[victim][1]
    seen = _failing_greedy(monkeypatch, g, None, exc_factory)
    solve(g)  # only records the orders
    shared = max(seen, key=len)
    mine = [e for e in shared if e in emap]
    target = mine[1]
    assert any(e not in emap for e in shared[shared.index(target) + 1 :])

    _failing_greedy(monkeypatch, g, target, exc_factory)
    col, rep = solve(g)
    assert col.is_total() and verify(col) == []
    assert rep.fallback_invocations == 1
    for idx, (comp, clean) in enumerate(zip(rep.components, clean_rep.components)):
        if idx == victim:
            assert comp.strategy == "fallback_exact"
            assert comp.failure == failure
        else:
            assert comp == clean
    others = [e for _, em in subs if em is not emap for e in em]
    assert [color_of(col, e) for e in others] == [color_of(clean_col, e) for e in others]
    assert sum(rep.labels.values()) == rep.assertions_checked

    # every check is counted once: the labels are the sum over the
    # components solved alone, the victim failing at the same edge
    want = Counter()
    for idx, (sub, em) in enumerate(subs):
        if idx == victim:
            _failing_greedy(monkeypatch, sub, em.index(target), exc_factory)
        _, sub_rep = solve(sub)
        assert sub_rep.components == [rep.components[idx]]
        want.update(sub_rep.labels)
    assert Counter(rep.labels) == want


def test_shared_pass_failures_cost_linear_time(monkeypatch):
    """A stand-in greedy_color fails at the first edge of every
    bound-checked call, so the K5s fail in the shared pass one after the
    other; the resumed calls take the order a chunk at a time, so the
    orders handed over total O(m + k * chunk), not a rebuilt order per
    failure (about k * m / 2)."""
    real = solver.greedy_color
    handed = []

    def first_edge_fails(col, order, **kwargs):
        if kwargs.get("max_conflict_colors") is not None and len(order):
            handed.append(len(order))
            kwargs["telemetry"].check(False, "greedy.conflict-color-bound")
        return real(col, order, **kwargs)

    monkeypatch.setattr(solver, "greedy_color", first_edge_fails)
    copies = 2000
    g = disjoint_union(*[complete(5)] * copies)
    col, rep = solve(g)
    assert col.is_total() and verify(col) == []
    assert rep.fallback_invocations == copies == len(handed)
    assert {c.failure for c in rep.components} == {"greedy.conflict-color-bound"}
    assert sum(handed) <= g.edge_count + copies * solver._RESUME_CHUNK


def test_planting_conflict_is_rescued_and_named(monkeypatch, robertson, petersen):
    real = solver.solve_girth5

    def clash(g, cycle, tel):
        held, plants, bounds, finish = real(g, cycle, tel)
        e = plants[0][0]
        f = min(g.conflict_set(e))
        return held, ((e, 21), (f, 21)), bounds, finish

    monkeypatch.setattr(solver, "solve_girth5", clash)
    g = disjoint_union(petersen, robertson)
    col, rep = solve(g)
    assert col.is_total() and verify(col) == []
    assert rep.strategies() == ["low_degree", "fallback_exact"]
    assert [c.failure for c in rep.components] == [None, "ConflictError"]
    assert rep.fallback_invocations == 1


def test_finish_failure_is_rescued(monkeypatch, cage46):
    g = disjoint_union(complete(5), cage46)
    clean_col, _ = solve(g)
    real = solver.solve_girth6

    def late(g, v, tel):
        held, plants, bounds, finish = real(g, v, tel)

        def failing(col):
            finish(col)  # the component ends up colored, and still fails
            tel.check(False, "girth6.anchor-degree")

        return held, plants, bounds, failing

    monkeypatch.setattr(solver, "solve_girth6", late)
    col, rep = solve(g)
    assert col.is_total() and verify(col) == []
    assert rep.strategies() == ["girth3", "fallback_exact"]
    assert rep.components[1].failure == "girth6.anchor-degree"
    assert [color_of(col, e) for e in range(10)] == [color_of(clean_col, e) for e in range(10)]


def _failing_cap(monkeypatch, fail_at):
    """Patch solver._check_caps so that its fail_at-th call for a girth3
    tail from now on (1-based; 0 for none) checks caps of 0, so the first
    cap of that K5's tail fails while it is planned."""
    real = solver._check_caps
    calls = []

    def capped(g, tail, caps, label, pending, tel):
        if label == "girth3.final-neighborhood":
            calls.append(tail)
            if len(calls) == fail_at:
                caps = (0,) * len(caps)
        real(g, tail, caps, label, pending, tel)

    monkeypatch.setattr(solver, "_check_caps", capped)


def _ceiling_failure(tel, e):
    tel.check(False, "greedy.color-ceiling")


def test_tail_failure_rescues_only_its_component(monkeypatch, petersen, cage46):
    """One K5 fails its tail: a cap while it is planned, or the color
    ceiling at its second tail edge inside the one greedy_color call over
    all tails. Either way only that component is rescued, the tails after
    it are still colored, and every other component gets the colors and
    checks it gets alone."""
    parts = [complete(5), petersen, complete(5), triangle_with_loops(), complete(5), doubled_triangle(), cage46]
    g = shuffled_union(parts, seed=7)
    clean_col, clean_rep = solve(g)
    victim = [i for i, c in enumerate(clean_rep.components) if c.strategy == "girth3"][1]
    tails = ("low_degree", "loop", "double_edge", "girth3")
    assert any(c.strategy in tails for c in clean_rep.components[victim + 1 :])
    subs = split_components(g)
    emap = subs[victim][1]
    for where in ("planning", "tail call"):
        monkeypatch.undo()
        if where == "planning":
            failure = "girth3.final-neighborhood"
            _failing_cap(monkeypatch, 2)
        else:
            failure = "greedy.color-ceiling"
            seen = _failing_greedy(monkeypatch, g, None, _ceiling_failure)
            solve(g)  # only records the calls
            shared = max(seen, key=len)
            target = [e for e in emap if e not in shared][1]  # the K5's tail is its held-back edges, ascending
            tail_call = next(order for order in seen if target in order)
            assert any(e not in emap for e in tail_call[tail_call.index(target) + 1 :])
            _failing_greedy(monkeypatch, g, target, _ceiling_failure)
        col, rep = solve(g)
        assert col.is_total() and verify(col) == []
        assert rep.fallback_invocations == 1
        want = Counter()
        for idx, ((sub, em), comp, clean) in enumerate(zip(subs, rep.components, clean_rep.components)):
            if idx == victim:
                assert comp.strategy == "fallback_exact"
                assert comp.failure == failure
                if where == "planning":
                    _failing_cap(monkeypatch, 1)
                else:
                    _failing_greedy(monkeypatch, sub, em.index(target), _ceiling_failure)
            else:
                assert comp == clean
                assert [color_of(col, e) for e in em] == [color_of(clean_col, e) for e in em]
                _failing_cap(monkeypatch, 0)
                _failing_greedy(monkeypatch, sub, None, _ceiling_failure)
            sub_col, sub_rep = solve(sub)
            assert sub_rep.components == [comp]
            if idx != victim:
                assert [color_of(col, e) for e in em] == [color_of(sub_col, e) for e in range(sub.edge_count)]
            want.update(sub_rep.labels)
        assert Counter(rep.labels) == want
        assert rep.assertions_checked == sum(want.values())


def test_clean_solve_runs_each_shared_step_once(monkeypatch, en_graph, robertson, cage46, petersen):
    parts = [complete(5), en_graph, robertson, cage46, petersen]
    g = shuffled_union(parts + [triangle_with_loops(), doubled_triangle(), path(7)], seed=11)
    calls = Counter()
    bounds = []
    finishing = []  # edges of each greedy_color call without a bound class
    held = []  # held-back edges of each plan
    tails = set()  # held-back edges of the plans without a finish

    def counted(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "greedy_color":
                if "max_conflict_colors" in kwargs:
                    bounds.append((kwargs["max_conflict_colors"], kwargs["max_color"], set(args[1])))
                else:
                    finishing.append(set(args[1]))
            out = real(*args, **kwargs)
            if name.startswith("solve_"):
                held.append(set(out[0]))
                if out[3] is None:
                    tails.update(out[0])
            return out

        monkeypatch.setattr(owner, name, wrapper)

    counted(metrics, "label_components")
    counted(solver, "_plan_components")
    counted(solver, "_greedy_pass")
    counted(solver, "greedy_color")
    for name in ("low_degree", "loop", "double_edge", "girth3", "girth4", "girth5", "girth6"):
        counted(solver, "solve_" + name)
    for name in ("shortest_cycles", "find_shortest_cycle", "bfs_from_sources", "order_by_distance"):
        counted(metrics, name)
    counted(MultiGraph, "__init__")
    col, rep = solve(g)
    assert col.is_total() and rep.fallback_invocations == 0
    assert sorted(rep.strategies()) == sorted(
        ["girth3", "girth4", "girth5", "girth6", "low_degree", "loop", "double_edge", "low_degree"]
    )
    assert calls["label_components"] == 1
    assert calls["shortest_cycles"] == 1
    assert calls["bfs_from_sources"] == 1
    assert calls["order_by_distance"] == 1
    assert calls["find_shortest_cycle"] == calls["__init__"] == 0
    assert calls["_plan_components"] == calls["_greedy_pass"] == 1
    assert [b[:2] for b in bounds] == [(20, 21), (21, 22), (None, 21)]
    assert bounds[-1][2] == tails and len(tails) == 3 + 3 + 3 + 4 + 1  # K5, petersen, loops, pairs, path
    assert len(held) == len(rep.components)
    assert finishing and all(sum(edges <= h for h in held) == 1 for edges in finishing)


SEVEN_STRATEGIES = ["double_edge", "girth3", "girth4", "girth5", "girth6", "loop", "low_degree"]


@pytest.mark.parametrize("seed", range(4))
def test_class_orders_equal_one_order_and_a_class_filter(en_graph, robertson, cage46, petersen, seed):
    """order_by_distance's one bucketing pass gives each bound class the
    order that one distance order of every edge and a per-edge class
    filter gave (helpers.ref_class_orders): with the classes and held-back
    edges solve plans for a shuffled union of all seven strategies, and
    with random classes (0 included) and random held-back edges."""
    parts = [complete(5), en_graph, robertson, cage46, petersen, triangle_with_loops(), doubled_triangle(), path(5)]
    g = shuffled_union(parts, seed)
    comp, k = metrics.label_components(g)
    plans = solver._plan_components(g, comp, k, PartialColoring(g, 22), Telemetry())
    assert sorted(set(plans.strategy)) == SEVEN_STRATEGIES and not plans.failure
    dist = metrics.bfs_from_sources(g, plans.sources)
    rng = random.Random(seed)
    m = g.edge_count
    cases = [(plans.cls, list(chain(plans.tail, plans.held)))]
    for _ in range(5):
        cases.append((bytearray(rng.randint(0, 2) for _ in range(k)), rng.sample(range(m), rng.randint(0, m))))
    for cls, held in cases:
        got = metrics.order_by_distance(g, dist, comp, cls, held)
        assert [order.tolist() for order in got] == ref_class_orders(g, dist, comp, cls, held)


def test_rescue_shares_follow_the_one_distance_order(monkeypatch, en_graph, robertson, cage46, petersen):
    """Components of a shuffled union of all seven strategies fail, one
    while it is planned (a K5) and one in its finish (the girth-6 cage):
    the rescue greedy-colors each one's share of the distance order of
    every edge, less the anchor's edges it hands to fallback_exact, in
    that order, as it did when it filtered the one order for them."""
    parts = [complete(5), en_graph, robertson, cage46, petersen, triangle_with_loops(), doubled_triangle(), complete(5)]
    g = shuffled_union(parts, seed=5)
    real_girth3 = solver.solve_girth3
    planned = []

    def first_fails(g, cycle, tel):  # the first K5 planned fails, the other does not
        planned.append(cycle)
        if len(planned) == 1:
            _fail_girth3(g, cycle, tel)
        return real_girth3(g, cycle, tel)

    monkeypatch.setattr(solver, "solve_girth3", first_fails)
    real_girth6 = solver.solve_girth6

    def late(g, v, tel):
        held, plants, bounds, finish = real_girth6(g, v, tel)

        def failing(col):
            finish(col)
            tel.check(False, "girth6.anchor-degree")

        return held, plants, bounds, failing

    monkeypatch.setattr(solver, "solve_girth6", late)
    calls = []
    real_greedy = solver.greedy_color
    real_fallback = solver.fallback_exact

    def greedy(col, order, **kwargs):
        if not kwargs:
            calls.append(list(order))
        return real_greedy(col, order, **kwargs)

    def fallback(col, uncolored):
        calls.append(set(uncolored))
        return real_fallback(col, uncolored)

    monkeypatch.setattr(solver, "greedy_color", greedy)
    monkeypatch.setattr(solver, "fallback_exact", fallback)
    col, rep = solve(g)
    assert col.is_total() and verify(col) == []
    failed = [c for c, report in enumerate(rep.components) if report.failure]
    assert sorted(rep.components[c].failure for c in failed) == ["girth3.cycle-length", "girth6.anchor-degree"]
    assert rep.strategies().count("girth3") == 1

    comp, k = metrics.label_components(g)
    plans = solver._plan_components(g, comp, k, PartialColoring(g, 22), Telemetry())
    dist = metrics.bfs_from_sources(g, plans.sources)
    (order,) = ref_class_orders(g, dist, comp, bytearray([1]) * k, ())
    assert len(calls) == 2 * len(failed)
    for c, greedy_order, skip in zip(failed, calls[::2], calls[1::2]):
        share = [e for e in order if comp[g.eu[e]] == c]
        assert greedy_order == [e for e in share if e not in skip]
        assert skip <= set(share)


def test_finishes_keep_no_cycle_context(en_graph, robertson, cage46, petersen):
    """The girth 4, 5 and 6 finishes close over edge ids (and the
    telemetry), not over a CycleContext with its far ends and incident
    list, so planning frees every context before the shared pass."""
    g = shuffled_union([en_graph, hypercube4(), robertson, cage46, petersen, complete(5)], seed=2)
    comp, k = metrics.label_components(g)
    plans = solver._plan_components(g, comp, k, PartialColoring(g, 22), Telemetry())
    assert sorted(plans.strategy[c] for c, _ in plans.finishes) == ["girth4", "girth4", "girth5", "girth6"]
    cells = [cell.cell_contents for _, finish in plans.finishes for cell in finish.__closure__]
    assert cells and not [x for x in cells if isinstance(x, (solver.CycleContext, dict))]


def test_high_girth_dispatch_scans_only_radius_two_balls(monkeypatch):
    """SL(2, 13)'s Cayley graph has girth 10. Dispatch only needs to know
    that no cycle of length <= 5 exists, so the cycle scan reads one
    neighbor slice per vertex for parallel pairs and at most the 17 of a
    radius-2 ball per BFS start, where an exact search reads balls of
    radius 5; girth() keeps the exact search."""
    g = cayley_sl2(13)
    n = g.vertex_count
    assert n == 2184 and metrics.girth(g) == 10
    real = metrics.shortest_cycles
    reads = []

    def counted(g, *args, **kwargs):
        csr = g.csr()
        nbr = CountingSlices(csr[2])
        g._csr = (csr[0], csr[1], nbr)
        try:
            return real(g, *args, **kwargs)
        finally:
            g._csr = csr
            reads.append(nbr.reads)

    monkeypatch.setattr(metrics, "shortest_cycles", counted)
    col, rep = solve(g)
    assert rep.strategies() == ["girth6"] and rep.fallback_invocations == 0
    assert col.is_total() and verify(col) == []
    assert len(reads) == 1 and reads[0] <= 18 * n


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


def test_solve_leaves_its_input_graph_as_it_was(cage46):
    src = disjoint_union(path(5), cage46, triangle_with_loops())
    g = MultiGraph.from_edges(src.vertex_count, src.edges)
    col, rep = solve(g)
    assert g.edges == src.edges
    assert_total_valid(g, col)
    want_col, want_rep = solve(src)
    assert as_dict(col) == as_dict(want_col)
    assert rep == want_rep


def test_label_components_order_and_content():
    """Components with edges are numbered by smallest member; isolated
    vertices keep -1."""
    g = MultiGraph.from_edges(6, [(4, 5), (0, 1)])
    assert components(g) == [[0, 1], [2], [3], [4, 5]]
    assert metrics.label_components(g) == ([0, 0, -1, -1, 1, 1], 2)
    for seed in range(25):
        h = random_multigraph(seed)
        comp, k = metrics.label_components(h)
        groups = [[v for v in range(h.vertex_count) if comp[v] == c] for c in range(k)]
        assert groups == [c for c in components(h) if h.degree(c[0])]
        assert all(comp[v] == -1 for v in range(h.vertex_count) if not h.degree(v))


def test_isolated_vertices_change_nothing(petersen, robertson, cage46):
    """10^5 isolated vertices spread between a few small components of
    every strategy: the same coloring and report as without them, and
    only the components with edges are numbered."""
    base = disjoint_union(
        path(4), triangle_with_loops(), doubled_triangle(), complete(5), hypercube4(), petersen, robertson, cage46
    )
    rng = random.Random(7)
    before = [0] * base.vertex_count  # isolated vertices placed before each vertex
    for _ in range(100_000):
        before[rng.randrange(base.vertex_count)] += 1
    new_id = []
    shift = 0
    for v in range(base.vertex_count):
        shift += before[v]
        new_id.append(v + shift)
    spread = MultiGraph.from_edges(base.vertex_count + 100_000, [(new_id[u], new_id[v]) for u, v in base.edges])
    col, rep = solve(spread)
    want_col, want_rep = solve(base)
    assert col._colors == want_col._colors and rep == want_rep
    strategies = ["low_degree", "loop", "double_edge", "girth3", "girth4", "low_degree", "girth5", "girth6"]
    assert rep.strategies() == strategies
    comp, k = metrics.label_components(spread)
    assert k == len(components(base)) == 8
    assert comp.count(-1) == 100_000


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_solve_property_random_multigraphs(seed):
    g = random_multigraph(seed, max_n=14, max_m=24)
    col, rep = solve(g)
    assert col.is_total()
    assert verify(col) == []
    assert rep.colors_used <= 22
    assert rep.fallback_invocations == 0


FIXTURE_MENU = (
    lambda: complete(5),
    lambda: complete_bipartite(4, 4),
    hypercube4,
    triangle_with_loops,
    doubled_triangle,
    two_loops_one_vertex,
    lambda: load_fixture("petersen"),
    lambda: load_fixture("robertson"),
    lambda: load_fixture("cage_4_6"),
    erdos_nesetril_5,
    lambda: path(1),
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.integers(0, len(FIXTURE_MENU) - 1).map(lambda i: FIXTURE_MENU[i]()),
            st.integers(0, 10_000).map(lambda seed: random_multigraph(seed, max_n=12, max_m=22)),
        ),
        min_size=1,
        max_size=6,
    ),
    st.integers(0, 1000),
)
def test_solve_equals_solving_each_component_alone(graphs, seed):
    g = shuffled_union(graphs, seed)
    col, rep = solve(g)
    subs = split_components(g)
    assert len(rep.components) == len(subs)
    labels = Counter()
    fallbacks = 0
    for (sub, emap), comp in zip(subs, rep.components):
        sub_col, sub_rep = solve(sub)
        assert [color_of(col, e) for e in emap] == [color_of(sub_col, e) for e in range(sub.edge_count)]
        assert sub_rep.components == [comp]
        labels.update(sub_rep.labels)
        fallbacks += sub_rep.fallback_invocations
    assert Counter(rep.labels) == labels
    assert rep.assertions_checked == sum(labels.values())
    assert rep.fallback_invocations == fallbacks
