import random
from collections import Counter

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
    cycle,
    disjoint_union,
    doubled_triangle,
    greedy_phase,
    hypercube4,
    path,
    random_multigraph,
    ref_color_tail,
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
    col, _ = greedy_phase(g, 0, held=g.incident_edges(0), telemetry=Telemetry())
    assert col.uncolored_edges() == list(range(4))


def test_color_except_vertex_pentagon():
    g = cycle(5)
    col, _ = greedy_phase(g, 0, held=g.incident_edges(0), telemetry=Telemetry())
    assert len(col.uncolored_edges()) == 2
    assert verify(col) == []
    assert colors_used(col) <= 21


def test_color_except_vertex_4regular(robertson):
    col, _ = greedy_phase(robertson, 7, held=robertson.incident_edges(7), telemetry=Telemetry())
    assert set(col.uncolored_edges()) == set(robertson.incident_edges(7))
    assert verify(col) == []


def test_color_except_cycle_whole_graph():
    g = cycle(5)
    c = find_shortest_cycle(g)
    col, _ = greedy_phase(g, c, held=c.edges, telemetry=Telemetry())
    assert col.uncolored_edges() == sorted(c.edges)
    assert len(col.uncolored_edges()) == 5


def test_color_except_cycle_k5():
    g = complete(5)
    c = find_shortest_cycle(g)
    assert len(c) == 3
    col, _ = greedy_phase(g, c, held=c.edges, telemetry=Telemetry())
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
    e = g.find_loop()
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
    pair = g.find_parallel_pair()
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
    edges = tuple(metrics._edge_between(g, a, b) for a, b in zip(verts, verts[1:] + verts[:1]))
    c = CycleDescriptor(verts, edges)
    tel = Telemetry()
    plan = solve_girth4(g, c, tel)
    held = plan[0]
    assert len(set(held) - set(c.edges)) == 4
    col = run_plan(g, c, plan, tel)
    assert tel.labels["girth4.diagonal-neighborhood"] == 4
    assert_total_valid(g, col)


@pytest.mark.parametrize("n, seed, colors", [(12, 24, 13), (14, 31, 17)])
def test_solve_dispatches_girth4_to_the_diagonals(monkeypatch, n, seed, colors):
    """The first shortest cycle of these graphs has no adjacent pair and
    no free pair between corners 1 and 3, so solve_girth4 reserves the
    diagonals of that pack."""
    real = solver._girth4_with_diagonals
    packs = []

    def spy(g, ctx, tel, i, j):
        packs.append((i, j))
        return real(g, ctx, tel, i, j)

    monkeypatch.setattr(solver, "_girth4_with_diagonals", spy)
    g, _ = random_4regular(n, seed=seed, min_girth=4)
    col, rep = solve(g)
    assert packs == [(1, 3)]
    assert rep.strategies() == ["girth4"] and rep.fallback_invocations == 0
    assert col.is_total() and verify(col) == [] and rep.colors_used == colors
    assert rep.labels["girth4.diagonal-neighborhood"] == 4
    assert rep.labels["girth4.diagonals-distinct"] == 1


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
    """The tail routine counts each edge's colored conflicting edges and
    colors it as a conflict-set count and a one-edge greedy_color call
    did: same colors, same checks per label, and the same failure at the
    same edge, on multigraphs with loops and parallel edges."""
    rng = random.Random(seed)
    g = random_multigraph(seed, max_n=12, max_m=24)
    base = PartialColoring(g, 22)
    greedy_color(base, rng.sample(range(g.edge_count), rng.randint(0, g.edge_count)))
    tail = [e for e in range(g.edge_count) if not base._colors[e]]
    rng.shuffle(tail)
    caps = [rng.randint(0, 24) for _ in tail]
    ceiling = rng.randint(1, 22)

    def outcome(color_tail):
        col = base.copy()
        tel = Telemetry()
        try:
            color_tail(col, tel)
            failure = None
        except (LemmaAssertionError, PaletteExhausted) as exc:
            failure = (type(exc), str(exc))
        return failure, col._colors, tel.checks, tel.labels

    assert outcome(lambda col, tel: solver._color_tail(col, tail, caps, ["lemma"] * len(tail), tel, ceiling)) == (
        outcome(lambda col, tel: ref_color_tail(col, tail, caps, "lemma", tel, ceiling))
    )


# --- cycle context labeling ------------------------------------------------


def test_cycle_context_k44():
    g = complete_bipartite(4, 4)
    c = find_shortest_cycle(g)
    ctx = label_cycle_context(g, c, Telemetry())
    assert sorted(ctx.c) == [1, 2, 3, 4]
    incident = ctx.incident_edges()
    assert len(incident) == 8
    assert len(set(incident)) == 8
    assert not set(incident) & set(c.edges)
    for i in range(1, 5):
        assert ctx.a[i] != ctx.b[i]


def test_cycle_context_girth5_separation(robertson):
    c = find_shortest_cycle(robertson)
    ctx = label_cycle_context(robertson, c, Telemetry())
    assert len(ctx.incident_edges()) == 10
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
    assert tel.fallbacks == 0


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
    out = fallback_exact(g, col, [])
    assert as_dict(out) == {0: 1, 1: 2}


def test_fallback_exact_single_edge():
    g = path(2)
    col = PartialColoring(g, 22)
    out = fallback_exact(g, col, [0])
    assert color_of(out, 0) == 1


def test_fallback_exact_completes_stripped_k5():
    g = complete(5)
    full, _ = solve(g)
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

    real = solver._label_components
    monkeypatch.setattr(solver, "solve_girth3", boom)
    monkeypatch.setattr(solver, "_label_components", labelled)
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
    real = solver.solve_girth3

    def late(g, cycle, tel):
        tail, caps, label = real(g, cycle, tel)
        return tail, (0,) * len(caps), label  # the tail's first check fails

    monkeypatch.setattr(solver, "solve_girth3", late)
    col, rep = solve(g)
    assert col.is_total() and verify(col) == []
    assert rep.strategies() == ["fallback_exact", "girth6"]
    assert rep.components[0].failure == "girth3.final-neighborhood"
    assert [color_of(col, e) for e in range(10, g.edge_count)] == [
        color_of(clean_col, e) for e in range(10, g.edge_count)
    ]


def _failing_tail(monkeypatch, fail_at):
    """Patch solver.solve_girth3 so that its fail_at-th call from now on
    (1-based; 0 for none) plans caps of 0, and that tail's first edge
    fails the lemma check. Returns the cycles it is called with."""
    real = solver.solve_girth3
    calls = []

    def capped(g, cycle, tel):
        tail, caps, label = real(g, cycle, tel)
        calls.append(cycle)
        return tail, (0,) * len(caps) if len(calls) == fail_at else caps, label

    monkeypatch.setattr(solver, "solve_girth3", capped)
    return calls


def test_tail_failure_rescues_only_its_component(monkeypatch, petersen, cage46):
    """One K5's tail lemma fails inside the one tail loop: only that
    component is rescued, the loop goes on with the tails after it, and
    every other component gets the colors and checks it gets alone."""
    parts = [complete(5), petersen, complete(5), triangle_with_loops(), complete(5), doubled_triangle(), cage46]
    g = shuffled_union(parts, seed=7)
    clean_col, clean_rep = solve(g)
    victim = [i for i, c in enumerate(clean_rep.components) if c.strategy == "girth3"][1]
    tails = ("low_degree", "loop", "double_edge", "girth3")
    assert any(c.strategy in tails for c in clean_rep.components[victim + 1 :])

    calls = _failing_tail(monkeypatch, 2)
    col, rep = solve(g)
    assert len(calls) == 3
    assert col.is_total() and verify(col) == []
    assert rep.fallback_invocations == 1
    subs = split_components(g)
    want = Counter()
    for idx, ((sub, emap), comp, clean) in enumerate(zip(subs, rep.components, clean_rep.components)):
        if idx == victim:
            assert comp.strategy == "fallback_exact"
            assert comp.failure == "girth3.final-neighborhood"
            _failing_tail(monkeypatch, 1)
        else:
            assert comp == clean
            assert [color_of(col, e) for e in emap] == [color_of(clean_col, e) for e in emap]
            _failing_tail(monkeypatch, 0)
        sub_col, sub_rep = solve(sub)
        assert sub_rep.components == [comp]
        if idx != victim:
            assert [color_of(col, e) for e in emap] == [color_of(sub_col, e) for e in range(sub.edge_count)]
        want.update(sub_rep.labels)
    assert Counter(rep.labels) == want
    assert rep.assertions_checked == sum(want.values())


def test_clean_solve_runs_each_shared_step_once(monkeypatch, en_graph, robertson, cage46, petersen):
    parts = [complete(5), en_graph, robertson, cage46, petersen]
    g = shuffled_union(parts + [triangle_with_loops(), doubled_triangle(), path(7)], seed=11)
    calls = Counter()
    bounds = []
    finishing = []  # edges of each greedy_color call without a bound class
    held = []  # held-back edges of each plan: a tail, or the held edges

    def counted(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "greedy_color":
                if "max_conflict_colors" in kwargs:
                    bounds.append((kwargs["max_conflict_colors"], kwargs["max_color"]))
                else:
                    finishing.append(set(args[1]))
            out = real(*args, **kwargs)
            if name.startswith("solve_"):
                held.append(set(out[0]))
            return out

        monkeypatch.setattr(owner, name, wrapper)

    counted(solver, "_label_components")
    counted(solver, "_plan_components")
    counted(solver, "_finish_tails")
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
    assert calls["_label_components"] == 1
    assert calls["shortest_cycles"] == 1
    assert calls["bfs_from_sources"] == 1
    assert calls["order_by_distance"] == 1
    assert calls["find_shortest_cycle"] == calls["__init__"] == 0
    assert calls["_plan_components"] == calls["_finish_tails"] == 1
    assert sorted(bounds) == [(20, 21), (21, 22)]
    assert len(held) == len(rep.components)
    assert finishing and all(sum(edges <= h for h in held) == 1 for edges in finishing)


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
    g = MultiGraph.from_edges(6, [(4, 5), (0, 1)])
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
