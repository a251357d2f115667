import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_conflict_set, cycle, disjoint_union, path, random_multigraph, ref_verify, ref_violations
from strongcolor import (
    ConflictError,
    MultiGraph,
    PaletteExhausted,
    PartialColoring,
    greedy_color,
    random_max4,
    solve,
    verify,
)
from strongcolor.solver import Telemetry


def ref_greedy(g, order, colors, palette):
    """Minimum-free-color greedy straight from the conflict-set definition."""
    out = list(colors)
    for e in order:
        used = {out[f] for f in g.conflict_set(e)}
        c = 1
        while c in used:
            c += 1
        if c > palette:
            raise PaletteExhausted(e, palette)
        out[e] = c
    return out


def test_available_colors_full_on_empty_coloring():
    g = path(3)
    col = PartialColoring(g, 22)
    assert col.available_colors(0) == set(range(1, 23))


def test_available_colors_after_one_assignment():
    g = path(3)
    col = PartialColoring(g, 22)
    col.assign(0, 1)
    assert col.available_colors(1) == set(range(2, 23))


def test_available_colors_rejects_colored_edge():
    g = path(3)
    col = PartialColoring(g, 22)
    col.assign(0, 1)
    with pytest.raises(ValueError):
        col.available_colors(0)


def test_assign_rejects_conflict():
    g = path(3)
    col = PartialColoring(g, 22)
    col.assign(0, 1)
    with pytest.raises(ConflictError):
        col.assign(1, 1)


def test_assign_rejects_out_of_palette():
    g = path(3)
    col = PartialColoring(g, 4)
    with pytest.raises(ValueError):
        col.assign(0, 5)
    with pytest.raises(ValueError):
        col.assign(0, 0)


def test_same_color_legal_beyond_conflict_distance():
    g = path(5)
    col = PartialColoring(g, 22)
    col.assign(0, 1)
    col.assign(3, 1)
    assert verify(col) == []


def test_p4_end_edges_same_color_is_a_violation():
    g = path(4)
    col = PartialColoring(g, 22)
    col._set_unchecked(0, 7)
    col._set_unchecked(2, 7)
    bad = verify(col)
    assert len(bad) == 1
    e, f, c = bad[0]
    assert {e, f} == {0, 2} and c == 7


def test_adjacent_same_color_is_a_violation():
    g = path(3)
    col = PartialColoring(g, 22)
    col._set_unchecked(0, 3)
    col._set_unchecked(1, 3)
    assert len(verify(col)) == 1


def test_greedy_on_p3():
    g = path(3)
    col = PartialColoring(g, 22)
    greedy_color(col, [0, 1])
    assert col._colors == [1, 2]


def test_greedy_on_c5_uses_five_distinct_colors():
    g = cycle(5)
    for seed in range(6):
        order = list(range(5))
        random.Random(seed).shuffle(order)
        col = PartialColoring(g, 22)
        greedy_color(col, order)
        assert col.colors_used() == 5
        assert verify(col) == []


def test_greedy_en_graph_uses_exactly_20(en_graph):
    col = PartialColoring(en_graph, 25)
    greedy_color(col, list(range(20)))
    assert col.colors_used() == 20
    assert verify(col) == []


def test_greedy_respects_precolored_edges():
    g = path(4)
    col = PartialColoring(g, 22)
    col.assign(1, 5)
    greedy_color(col, [0, 2])
    assert col.color_of(1) == 5
    assert verify(col) == []


def test_greedy_rejects_already_colored_edge_in_order():
    g = path(3)
    col = PartialColoring(g, 22)
    col.assign(0, 1)
    with pytest.raises(ValueError):
        greedy_color(col, [0, 1])


def test_greedy_palette_exhausted():
    g = cycle(5)
    col = PartialColoring(g, 4)
    with pytest.raises(PaletteExhausted):
        greedy_color(col, list(range(5)))


def test_palette_beyond_bitmask_width_rejected():
    g = path(3)
    col = PartialColoring(g, 63)
    with pytest.raises(ValueError):
        greedy_color(col, [0, 1])


def test_greedy_matches_reference_on_random_multigraphs():
    for seed in range(60):
        g = random_multigraph(seed)
        if g.edge_count == 0:
            continue
        rng = random.Random(seed)
        order = list(range(g.edge_count))
        rng.shuffle(order)
        pre = {}
        # sprinkle a valid partial coloring first
        col = PartialColoring(g, 25)
        for e in order[: g.edge_count // 3]:
            avail = sorted(col.available_colors(e))
            if avail:
                c = rng.choice(avail)
                col.assign(e, c)
                pre[e] = c
        rest = [e for e in order if e not in pre]
        want = ref_greedy(g, rest, col._colors, 25)
        greedy_color(col, rest)
        assert col._colors == want
        assert verify(col) == []


def test_greedy_minimality_replay():
    for seed in range(25):
        g = random_multigraph(seed)
        order = list(range(g.edge_count))
        random.Random(seed).shuffle(order)
        col = PartialColoring(g, 25)
        greedy_color(col, order)
        replay = PartialColoring(g, 25)
        for e in order:
            c = col.color_of(e)
            for lower in range(1, c):
                assert lower not in replay.available_colors(e) or any(
                    replay._colors[f] == lower for f in g.conflict_set(e)
                )
            replay._set_unchecked(e, c)


def test_greedy_ceiling_telemetry_counts():
    g = path(4)
    col = PartialColoring(g, 22)
    tel = Telemetry()
    greedy_color(col, [0, 1, 2], telemetry=tel, max_conflict_colors=20, max_color=21)
    assert tel.checks == 6
    assert tel.labels["greedy.conflict-color-bound"] == 3
    assert tel.labels["greedy.color-ceiling"] == 3


def test_verify_matches_reference_checker():
    for seed in range(40):
        g = random_multigraph(seed, max_n=10)
        rng = random.Random(seed + 1)
        col = PartialColoring(g, 6)
        for e in range(g.edge_count):
            if rng.random() < 0.7:
                col._set_unchecked(e, rng.randint(1, 6))
        got = {(min(e, f), max(e, f)) for e, f, _ in verify(col)}
        want = set(ref_violations(g, {e: c for e, c in enumerate(col._colors) if c}))
        assert got == want


def test_verify_empty_means_induced_matchings():
    for seed in range(20):
        g = random_multigraph(seed)
        col = PartialColoring(g, 25)
        greedy_color(col, list(range(g.edge_count)))
        assert verify(col) == []
        by_color = {}
        for e, c in enumerate(col._colors):
            by_color.setdefault(c, []).append(e)
        for members in by_color.values():
            for i, e in enumerate(members):
                for f in members[i + 1 :]:
                    assert f not in g.conflict_set(e)


@pytest.mark.parametrize("c", [63, 64, 1000, 10**9])
def test_verify_colors_above_62(c):
    g = path(5)
    col = PartialColoring(g, c)
    col._set_unchecked(0, c)
    col._set_unchecked(3, c)
    col._set_unchecked(1, 10**9 + 7)
    assert verify(col) == []
    col._set_unchecked(2, c)
    assert verify(col) == [(0, 2, c), (2, 3, c)]


def test_verify_more_than_63_distinct_colors_matches_reference():
    for seed in range(30):
        g = disjoint_union(*(random_multigraph(seed * 16 + k, max_n=24, max_m=48) for k in range(16)))
        assert g.edge_count > 63  # so mask bits are shared
        rng = random.Random(seed)
        palette = rng.sample(range(1, 10**9), g.edge_count)
        col = PartialColoring(g, 22)
        for e, c in enumerate(palette):
            col._set_unchecked(e, c)
        assert verify(col) == []
        for e in rng.sample(range(g.edge_count), min(12, g.edge_count)):
            col._set_unchecked(e, rng.choice(palette[:20]))
        assert verify(col) == ref_verify(col)


@pytest.mark.parametrize(
    "loops, parallel",
    [
        pytest.param(False, False, id="False"),
        pytest.param(True, False, id="True"),
        pytest.param(False, True, id="parallel"),
    ],
)
def test_verify_queries_conflict_sets_only_near_a_recolored_edge(monkeypatch, loops, parallel):
    g = random_max4(2000, seed=0, allow_loops=loops, allow_parallel=parallel)
    assert (g.find_parallel_pair() is not None) == parallel
    col, _ = solve(g)
    conflict_set = MultiGraph.conflict_set
    calls = []

    def counted(self, e):
        calls.append(e)
        return conflict_set(self, e)

    monkeypatch.setattr(MultiGraph, "conflict_set", counted)
    assert verify(col) == [] and calls == []

    e = 1234
    near = conflict_set(g, e) | {e}
    f = min(near - {e})
    col._set_unchecked(e, col.color_of(f))
    bad = verify(col)
    assert bad and all(e in (x, y) for x, y, _ in bad)
    assert e in calls and set(calls) <= near
    assert bad == ref_verify(col)


def test_copy_unassign_and_queries():
    g = path(5)
    col = PartialColoring(g, 22)
    col.assign(0, 1)
    dup = col.copy()
    dup.assign(3, 1)
    assert not col.is_colored(3)
    assert dup.is_total() is False
    dup.unassign(0)
    assert dup.color_of(0) is None
    assert col.color_of(0) == 1
    assert col.uncolored_edges() == [1, 2, 3]
    assert dup.as_dict() == {3: 1}


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    k = draw(st.integers(min_value=0, max_value=20))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=k,
            max_size=k,
        )
    )
    g = MultiGraph(n)
    for u, v in pairs:
        cost = 2 if u == v else 1
        if g.degree(u) + cost > 4 or (u != v and g.degree(v) >= 4):
            continue
        g.add_edge(u, v)
    return g.freeze()


@given(small_graphs(), st.randoms(use_true_random=False))
@settings(max_examples=120, deadline=None)
def test_greedy_property_valid_and_at_most_25(g, rng):
    order = list(range(g.edge_count))
    rng.shuffle(order)
    col = PartialColoring(g, 25)
    greedy_color(col, order)
    assert col.is_total()
    assert col.colors_used() <= 25
    assert verify(col) == []


@given(
    small_graphs(),
    st.randoms(use_true_random=False),
    st.sampled_from([1, 20, 63, 10**9]),
)
@settings(max_examples=300, deadline=None)
def test_verify_equals_reference_listing(g, rng, base):
    """A valid greedy coloring with edges randomly uncolored or recolored
    from a few colors at `base`; the result must equal the reference list."""
    order = list(range(g.edge_count))
    rng.shuffle(order)
    col = PartialColoring(g, 25)
    greedy_color(col, order)
    for e in range(g.edge_count):
        r = rng.random()
        if r < 0.2:
            col.unassign(e)
        elif r < 0.45:
            col._set_unchecked(e, base + rng.randrange(4))
    assert verify(col) == ref_verify(col)


@given(
    small_graphs(),
    st.integers(min_value=1, max_value=62),
    st.lists(
        st.tuples(st.sampled_from(["assign", "unassign", "set", "greedy"]), st.randoms(use_true_random=False)),
        max_size=30,
    ),
)
@settings(max_examples=150, deadline=None)
def test_color_masks_stay_exact_under_every_write(g, palette, steps):
    """Random assign/unassign/_set_unchecked (colors <= 62)/greedy_color
    steps: once built, the masks equal a rebuild from the color list, and
    every conflict query agrees with the brute-force conflict sets."""
    m = g.edge_count
    near = [brute_conflict_set(g, e) for e in range(m)]
    col = PartialColoring(g, palette)
    colors = col._colors
    for op, rng in steps:
        e = rng.randrange(m) if m else None
        if op == "assign" and e is not None and not colors[e]:
            c = rng.randint(1, palette)
            if any(colors[f] == c for f in near[e]):
                with pytest.raises(ConflictError):
                    col.assign(e, c)
            else:
                col.assign(e, c)
        elif op == "unassign" and e is not None:
            col.unassign(e)
        elif op == "set" and e is not None:
            col._set_unchecked(e, rng.randint(0, 62))
        elif op == "greedy":
            order = [f for f in range(m) if not colors[f]]
            rng.shuffle(order)
            try:
                greedy_color(col, order[: rng.randint(0, len(order))])
            except PaletteExhausted:
                pass
        if col._at is not None:
            want = [0] * g.vertex_count
            for (u, v), c in zip(g.edges, colors):
                if c:
                    want[u] |= 1 << c
                    want[v] |= 1 << c
            assert col._at.tolist() == want
        for f in range(m):
            if not colors[f]:
                used = {colors[h] for h in near[f]}
                assert col.available_colors(f) == set(range(1, palette + 1)) - used


@pytest.mark.parametrize("built", [False, True], ids=["unbuilt", "built"])
@pytest.mark.parametrize("query", ["available_colors", "assign", "greedy_color"])
def test_conflict_query_with_a_color_above_62_raises(query, built):
    g = path(5)
    col = PartialColoring(g, 22)
    if built:
        col.available_colors(3)
    col._set_unchecked(0, 63)
    assert col._at is None
    with pytest.raises(ValueError):
        if query == "available_colors":
            col.available_colors(3)
        elif query == "assign":
            col.assign(3, 1)
        else:
            greedy_color(col, [3])
    assert verify(col) == []
