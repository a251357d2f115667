import random

import pytest

import strongcolor.gen as gen
from helpers import has_loop, parallel_pair
from strongcolor import (
    GenSpec,
    RejectionBudgetExhausted,
    emit_graph,
    erdos_nesetril_5,
    fixture_names,
    generate,
    girth,
    load_fixture,
    random_4regular,
    random_max4,
    star_neighborhood,
)


def test_erdos_nesetril_shape(en_graph):
    assert en_graph.vertex_count == 10
    assert en_graph.edge_count == 20
    assert en_graph.max_degree() == 4
    assert en_graph.min_degree() == 4
    assert girth(en_graph) == 4


def test_erdos_nesetril_all_edges_conflict(en_graph):
    for e in range(en_graph.edge_count):
        assert len(en_graph.conflict_set(e)) == en_graph.edge_count - 1


def test_star_neighborhood_shape(star_graph):
    assert star_graph.vertex_count == 26
    assert star_graph.edge_count == 25
    assert star_graph.max_degree() == 4
    sizes = [len(star_graph.conflict_set(e)) for e in range(star_graph.edge_count)]
    assert max(sizes) == 24


def test_random_max4_deterministic():
    a = random_max4(40, seed=12)
    b = random_max4(40, seed=12)
    assert emit_graph(a) == emit_graph(b)
    c = random_max4(40, seed=13)
    assert emit_graph(a) != emit_graph(c)


def test_random_max4_respects_degree_cap():
    for seed in range(30):
        g = random_max4(25, seed=seed, allow_loops=True, allow_parallel=True)
        assert g.max_degree() <= 4


def test_random_max4_edge_count_honored():
    g = random_max4(50, m=90, seed=7)
    assert g.edge_count == 90
    assert g.vertex_count == 50


def test_random_max4_flags_honored():
    g = random_max4(30, seed=3)
    assert not has_loop(g)
    assert parallel_pair(g) is None
    loops_seen = parallels_seen = False
    for seed in range(40):
        g = random_max4(12, seed=seed, allow_loops=True, allow_parallel=True)
        loops_seen = loops_seen or has_loop(g)
        parallels_seen = parallels_seen or parallel_pair(g) is not None
    assert loops_seen and parallels_seen


def test_random_max4_capacity_errors():
    with pytest.raises(ValueError):
        random_max4(3, m=4, seed=0)  # K3 has only 3 edges
    with pytest.raises(ValueError):
        random_max4(4, m=9, seed=0)  # degree sum would exceed 4n


def test_random_max4_zero_vertices():
    g = random_max4(0, seed=0)
    assert g.vertex_count == 0
    assert g.edge_count == 0


def test_random_max4_small_defaults():
    # tiny n must clamp the default edge count instead of erroring
    for n in (1, 2, 3):
        g = random_max4(n, seed=5)
        assert g.max_degree() <= 4


def _count_shuffles(monkeypatch) -> list[int]:
    """Count random.Random.shuffle calls: random_max4 shuffles its stubs
    once to start and once per restart."""
    real = random.Random.shuffle
    calls = [0]

    def spy(self, x):
        calls[0] += 1
        return real(self, x)

    monkeypatch.setattr(random.Random, "shuffle", spy)
    return calls


def test_random_max4_restarts(monkeypatch):
    """Six vertices and 12 edges leave little room: seed 4 strands its
    stubs and reshuffles four times before it pairs them all, and the
    result is still simple, full and deterministic."""
    calls = _count_shuffles(monkeypatch)
    g = random_max4(6, m=12, seed=4)
    assert calls == [5]
    assert g.edge_count == 12 and g.max_degree() <= 4
    assert not has_loop(g) and parallel_pair(g) is None
    assert emit_graph(random_max4(6, m=12, seed=4)) == emit_graph(g)


@pytest.mark.parametrize(
    "n, m, shuffles",
    [(6, 12, 21), (100, 1, 1)],
    ids=["restarts-exhausted", "draw-budget-exhausted"],
)
def test_random_max4_gives_up(monkeypatch, n, m, shuffles):
    """With every draw repeating one stub no edge is ever taken: a small
    graph stalls through all 20 restarts, and a large one with one edge
    to place spends its budget of 200 * (m + 1) draws before its first
    stall."""
    calls = _count_shuffles(monkeypatch)
    monkeypatch.setattr(random.Random, "randrange", lambda self, *args: 0)
    with pytest.raises(RejectionBudgetExhausted, match=f"random_max4\\(n={n}, m={m}, seed=0\\) stalled"):
        random_max4(n, m=m, seed=0)
    assert calls == [shuffles]


def test_random_4regular_without_a_simple_pairing(monkeypatch):
    monkeypatch.setattr(gen, "_pairing_4regular", lambda n, rng: None)
    with pytest.raises(RejectionBudgetExhausted, match="^no simple pairing found for n=8, seed=3$"):
        random_4regular(8, seed=3)


@pytest.mark.parametrize("min_girth,n", [(3, 14), (4, 14), (5, 30)])
def test_random_4regular(min_girth, n):
    hits = 0
    for seed in range(6):
        g, reported = random_4regular(n, seed=seed, min_girth=min_girth)
        assert all(g.degree(v) == 4 for v in range(g.vertex_count))
        assert girth(g) == reported
        assert reported >= min_girth
        if reported == min_girth:
            hits += 1
    assert hits >= 1


def test_random_4regular_deterministic():
    a, ga = random_4regular(16, seed=2, min_girth=4)
    b, gb = random_4regular(16, seed=2, min_girth=4)
    assert emit_graph(a) == emit_graph(b)
    assert ga == gb


def test_generate_dispatch():
    g = generate(GenSpec(kind="erdos_nesetril_5"))
    assert g.edge_count == 20
    g = generate(GenSpec(kind="star_neighborhood"))
    assert g.edge_count == 25
    g = generate(GenSpec(kind="random_max4", n=20, seed=4))
    assert g.max_degree() <= 4
    g = generate(GenSpec(kind="random_4regular", n=12, seed=4, min_girth=3))
    assert g.min_degree() == 4
    with pytest.raises(ValueError):
        generate(GenSpec(kind="mystery"))


def test_fixture_names_and_checksums():
    names = fixture_names()
    assert set(names) >= {"petersen", "robertson", "cage_4_6"}
    for name in names:
        load_fixture(name)
    with pytest.raises(ValueError):
        load_fixture("absent")


def test_fixture_checksum_mismatch(monkeypatch):
    monkeypatch.setitem(gen.FIXTURES["petersen"], "sha256", "0" * 64)
    with pytest.raises(ValueError, match="fixture petersen checksum mismatch"):
        load_fixture("petersen")


def test_petersen_fixture(petersen):
    assert petersen.vertex_count == 10
    assert petersen.edge_count == 15
    assert all(petersen.degree(v) == 3 for v in range(10))
    assert girth(petersen) == 5


def test_robertson_fixture(robertson):
    assert robertson.vertex_count == 19
    assert robertson.edge_count == 38
    assert all(robertson.degree(v) == 4 for v in range(19))
    assert girth(robertson) == 5


def test_cage_fixture(cage46):
    assert cage46.vertex_count == 26
    assert cage46.edge_count == 52
    assert all(cage46.degree(v) == 4 for v in range(26))
    assert girth(cage46) == 6
