import random

import pytest

from strongcolor import (
    BoundTooLow,
    exact_strong_index,
    verify,
)
from helpers import (
    as_dict,
    complete,
    complete_bipartite,
    cycle,
    greedy_upper_bound,
    naive_exact,
    path,
    random_multigraph,
)


def test_exact_pentagon():
    res = exact_strong_index(cycle(5))
    assert res.chi == 5


def test_exact_k4():
    assert exact_strong_index(complete(4)).chi == 6


def test_exact_k5():
    assert exact_strong_index(complete(5)).chi == 10


def test_exact_k44():
    assert exact_strong_index(complete_bipartite(4, 4)).chi == 16


def test_exact_petersen(petersen):
    assert exact_strong_index(petersen).chi == 5


def test_exact_erdos_nesetril(en_graph):
    assert exact_strong_index(en_graph).chi == 20


def test_exact_path():
    assert exact_strong_index(path(4)).chi == 3


def test_exact_empty_and_single_edge():
    res = exact_strong_index(path(1))
    assert res.chi == 0
    assert as_dict(res.witness) == {}
    assert exact_strong_index(path(2)).chi == 1


def test_witness_is_valid_and_tight():
    g = complete_bipartite(3, 3)
    res = exact_strong_index(g)
    assert verify(res.witness) == []
    got = as_dict(res.witness)
    assert sorted(got) == list(range(g.edge_count))
    assert len(set(got.values())) == res.chi


def test_exact_matches_naive_enumeration():
    rng = random.Random(91)
    checked = 0
    for seed in range(200):
        g = random_multigraph(seed, max_n=6, max_m=8)
        if g.edge_count > 8:
            continue
        assert exact_strong_index(g).chi == naive_exact(g)
        checked += 1
        rng.random()
    assert checked >= 100


def test_exact_never_exceeds_greedy():
    for seed in range(40):
        g = random_multigraph(seed, max_n=10, max_m=16)
        ub = greedy_upper_bound(g)
        assert exact_strong_index(g, upper_bound=max(ub, 1)).chi <= ub


def test_bound_too_low():
    with pytest.raises(BoundTooLow):
        exact_strong_index(cycle(5), upper_bound=4)


def test_upper_bound_must_be_positive():
    with pytest.raises(ValueError, match="upper_bound must be >= 1"):
        exact_strong_index(cycle(5), upper_bound=0)


def test_edge_limit_guard():
    g = complete_bipartite(5, 9)  # 45 edges
    assert g.edge_count > 40
    with pytest.raises(ValueError):
        exact_strong_index(g)


def test_greedy_upper_bound_small():
    assert greedy_upper_bound(path(3)) == 2


def test_greedy_upper_bound_en(en_graph):
    got = greedy_upper_bound(en_graph)
    assert got == 20


def test_greedy_upper_bound_caps_at_25():
    for seed in range(60):
        g = random_multigraph(seed)
        assert greedy_upper_bound(g) <= 25


def test_clique_lower_bounds(en_graph):
    # every edge of these graphs conflicts with every other, so the
    # exact index equals the edge count
    assert exact_strong_index(complete_bipartite(4, 4)).chi == 16
    assert exact_strong_index(en_graph).chi == en_graph.edge_count
