import itertools
import random

import pytest

from strongcolor import common_color, find_sdr, max_discrepancy_subset


def brute_has_sdr(family):
    """Try every injection from edges to colors."""
    ids = sorted(family)
    pools = [sorted(family[i]) for i in ids]
    for combo in itertools.product(*pools):
        if len(set(combo)) == len(combo):
            return True
    return not ids


def test_sdr_singleton():
    assert find_sdr({7: {1}}) == {7: 1}


def test_sdr_hall_violation():
    assert find_sdr({1: {1}, 2: {1}}) is None


def test_sdr_three_cycle_family():
    fam = {1: {1, 2}, 2: {2, 3}, 3: {1, 3}}
    sdr = find_sdr(fam)
    assert sdr is not None
    assert len(set(sdr.values())) == 3
    for e, c in sdr.items():
        assert c in fam[e]


def test_sdr_empty_family():
    assert find_sdr({}) == {}


def test_discrepancy_empty_family():
    res = max_discrepancy_subset({})
    assert res.subset == frozenset() and res.disc == 0


def test_sdr_output_is_distinct_and_member(seed_count=200):
    rng = random.Random(4)
    for _ in range(seed_count):
        fam = {
            e: set(rng.sample(range(1, 7), rng.randint(1, 4)))
            for e in range(rng.randint(1, 8))
        }
        sdr = find_sdr(fam)
        if sdr is None:
            continue
        assert sorted(sdr) == sorted(fam)
        assert len(set(sdr.values())) == len(sdr)
        for e, c in sdr.items():
            assert c in fam[e]


def test_sdr_agrees_with_brute_force():
    rng = random.Random(11)
    for _ in range(300):
        fam = {
            e: set(rng.sample(range(1, 6), rng.randint(1, 3)))
            for e in range(rng.randint(1, 6))
        }
        assert (find_sdr(fam) is not None) == brute_has_sdr(fam)


def test_discrepancy_hall_violation_pair():
    res = max_discrepancy_subset({1: {1}, 2: {1}})
    assert res.disc == 1
    assert res.subset == {1, 2}


def test_discrepancy_nonpositive_when_sdr_exists():
    fam = {1: {1, 2}, 2: {2, 3}, 3: {1, 3}}
    assert max_discrepancy_subset(fam).disc <= 0


def test_discrepancy_tie_breaks_prefer_larger_subset():
    # {e1,e2} and {e1,e2,e3} both have discrepancy 1; larger set wins
    fam = {1: {1}, 2: {1}, 3: {1, 2}}
    res = max_discrepancy_subset(fam)
    assert res.disc == 1
    assert res.subset == {1, 2, 3}


def test_discrepancy_definition_holds():
    rng = random.Random(23)
    for _ in range(200):
        fam = {
            e: set(rng.sample(range(1, 7), rng.randint(1, 4)))
            for e in range(rng.randint(1, 8))
        }
        res = max_discrepancy_subset(fam)
        union = set()
        for e in res.subset:
            union |= fam[e]
        assert res.disc == len(res.subset) - len(union)
        # maximality against every subset
        ids = sorted(fam)
        for r in range(1, len(ids) + 1):
            for subset in itertools.combinations(ids, r):
                u = set()
                for e in subset:
                    u |= fam[e]
                assert len(subset) - len(u) <= res.disc


def test_discrepancy_family_size_cap():
    fam = {e: {1} for e in range(17)}
    with pytest.raises(ValueError):
        max_discrepancy_subset(fam)


def test_duality_on_random_families():
    rng = random.Random(7)
    for _ in range(1500):
        fam = {
            e: set(rng.sample(range(1, 7), rng.randint(1, 5)))
            for e in range(rng.randint(1, 10))
        }
        has = find_sdr(fam) is not None
        disc = max_discrepancy_subset(fam).disc
        assert has == (disc <= 0)


def test_common_color_examples():
    fam = {1: {1, 2}, 2: {2, 3}}
    assert common_color(fam, 1, 2) == 2
    fam = {1: {1}, 2: {2}}
    assert common_color(fam, 1, 2) is None


def test_common_color_minimum_and_errors():
    fam = {1: {2, 4, 5}, 2: {4, 5, 9}}
    assert common_color(fam, 1, 2) == 4
    with pytest.raises(KeyError):
        common_color(fam, 1, 3)


def test_common_color_pigeonhole_regime():
    # two 5-sets inside a 9-color universe must intersect
    rng = random.Random(3)
    for _ in range(200):
        universe = list(range(1, 10))
        a = set(rng.sample(universe, 5))
        b = set(rng.sample(universe, 5))
        fam = {1: a, 2: b}
        got = common_color(fam, 1, 2)
        assert got is not None
        assert got == min(a & b)
