import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from strongcolor import common_color, find_sdr, max_discrepancy_subset
from helpers import as_masks, ref_common_color, ref_find_sdr, ref_max_discrepancy_subset


def brute_has_sdr(family):
    """Try every injection from edges to colors."""
    ids = sorted(family)
    pools = [sorted(family[i]) for i in ids]
    for combo in itertools.product(*pools):
        if len(set(combo)) == len(combo):
            return True
    return not ids


def test_sdr_singleton():
    assert find_sdr(as_masks({7: {1}})) == {7: 1}


def test_sdr_hall_violation():
    assert find_sdr(as_masks({1: {1}, 2: {1}})) is None


def test_sdr_three_cycle_family():
    fam = {1: {1, 2}, 2: {2, 3}, 3: {1, 3}}
    sdr = find_sdr(as_masks(fam))
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
        sdr = find_sdr(as_masks(fam))
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
        assert (find_sdr(as_masks(fam)) is not None) == brute_has_sdr(fam)


def test_discrepancy_hall_violation_pair():
    res = max_discrepancy_subset(as_masks({1: {1}, 2: {1}}))
    assert res.disc == 1
    assert res.subset == {1, 2}


def test_discrepancy_nonpositive_when_sdr_exists():
    fam = {1: {1, 2}, 2: {2, 3}, 3: {1, 3}}
    assert max_discrepancy_subset(as_masks(fam)).disc <= 0


def test_discrepancy_tie_breaks_prefer_larger_subset():
    # {e1,e2} and {e1,e2,e3} both have discrepancy 1; larger set wins
    fam = {1: {1}, 2: {1}, 3: {1, 2}}
    res = max_discrepancy_subset(as_masks(fam))
    assert res.disc == 1
    assert res.subset == {1, 2, 3}


def test_discrepancy_definition_holds():
    rng = random.Random(23)
    for _ in range(200):
        fam = {
            e: set(rng.sample(range(1, 7), rng.randint(1, 4)))
            for e in range(rng.randint(1, 8))
        }
        res = max_discrepancy_subset(as_masks(fam))
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
        max_discrepancy_subset(as_masks(fam))


def test_duality_on_random_families():
    rng = random.Random(7)
    for _ in range(1500):
        fam = {
            e: set(rng.sample(range(1, 7), rng.randint(1, 5)))
            for e in range(rng.randint(1, 10))
        }
        has = find_sdr(as_masks(fam)) is not None
        disc = max_discrepancy_subset(as_masks(fam)).disc
        assert has == (disc <= 0)


def test_common_color_examples():
    fam = as_masks({1: {1, 2}, 2: {2, 3}})
    assert common_color(fam, 1, 2) == 2
    fam = as_masks({1: {1}, 2: {2}})
    assert common_color(fam, 1, 2) is None


def test_common_color_minimum_and_errors():
    fam = as_masks({1: {2, 4, 5}, 2: {4, 5, 9}})
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
        got = common_color(as_masks(fam), 1, 2)
        assert got is not None
        assert got == min(a & b)


# families keyed in a shuffled order: the search goes in family order
families = st.lists(st.frozensets(st.integers(1, 22), max_size=22), max_size=11).flatmap(
    lambda sets: st.permutations(range(len(sets))).map(lambda ids: dict(zip(ids, sets)))
)
# small color pools, where augmenting paths are long and ban colors often
tight_families = st.lists(st.frozensets(st.integers(1, 4), min_size=1), max_size=11).map(
    lambda sets: dict(enumerate(sets))
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(families, tight_families))
@example({})
# edge 2 tries 1 (owned by edge 1, whose path bans 2 and fails at edge
# 0), then skips the banned 2 and takes 3
@example({0: frozenset({1, 2}), 1: frozenset({1, 2}), 2: frozenset({1, 2, 3})})
@example({5: frozenset({2, 3}), 3: frozenset({2}), 9: frozenset({1, 2, 3, 22}), 1: frozenset({3, 22})})
@example({e: frozenset({1, 2, 3}) for e in range(4)})
def test_hall_on_masks_equals_the_set_references(family):
    """find_sdr, max_discrepancy_subset and common_color on color masks
    give what the set-based references give on the sets: the same
    assignment (or None), the same subfamily and discrepancy, and the same
    common color of every pair. Families of up to 11 edges on colors
    1..22, the empty family among them, and families on four colors,
    whose augmenting paths ban colors that the search then skips."""
    masks = as_masks(family)
    want = ref_find_sdr(family)
    got = find_sdr(masks)
    assert got == want
    if want is not None:
        assert list(got.items()) == list(want.items())
    res = max_discrepancy_subset(masks)
    assert (res.subset, res.disc) == ref_max_discrepancy_subset(family)
    for e1 in family:
        for e2 in family:
            assert common_color(masks, e1, e2) == ref_common_color(family, e1, e2)


def test_sdr_after_a_failed_augmenting_path():
    """Edge 2 tries color 1, owned by edge 1, whose augmenting path bans
    2 and fails at edge 0; edge 2 then skips the banned 2 and takes 3,
    and the others keep what they held. (Retrying a banned color could
    not change this result, only repeat a failed search: the skip is
    what the set search did, and this is the assignment it gave.)"""
    family = {0: {1, 2}, 1: {1, 2}, 2: {1, 2, 3}}
    assert find_sdr(as_masks(family)) == ref_find_sdr(family) == {0: 2, 1: 1, 2: 3}
