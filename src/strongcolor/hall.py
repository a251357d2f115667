"""Systems of distinct representatives and set-family discrepancy.

A family maps edge ids to their sets of available colors. An SDR picks a
distinct color for every edge; Hall's condition says one exists exactly
when no subfamily has more edges than colors in its union. Discrepancy
measures how badly a subfamily fails: disc(S) = |S| - |union of avails|.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, AbstractSet


@dataclass(frozen=True)
class DiscrepancyResult:
    subset: frozenset[int]
    disc: int


def find_sdr(family: Mapping[int, AbstractSet[int]]) -> dict[int, int] | None:
    """Distinct representative color per edge, or None if impossible.

    Augmenting-path bipartite matching; edges are processed in family
    order and colors ascending, so the result is deterministic. Each set
    is sorted once, before the search.
    """
    keys = list(family)
    avail = [sorted(s) for s in family.values()]
    owner: dict[int, int] = {}  # color -> index into keys

    def try_assign(i: int, banned: set[int]) -> bool:
        for c in avail[i]:
            if c in banned:
                continue
            banned.add(c)
            if c not in owner or try_assign(owner[c], banned):
                owner[c] = i
                return True
        return False

    for i in range(len(keys)):
        if not try_assign(i, set()):
            return None
    return {keys[i]: c for c, i in owner.items()}


def max_discrepancy_subset(family: Mapping[int, AbstractSet[int]]) -> DiscrepancyResult:
    """Nonempty subfamily maximizing |S| - |union of availabilities|.

    Ties prefer the larger subset, then the lexicographically smallest
    sorted edge-id tuple. Exhaustive: the family may hold at most 16
    entries. An empty family yields (empty set, 0).

    A result with disc <= 0 certifies (Hall) that an SDR exists.
    """
    items = sorted(family.items())
    k = len(items)
    if k > 16:
        raise ValueError(f"family too large for exhaustive scan: {k} > 16")
    if k == 0:
        return DiscrepancyResult(frozenset(), 0)

    # Color sets as bitmasks so subset unions are ORs over a DP table.
    color_ids: dict[int, int] = {}
    masks = []
    for _, avail in items:
        m = 0
        for c in avail:
            bit = color_ids.setdefault(c, len(color_ids))
            m |= 1 << bit
        masks.append(m)

    union = [0] * (1 << k)
    best_subset = None
    best_key = None
    for s in range(1, 1 << k):
        low = s & -s
        union[s] = union[s ^ low] | masks[low.bit_length() - 1]
        disc = s.bit_count() - union[s].bit_count()
        ids = tuple(items[i][0] for i in range(k) if s >> i & 1)
        key = (-disc, -len(ids), ids)
        if best_key is None or key < best_key:
            best_key = key
            best_subset = ids
    return DiscrepancyResult(frozenset(best_subset), -best_key[0])


def common_color(
    family: Mapping[int, AbstractSet[int]], e1: int, e2: int
) -> int | None:
    """Smallest color available to both edges, or None."""
    shared = set(family[e1]) & set(family[e2])
    return min(shared) if shared else None
