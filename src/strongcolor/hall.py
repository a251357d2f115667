"""Systems of distinct representatives and set-family discrepancy.

A family maps edge ids to color masks: bit c is set when color c is
available to the edge, as PartialColoring.available_mask returns them.
An SDR picks a distinct color for every edge; Hall's condition says one
exists exactly when no subfamily has more edges than colors in its
union. Discrepancy measures how badly a subfamily fails: disc(S) = |S| -
|union of avails|.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping


@dataclass(frozen=True)
class DiscrepancyResult:
    subset: frozenset[int]
    disc: int


def find_sdr(family: Mapping[int, int]) -> dict[int, int] | None:
    """Distinct representative color per edge, or None if impossible.

    Augmenting-path bipartite matching; edges are processed in family
    order and colors ascending (lowest bit first), so the result is
    deterministic. A color banned during an augmenting path is skipped
    when the search reaches it: each step takes the lowest bit of the
    edge's mask that is not banned yet.
    """
    keys = list(family)
    avail = list(family.values())
    owner: dict[int, int] = {}  # color bit -> index into keys
    banned = 0

    def try_assign(i: int) -> bool:
        nonlocal banned
        while free := avail[i] & ~banned:
            bit = free & -free
            banned |= bit
            j = owner.get(bit)
            if j is None or try_assign(j):
                owner[bit] = i
                return True
        return False

    for i in range(len(keys)):
        banned = 0
        if not try_assign(i):
            return None
    return {keys[i]: bit.bit_length() - 1 for bit, i in owner.items()}


def max_discrepancy_subset(family: Mapping[int, int]) -> DiscrepancyResult:
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

    # subset unions are ORs over a DP table
    masks = [m for _, m in items]
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


def common_color(family: Mapping[int, int], e1: int, e2: int) -> int | None:
    """Smallest color available to both edges, or None."""
    shared = family[e1] & family[e2]
    return (shared & -shared).bit_length() - 1 if shared else None
