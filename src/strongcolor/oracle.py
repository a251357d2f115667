"""Exact strong chromatic index for small graphs.

Exponential-time reference machinery: used to validate the constructive
solver on small instances, never on large ones.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coloring import PartialColoring
from .multigraph import MultiGraph

EDGE_LIMIT = 40


class BoundTooLow(ValueError):
    """No valid coloring exists within the requested upper bound."""


@dataclass
class ExactResult:
    chi: int
    witness: PartialColoring


def exact_strong_index(g: MultiGraph, upper_bound: int = 22) -> ExactResult:
    """Minimum number of colors in a valid total strong edge-coloring.

    Backtracking over edges sorted by descending conflict-set size (ties
    by ascending id). Color symmetry is broken canonically: an edge may
    take color c+1 only when c is already in use, so each distinct
    coloring is enumerated once up to palette relabeling.

    Raises BoundTooLow if even upper_bound colors do not suffice, and
    ValueError for graphs beyond EDGE_LIMIT edges.
    """
    m = g.edge_count
    if m > EDGE_LIMIT:
        raise ValueError(f"graph too large for exact search: {m} > {EDGE_LIMIT} edges")
    if upper_bound < 1:
        raise ValueError("upper_bound must be >= 1")
    if m == 0:
        return ExactResult(0, PartialColoring(g, 1))

    conflicts = [sorted(g.conflict_set(e)) for e in range(m)]
    order = sorted(range(m), key=lambda e: (-len(conflicts[e]), e))
    assignment = [0] * m

    def feasible(i: int, k: int, high: int) -> bool:
        if i == m:
            return True
        e = order[i]
        limit = min(k, high + 1)
        for c in range(1, limit + 1):
            ok = True
            for f in conflicts[e]:
                if assignment[f] == c:
                    ok = False
                    break
            if ok:
                assignment[e] = c
                if feasible(i + 1, k, max(high, c)):
                    return True
                assignment[e] = 0
        return False

    for k in range(1, upper_bound + 1):
        if feasible(0, k, 0):
            witness = PartialColoring(g, k)
            for e in range(m):
                witness._set_unchecked(e, assignment[e])
            return ExactResult(k, witness)
    raise BoundTooLow(f"no strong edge-coloring with <= {upper_bound} colors")
