"""Graph generators and named fixture graphs.

Random generators take explicit seeds and are fully deterministic; the
named fixtures ship as files whose checksums and structural claims are
re-verified by the test suite.
"""

from __future__ import annotations

import hashlib
import random
from array import array
from dataclasses import dataclass
from importlib import resources

from . import metrics
from .graphio import parse_graph
from .multigraph import MultiGraph


class RejectionBudgetExhausted(ValueError):
    """Generator gave up; raise n, lower min_girth, or change the seed."""


@dataclass(frozen=True)
class GenSpec:
    """Parameters for generate()."""

    kind: str
    n: int = 0
    seed: int = 0
    min_girth: int = 3
    allow_loops: bool = False
    allow_parallel: bool = False


def erdos_nesetril_5() -> MultiGraph:
    """Blown-up 5-cycle: 10 vertices, 20 edges, 4-regular, and every pair
    of edges conflicts, so any valid coloring needs all 20 colors."""
    edges = []
    for i in range(5):
        j = (i + 1) % 5
        for x in (2 * i, 2 * i + 1):
            for y in (2 * j, 2 * j + 1):
                edges.append((x, y))
    return MultiGraph.from_edges(10, edges)


def star_neighborhood() -> MultiGraph:
    """Center edge whose conflict set is as large as degree 4 allows (24):
    three extra edges at both endpoints, three more at each of those six
    midpoints. 26 vertices, 25 edges."""
    edges = [(0, 1)]
    mids = list(range(2, 8))
    for i, w in enumerate(mids):
        edges.append((0 if i < 3 else 1, w))
    leaf = 8
    for w in mids:
        for _ in range(3):
            edges.append((w, leaf))
            leaf += 1
    return MultiGraph.from_edges(26, edges)


def random_max4(
    n: int,
    m: int | None = None,
    seed: int = 0,
    allow_loops: bool = False,
    allow_parallel: bool = False,
) -> MultiGraph:
    """Random multigraph with max degree 4 and m edges.

    Degree capacity is tracked as a stub list (each vertex appears once
    per remaining slot); edges draw stub pairs uniformly and rejected
    draws do not consume slots. A loop costs two slots at one vertex.
    """
    if m is None:
        if allow_parallel:
            cap = 2 * n if (allow_loops or n >= 2) else 0
        else:
            cap = n * (n - 1) // 2 + (n if allow_loops else 0)
        m = min(round(1.75 * n), cap)
    if m > 2 * n:
        raise ValueError(f"m={m} impossible under max degree 4 with n={n}")
    if not allow_parallel and not allow_loops and m > n * (n - 1) // 2:
        raise ValueError(f"m={m} exceeds simple-graph capacity for n={n}")

    rng = random.Random(seed)
    budget = 200 * (m + 1)
    restarts = 20
    stall = 50 + 4 * n
    stubs: list[int] = []
    existing: set[tuple[int, int]] = set()
    eu = array("i")
    ev = array("i")
    streak = 0

    def restart() -> None:
        nonlocal stubs, existing, eu, ev, streak
        stubs = list(range(n)) * 4
        rng.shuffle(stubs)
        existing = set()
        eu = array("i")
        ev = array("i")
        streak = 0

    def take(idx: int) -> None:
        stubs[idx] = stubs[-1]
        stubs.pop()

    restart()
    while len(eu) < m:
        if budget <= 0:
            raise RejectionBudgetExhausted(
                f"random_max4(n={n}, m={m}, seed={seed}) stalled; lower m or change seed"
            )
        if len(stubs) < 2 or streak > stall:
            # the leftover stubs cannot pair up; reshuffle and start over
            restarts -= 1
            if restarts < 0:
                raise RejectionBudgetExhausted(
                    f"random_max4(n={n}, m={m}, seed={seed}) stalled; lower m or change seed"
                )
            restart()
            continue
        budget -= 1
        i = rng.randrange(len(stubs))
        j = rng.randrange(len(stubs))
        if i == j:
            streak += 1
            continue
        u, v = stubs[i], stubs[j]
        if u == v:
            if not allow_loops:
                streak += 1
                continue
        else:
            key = (u, v) if u < v else (v, u)
            if not allow_parallel and key in existing:
                streak += 1
                continue
            existing.add(key)
        # remove the higher index first so the lower one stays in place
        take(max(i, j))
        take(min(i, j))
        eu.append(u)
        ev.append(v)
        streak = 0
    return MultiGraph(n, eu, ev)


def _pairing_4regular(n: int, rng: random.Random) -> list[tuple[int, int]] | None:
    """One configuration-model draw; None unless simple."""
    stubs = list(range(n)) * 4
    rng.shuffle(stubs)
    seen: set[tuple[int, int]] = set()
    edges = []
    for i in range(0, len(stubs), 2):
        u, v = stubs[i], stubs[i + 1]
        if u == v:
            return None
        key = (u, v) if u < v else (v, u)
        if key in seen:
            return None
        seen.add(key)
        edges.append((u, v))
    return edges


def random_4regular(n: int, seed: int = 0, min_girth: int = 3) -> tuple[MultiGraph, int]:
    """Random simple 4-regular graph with girth >= min_girth.

    Pairing model with rejection until simple; for min_girth 5 or 6 the
    draw is then repaired by seeded 2-edge swaps that never decrease the
    girth (plain rejection is hopeless there: the acceptance rate is on
    the order of 1e-7 regardless of n). Returns (graph, achieved girth).

    Practical ranges: min_girth 3 needs n >= 5, 4-regular girth 5 exists
    from n = 19 up. Girth 6 exists from n = 26 up, but the repair stalls
    with RejectionBudgetExhausted for n up to about 60 and only works
    reliably from about n = 100 (seconds there, well under a second from
    n = 200).
    """
    if n < 5:
        raise ValueError("4-regular simple graphs need n >= 5")
    if min_girth not in (3, 4, 5, 6):
        raise ValueError("min_girth must be in 3..6")
    rng = random.Random(seed)

    edges = None
    for _ in range(10_000):
        edges = _pairing_4regular(n, rng)
        if edges is not None:
            break
    if edges is None:
        raise RejectionBudgetExhausted(f"no simple pairing found for n={n}, seed={seed}")

    cyc = metrics.find_shortest_cycle(MultiGraph.from_edges(n, edges))
    girth_now = len(cyc)
    if girth_now >= min_girth:
        return MultiGraph.from_edges(n, edges), girth_now

    # 2-edge swaps: pick an edge on a shortest cycle and a random second
    # edge, rewire, keep the result only if the girth did not drop.
    budget = 40_000
    edge_set = {tuple(sorted(e)) for e in edges}
    while girth_now < min_girth:
        if budget <= 0:
            raise RejectionBudgetExhausted(
                f"girth repair stalled at girth {girth_now} for n={n}, seed={seed}, "
                f"min_girth={min_girth}"
            )
        budget -= 1
        i = cyc.edges[rng.randrange(len(cyc.edges))]
        j = rng.randrange(len(edges))
        u, v = edges[i]
        x, y = edges[j]
        if len({u, v, x, y}) != 4:
            continue
        if rng.random() < 0.5:
            x, y = y, x
        new1, new2 = tuple(sorted((u, x))), tuple(sorted((v, y)))
        old1, old2 = tuple(sorted((u, v))), tuple(sorted((x, y)))
        if new1 in edge_set or new2 in edge_set or new1 == new2:
            continue
        edges[i] = (u, x)
        edges[j] = (v, y)
        cyc2 = metrics.find_shortest_cycle(MultiGraph.from_edges(n, edges))
        if len(cyc2) >= girth_now:
            girth_now = len(cyc2)
            cyc = cyc2
            edge_set.discard(old1)
            edge_set.discard(old2)
            edge_set.add(new1)
            edge_set.add(new2)
        else:
            edges[i] = (u, v)
            edges[j] = (x, y)
    return MultiGraph.from_edges(n, edges), girth_now


def generate(spec: GenSpec) -> MultiGraph:
    """Dispatch on spec.kind; the CLI gen command is a thin shim over this."""
    if spec.kind == "erdos_nesetril_5":
        return erdos_nesetril_5()
    if spec.kind == "star_neighborhood":
        return star_neighborhood()
    if spec.kind == "random_max4":
        return random_max4(
            spec.n, seed=spec.seed, allow_loops=spec.allow_loops, allow_parallel=spec.allow_parallel
        )
    if spec.kind == "random_4regular":
        g, _ = random_4regular(spec.n, spec.seed, spec.min_girth)
        return g
    raise ValueError(f"unknown generator kind {spec.kind!r}")


# Named instances shipped as files. sha256 over the raw file bytes; the
# claimed properties are re-checked from scratch by the test suite.
FIXTURES: dict[str, dict] = {
    "petersen": {
        "file": "petersen.sec",
        "sha256": "69b0c595b144e92eb4c336f255bbba5be5202ef70adcb2d636e5b46fd55ab21b",
        "vertices": 10,
        "edges": 15,
        "regular": 3,
        "girth": 5,
    },
    "robertson": {
        "file": "robertson.sec",
        "sha256": "1b3401f3503a897bfcb455c780bdeafe22e53dfe4f5ddddebcf0fca9c56752e4",
        "vertices": 19,
        "edges": 38,
        "regular": 4,
        "girth": 5,
    },
    "cage_4_6": {
        "file": "cage_4_6.sec",
        "sha256": "c67cb91508e2967fc583db454ec0f6321252b7b37dad743525cc99825520c750",
        "vertices": 26,
        "edges": 52,
        "regular": 4,
        "girth": 6,
    },
}


def fixture_names() -> list[str]:
    return sorted(FIXTURES)


def load_fixture(name: str) -> MultiGraph:
    """Parse a named fixture after checking its checksum."""
    try:
        info = FIXTURES[name]
    except KeyError:
        raise ValueError(f"unknown fixture {name!r}; have {fixture_names()}")
    data = resources.files("strongcolor.fixtures").joinpath(info["file"]).read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if info["sha256"] and digest != info["sha256"]:
        raise ValueError(f"fixture {name} checksum mismatch: {digest}")
    return parse_graph(data.decode("ascii"))
