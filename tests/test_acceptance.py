"""End-to-end acceptance checks for the whole package.

Each test records its verdict in RESULTS before asserting, and the
conftest hook prints one line per criterion after the run. Tolerances
are stated inline; the sweeps are seeded and fully deterministic, only
the wall-clock readings vary between machines.
"""

import gc
import random
import statistics
import time

import pytest

from strongcolor import (
    PartialColoring,
    Telemetry,
    erdos_nesetril_5,
    exact_strong_index,
    find_sdr,
    find_shortest_cycle,
    girth,
    greedy_color,
    load_fixture,
    max_discrepancy_subset,
    random_4regular,
    random_max4,
    solve,
    star_neighborhood,
    verify,
)
from strongcolor.solver import solve_girth5
from helpers import (
    bench_rows,
    colors_used,
    complete,
    complete_bipartite,
    components,
    cycle,
    disjoint_union,
    doubled_triangle,
    hypercube4,
    naive_exact,
    path,
    random_multigraph,
    run_plan,
    triangle_with_loops,
    two_loops_one_vertex,
)

CRITERIA = {
    1: "extremal 20-edge instance",
    2: "22-color guarantee at scale",
    3: "strategy color ceilings",
    4: "greedy 25-color bound",
    5: "exact oracle cross-check",
    6: "duality and instrumentation",
    7: "runtime scaling",
}

# criterion id -> (name, PASS/FAIL, detail); see conftest.pytest_terminal_summary
RESULTS: dict[int, tuple[str, str, str]] = {}


def record(k: int, ok: bool, detail: str) -> None:
    RESULTS[k] = (CRITERIA[k], "PASS" if ok else "FAIL", detail)


# ---------------------------------------------------------------------------
# shared corpus: >= 1000 seeded graphs with max degree 4


def build_corpus() -> list:
    graphs = []
    for seed in range(200):
        n = 10 + (seed * 7) % 191  # 10..200
        for loops in (False, True):
            for parallel in (False, True):
                graphs.append(
                    random_max4(n, seed=seed, allow_loops=loops, allow_parallel=parallel)
                )
    for seed in range(120):
        graphs.append(random_4regular(10 + 2 * (seed % 26), seed=seed, min_girth=3)[0])
    for seed in range(60):
        graphs.append(random_4regular(12 + 2 * (seed % 25), seed=seed, min_girth=4)[0])
    for n in (30, 36, 42):
        for seed in range(10):
            graphs.append(random_4regular(n, seed=seed, min_girth=5)[0])
    graphs += [
        erdos_nesetril_5(),
        star_neighborhood(),
        load_fixture("petersen"),
        load_fixture("robertson"),
        load_fixture("cage_4_6"),
        triangle_with_loops(),
        doubled_triangle(),
        two_loops_one_vertex(),
        complete(5),
        complete_bipartite(4, 4),
        hypercube4(),
        disjoint_union(path(4), cycle(5)),
        disjoint_union(load_fixture("robertson"), load_fixture("cage_4_6")),
        disjoint_union(triangle_with_loops(), doubled_triangle()),
    ]
    return graphs


@pytest.fixture(scope="module")
def corpus():
    return build_corpus()


@pytest.fixture(scope="module")
def corpus_solved(corpus):
    out = []
    for g in corpus:
        col, report = solve(g)
        out.append((g, col, report))
    return out


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_extremal_instance():
    g = erdos_nesetril_5()
    t0 = time.perf_counter()
    col, report = solve(g)
    chi = exact_strong_index(g).chi
    elapsed = time.perf_counter() - t0
    valid = col.is_total() and verify(col) == []
    ok = valid and report.colors_used == 20 and chi == 20 and elapsed < 1.0
    record(1, ok, f"solve={report.colors_used} exact={chi} in {elapsed:.3f}s")
    assert valid
    assert report.colors_used == 20
    assert chi == 20
    assert elapsed < 1.0


def test_criterion_2_guarantee_at_scale(corpus_solved):
    invalid = 0
    worst = 0
    fallbacks = 0
    for g, col, report in corpus_solved:
        if not (col.is_total() and verify(col) == []):
            invalid += 1
        worst = max(worst, report.colors_used)
        fallbacks += report.fallback_invocations
    count = len(corpus_solved)
    ok = count >= 1000 and invalid == 0 and worst <= 22 and fallbacks == 0
    record(
        2,
        ok,
        f"{count} graphs, {invalid} invalid, worst colors {worst}, {fallbacks} fallbacks",
    )
    assert count >= 1000
    assert invalid == 0
    assert worst <= 22
    assert fallbacks == 0


def test_criterion_3_strategy_color_ceilings(corpus_solved):
    capped = ("low_degree", "loop", "double_edge", "girth3")
    worst = {name: 0 for name in capped}
    counts = {name: 0 for name in capped}
    for _, _, report in corpus_solved:
        for comp in report.components:
            if comp.strategy in capped:
                counts[comp.strategy] += 1
                worst[comp.strategy] = max(worst[comp.strategy], comp.colors_used)
    exercised = all(counts[name] > 0 for name in capped)
    bounded = all(worst[name] <= 21 for name in capped)
    detail = ", ".join(f"{name}: {counts[name]}x max {worst[name]}" for name in capped)
    record(3, exercised and bounded, detail)
    assert exercised, counts
    assert bounded, worst


def test_criterion_4_greedy_bound(corpus, star_graph):
    rng = random.Random(2024)
    runs = 0
    worst_colors = 0
    for i in range(500):
        g = corpus[(i * 13) % len(corpus)]
        order = list(range(g.edge_count))
        rng.shuffle(order)
        col = PartialColoring(g, 25)
        greedy_color(col, order)
        assert col.is_total()
        assert verify(col) == []
        worst_colors = max(worst_colors, colors_used(col))
        runs += 1

    biggest = 0
    for g in corpus + [star_graph]:
        for e in range(g.edge_count):
            biggest = max(biggest, len(g.conflict_set(e)))
    star_max = max(len(star_graph.conflict_set(e)) for e in range(star_graph.edge_count))

    ok = runs == 500 and worst_colors <= 25 and star_max == 24 and biggest == 24
    record(
        4,
        ok,
        f"500 orders max {worst_colors} colors, star peak {star_max}, corpus peak {biggest}",
    )
    assert runs == 500
    assert worst_colors <= 25
    assert star_max == 24
    assert biggest <= 24


def test_criterion_5_exact_oracle_cross_check():
    t0 = time.perf_counter()
    checked = 0
    naive_checked = 0
    for seed in range(100):
        if seed < 60:
            g = random_multigraph(seed, max_n=14, max_m=24)
        else:
            g = random_multigraph(seed, max_n=8, max_m=8)
        assert g.edge_count <= 24
        res = exact_strong_index(g)
        col, report = solve(g)
        assert res.chi <= report.colors_used
        assert verify(res.witness) == [] and res.witness.is_total()
        assert verify(col) == [] and col.is_total()
        if g.edge_count <= 8:
            assert naive_exact(g) == res.chi
            naive_checked += 1
        checked += 1
    known = (
        exact_strong_index(cycle(5)).chi,
        exact_strong_index(complete_bipartite(4, 4)).chi,
        exact_strong_index(complete(5)).chi,
    )
    elapsed = time.perf_counter() - t0
    ok = checked == 100 and known == (5, 16, 10) and elapsed < 300.0
    record(
        5,
        ok,
        f"100 graphs ({naive_checked} vs naive), C5/K44/K5 = {known}, {elapsed:.1f}s",
    )
    assert checked == 100
    assert naive_checked >= 40
    assert known == (5, 16, 10)
    assert elapsed < 300.0


def test_criterion_6_duality_and_instrumentation(corpus):
    rng = random.Random(61)
    agreements = 0
    for _ in range(10_000):
        fam = {
            e: set(rng.sample(range(1, 7), rng.randint(1, 6)))
            for e in range(rng.randint(1, 10))
        }
        has_sdr = find_sdr(fam) is not None
        disc = max_discrepancy_subset(fam).disc
        assert has_sdr == (disc <= 0), fam
        agreements += 1

    instances = 0
    for g in corpus + [load_fixture("robertson")]:
        if not (g.vertex_count and girth(g) == 5 and g.min_degree() == 4 == g.max_degree()):
            continue
        if len(components(g)) == 1:
            tel = Telemetry()
            c = find_shortest_cycle(g)
            col = run_plan(g, c, solve_girth5(g, c, tel), tel)
            assert col.is_total() and verify(col) == []
            assert tel.labels["girth5.uncolored-count"] == 1
            assert tel.labels["girth5.cycle-availability"] == 4
            assert tel.labels["girth5.incident-availability"] == 7
            instances += 1

    ok = agreements == 10_000 and instances >= 30
    record(6, ok, f"{agreements} families agree, {instances} girth-5 runs instrumented")
    assert agreements == 10_000
    assert instances >= 30


def test_criterion_7_runtime_scaling():
    samples = {10_000: [], 100_000: []}
    for _ in range(3):
        for n, _, millis, colors in bench_rows([10_000, 100_000]):
            samples[n].append(millis)
            assert colors <= 22
    small = statistics.median(samples[10_000])
    big = statistics.median(samples[100_000])
    ratio = big / max(small, 1)
    slowest = max(samples[100_000])
    ok = ratio <= 15.0 and slowest < 10_000
    record(
        7,
        ok,
        f"median {small:.0f}ms -> {big:.0f}ms, ratio {ratio:.1f}x, slowest 1e5 {slowest}ms",
    )
    assert ratio <= 15.0, samples
    assert slowest < 10_000


def test_girth3_runtime_scaling():
    """solve on one 4-regular component with a triangle, at two sizes 10x
    apart. The shortest-cycle dispatch and the girth-3 strategy are
    linear, which puts the time ratio at 10-16 on a shared machine; a
    cycle search that pays the whole graph per start vertex is quadratic
    and puts it above 40 for these graphs (first triangle vertex 1161 of
    1e4 and 9527 of 1e5), so the bound sits between the two."""
    graphs = {n: random_4regular(n, seed=2, min_girth=3)[0] for n in (10_000, 100_000)}
    samples = {n: [] for n in graphs}
    for _ in range(3):
        for n, g in graphs.items():
            gc.collect()
            t0 = time.perf_counter()
            col, report = solve(g)
            samples[n].append(time.perf_counter() - t0)
            assert report.strategies() == ["girth3"] and col.is_total()
    ratio = statistics.median(samples[100_000]) / statistics.median(samples[10_000])
    assert ratio <= 25.0, samples
