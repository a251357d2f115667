"""Command-line interface: generate, inspect, color, verify, and exact.

All output is deterministic for fixed inputs and seeds. Each command
imports only the modules it runs, so that `verify`, say, loads neither
the generators nor the solver. `stats` reports the girth as the solver's
dispatch sees it, from the same component labelling and the same scan
for cycles of length at most 5.
"""

from __future__ import annotations

import argparse
import sys

from .graphio import emit_coloring, emit_graph, parse_coloring, parse_graph

GEN_KINDS = ("erdos_nesetril_5", "star_neighborhood", "random_max4", "random_4regular")


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def _load_graph(path: str):
    return parse_graph(_read_text(path))


def _error(exc: Exception) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return 1


def _cmd_gen(args) -> int:
    from .gen import GenSpec, generate

    spec = GenSpec(
        kind=args.kind,
        n=args.n,
        seed=args.seed,
        min_girth=args.min_girth,
        allow_loops=args.loops,
        allow_parallel=args.parallel,
    )
    g = generate(spec)
    sys.stdout.write(emit_graph(g))
    return 0


def _cmd_stats(args) -> int:
    from .metrics import label_components, shortest_cycles

    g = _load_graph(args.file)
    n = g.vertex_count
    comp, k = label_components(g)
    cycle = shortest_cycles(g, [0] * n, [True], longest=5)[0]
    if cycle is not None:
        gi = len(cycle)
    elif g.edge_count > n - comp.count(-1) - k:  # more edges than a spanning forest
        gi = ">=6"
    else:
        gi = "none"
    print(f"n={n}")
    print(f"m={g.edge_count}")
    print(f"max_degree={g.max_degree()}")
    print(f"min_degree={g.min_degree()}")
    print(f"girth={gi}")
    return 0


def _cmd_color(args) -> int:
    from .solver import Unsatisfiable, solve

    g = _load_graph(args.file)
    try:
        col, report = solve(g)
    except Unsatisfiable as exc:
        return _error(exc)
    lines = [
        f"component {k}: strategy={comp.strategy} edges={comp.edge_count} colors={comp.colors_used}\n"
        for k, comp in enumerate(report.components, start=1)
    ]
    lines.append(f"colors_used={report.colors_used}\nFALLBACK={report.fallback_invocations}\n")
    sys.stdout.write("".join(lines))
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(emit_coloring(col))
    return 0


def _cmd_verify(args) -> int:
    from .coloring import verify

    g = _load_graph(args.graph)
    col = parse_coloring(_read_text(args.coloring), g)
    bad = verify(col)
    total = col.is_total()
    if not bad and total:
        print("OK")
        return 0
    for e, f, c in bad:
        print(f"edges {e} and {f} both have color {c}")
    if not total:
        print(f"uncolored: {len(col.uncolored_edges())} edges")
    return 1


def _cmd_exact(args) -> int:
    from .oracle import exact_strong_index

    g = _load_graph(args.graph)
    res = exact_strong_index(g, upper_bound=args.ub)
    print(res.chi)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(emit_coloring(res.witness))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strongcolor",
        description="Strong edge-coloring with at most 22 colors for max degree 4.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph and print it")
    p.add_argument("kind", choices=GEN_KINDS)
    p.add_argument("--n", type=int, default=50, help="vertex count (random kinds)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-girth", type=int, default=3, help="random_4regular only")
    p.add_argument("--loops", action="store_true", help="random_max4: allow loops")
    p.add_argument("--parallel", action="store_true", help="random_max4: allow parallel edges")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("stats", help="structural summary of a graph file")
    p.add_argument("file", help="graph file, or - for stdin")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("color", help="run the solver on a graph file")
    p.add_argument("file", help="graph file, or - for stdin")
    p.add_argument("--out", help="write the coloring to this file")
    p.set_defaults(func=_cmd_color)

    p = sub.add_parser("verify", help="check a coloring file against a graph")
    p.add_argument("graph")
    p.add_argument("coloring")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("exact", help="exact minimum color count (small graphs)")
    p.add_argument("graph")
    p.add_argument("--ub", type=int, default=22, help="upper bound to search")
    p.add_argument("--out", help="write the witness coloring to this file")
    p.set_defaults(func=_cmd_exact)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # bad input or parameters, or an unreadable file
        return _error(exc)


if __name__ == "__main__":
    raise SystemExit(main())
