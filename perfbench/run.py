#!/usr/bin/env python3
"""strongcolor benchmark: the CLI driven as a user drives it.

One run builds one workload's graph file from the seed (set-up), then,
with --trace 0, times `strongcolor color FILE --out COL` and
`strongcolor verify FILE COL` as subprocesses, one at a time, for about
--seconds seconds, and checks every output. With --trace 1 it instead
runs the same public calls in-process under the outside-in tracer of
perfbench/tracing.py and reports per-layer metrics. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

End-to-end times are wall seconds scaled to a reference machine speed
(see Speed), because a shared machine drifts far more than any useful
bound; the unscaled medians are printed beside them as wall=.

    python3 perfbench/run.py --workload max4_1e5 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 25     # every workload, both modes, tables

The package is imported from src/ of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from contextlib import nullcontext
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPS = 3  # set-up repeats at least this often, and for at least
SETUP_SHARE = 0.15  # this share of --seconds, so that its median is steady
MIN_REPS = 3
IMPORT_REPS = 5
MAX_COLORS = 22
CALIBRATION_REF_S = 0.4  # probe time at the reference speed timings are scaled to
# strategies whose components the paper colours within 21
CEILING_21 = ("low_degree", "loop", "double_edge", "girth3")

COMPONENT_LINE = re.compile(r"component \d+: strategy=(\w+) edges=\d+ colors=(\d+)$")


def percentile_summary(values: list[float]) -> dict:
    """Median and sample count, plus the highest of p90/p99 that has at
    least ten samples beyond it."""
    out = {"median": statistics.median(values), "n": len(values)}
    for p in (99, 90):
        if len(values) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = statistics.quantiles(values, n=100)[p - 1]
            break
    return out


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except OSError:
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "strongcolor").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


class Ops:
    """Attempted and failed operation counts, with the failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.reasons.extend(problems)
        return not problems


def run_child(argv: list[str]) -> tuple[float, float, int, str]:
    """(wall seconds, peak RSS in MB, exit code, stdout+stderr) of one
    subprocess, reaped with wait4 so its own peak RSS is read."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024, proc.returncode, out.decode("ascii", errors="replace")


def cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "strongcolor", *args]


def check_color(code: int, out: str, workload) -> tuple[list[str], dict]:
    """Problems with one `color` run, and what it reported."""
    problems = []
    if code != 0:
        problems.append(f"color exit code {code}: {out[-500:]!r}")
    hist: Counter = Counter()
    info = {"colors_used": None, "fallback": None}
    for line in out.splitlines():
        m = COMPONENT_LINE.match(line)
        if m:
            hist[m.group(1)] += 1
            if m.group(1) in CEILING_21 and int(m.group(2)) > 21:
                problems.append(f"{m.group(1)} component with {m.group(2)} colors > 21")
        elif line.startswith("colors_used="):
            info["colors_used"] = int(line.split("=", 1)[1])
        elif line.startswith("FALLBACK="):
            info["fallback"] = int(line.split("=", 1)[1])
    if info["colors_used"] is None or info["fallback"] is None:
        problems.append("color printed no colors_used= or FALLBACK= line")
    elif info["colors_used"] > MAX_COLORS:
        problems.append(f"colors_used={info['colors_used']} > {MAX_COLORS}")
    if set(hist) - {"fallback_exact"} != workload.strategies:
        problems.append(f"strategies {dict(hist)} != expected {sorted(workload.strategies)}")
    info["strategies"] = dict(sorted(hist.items()))
    return problems, info


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes right now: a probe of the
    machine's momentary speed that no change to the package can move.
    Like the solver and verifier, it allocates small sets and reads a
    list too large for the caches."""
    t0 = time.perf_counter()
    values = list(range(1 << 19))
    table: dict[int, int] = {}
    for i in range(500_000):
        v = values[(i * 40503) & 0x7FFFF]
        seen = {v, v ^ 1, v ^ 2}
        table[v & 4095] = table.get(v & 4095, 0) + len(seen)
    return time.perf_counter() - t0


class Speed:
    """Scales timings to a reference machine speed.

    A shared machine's speed drifts by up to 2x over minutes, far beyond
    any useful bound. The speed probe runs before and after each timed
    subprocess, on the same CPU, and the subprocess's wall time is
    multiplied by CALIBRATION_REF_S over the mean of the two probes."""

    def __init__(self):
        self.last = calibrate()

    def factor(self) -> float:
        """The scale factor for the interval since the last probe."""
        now = calibrate()
        f = 2 * CALIBRATION_REF_S / (self.last + now)
        self.last = now
        return f


def measure_e2e(workload, seed: int, seconds: float, scale: float, work: Path) -> tuple[Ops, dict, dict]:
    ops = Ops()
    graph = work / "graph.sec"
    col_path = work / "coloring.txt"
    speed = Speed()
    _, _, code, out = run_child([sys.executable, str(HERE / "workloads.py"), workload.name, str(seed),
                                 str(scale), str(graph), str(SETUP_REPS), str(SETUP_SHARE * seconds)])
    setup_factor = speed.factor()
    if code != 0:
        ops.record([f"set-up exit code {code}: {out[-500:]!r}"])
        return ops, {}, {}
    done = json.loads(out.splitlines()[-1])
    setup_times, record = done["times"], done["record"]
    for _ in setup_times:
        ops.record([])
    for problem in done["problems"]:
        ops.record([problem])
    if not setup_times:
        return ops, {}, record
    run_child([sys.executable, "-c", "import strongcolor.cli"])  # warm the bytecode cache
    names = ("color_s", "verify_s", "color_wall_s", "verify_wall_s", "color_rss_mb", "verify_rss_mb")
    samples: dict[str, list[float]] = {k: [] for k in names}
    first = None
    speed.factor()  # probe again: the first sample's interval starts here
    t_start = time.perf_counter()
    while True:
        t_rep = time.perf_counter()
        col_path.unlink(missing_ok=True)
        wall, rss, code, out = run_child(cli("color", str(graph), "--out", str(col_path)))
        factor = speed.factor()
        problems, info = check_color(code, out, workload)
        digest = hashlib.sha256(col_path.read_bytes()).hexdigest() if col_path.exists() else None
        if first is None:
            first = dict(info, coloring_sha256=digest)
        elif digest != first["coloring_sha256"] or info["colors_used"] != first["colors_used"]:
            problems.append("coloring differs from the first repeat")
        if ops.record(problems):
            samples["color_s"].append(wall * factor)
            samples["color_wall_s"].append(wall)
            samples["color_rss_mb"].append(rss)
        wall, rss, code, out = run_child(cli("verify", str(graph), str(col_path)))
        factor = speed.factor()
        if ops.record([] if code == 0 and out.strip() == "OK" else [f"verify exit {code}: {out[-500:]!r}"]):
            samples["verify_s"].append(wall * factor)
            samples["verify_wall_s"].append(wall)
            samples["verify_rss_mb"].append(rss)
        now = time.perf_counter()
        reps = len(samples["verify_s"]) + len(samples["color_s"])
        if (reps >= 2 * MIN_REPS or ops.failed) and now + (now - t_rep) > t_start + seconds:
            break
    record.update(components=sum(first["strategies"].values()), strategies=first["strategies"],
                  fallback_invocations=first["fallback"], coloring_sha256=first["coloring_sha256"])
    stats = {"setup_s": dict(percentile_summary([t * setup_factor for t in setup_times]),
                             wall=statistics.median(setup_times))}
    for name in ("color_s", "verify_s", "color_rss_mb", "verify_rss_mb"):
        if samples[name]:
            stats[name] = percentile_summary(samples[name])
    for name in ("color", "verify"):
        if samples[name + "_s"]:
            stats[name + "_s"]["wall"] = statistics.median(samples[name + "_wall_s"])
    if first["colors_used"] is not None:
        stats["colors_used"] = {"median": first["colors_used"], "n": len(samples["color_s"])}
    return ops, stats, record


def run_pipeline(graph_path: Path, tracer=None) -> tuple[str, object]:
    """The public calls `color` and then `verify` make, in-process; the
    tracer's run id marks which command each call belongs to. Returns
    the coloring text (empty if it does not verify) and the solve report."""
    from strongcolor import coloring, graphio, solver

    if tracer:
        tracer.run = "color"
    g = graphio.parse_graph(graph_path.read_text(encoding="ascii"))
    col, report = solver.solve(g)
    text = graphio.emit_coloring(col)
    if tracer:
        tracer.run = "verify"
    g2 = graphio.parse_graph(graph_path.read_text(encoding="ascii"))
    col2 = graphio.parse_coloring(text, g2)
    ok = not coloring.verify(col2) and col2.is_total()
    if tracer:
        tracer.run = ""
    return (text if ok else ""), report


def graph_mb(graph_path: Path) -> float:
    """Bytes held by the parsed graph once its flat_arrays views exist,
    by tracemalloc. Those views are the one cache solve fills on its
    input graph; tracing solve itself would cost about 26 s a run."""
    from strongcolor import graphio

    text = graph_path.read_text(encoding="ascii")
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        g = graphio.parse_graph(text)
        g.flat_arrays()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    return held / 2**20


def measure_trace(workload, seed: int, seconds: float, scale: float, work: Path) -> tuple[Ops, dict, dict]:
    from tracing import Tracer, layer_metrics
    from workloads import write_graph

    ops = Ops()
    graph = work / "graph.sec"
    col_path = work / "coloring.txt"
    tracer = Tracer()
    with tracer.installed():
        tracer.run = "gen"
        setup_times, record, problems = write_graph(workload, seed, scale, graph, 1)
        tracer.run = ""
    ops.record(problems)
    if not setup_times:
        return ops, {}, record
    gen_spans = list(tracer.spans)
    import_times = [run_child([sys.executable, "-c", "import strongcolor.cli"])[0] for _ in range(IMPORT_REPS + 1)][1:]
    _, _, code, out = run_child(cli("color", str(graph), "--out", str(col_path)))
    problems, info = check_color(code, out, workload)
    ops.record(problems)
    cli_digest = hashlib.sha256(col_path.read_bytes()).hexdigest() if col_path.exists() else None

    mb = graph_mb(graph)  # also warms the allocator before the timed passes
    speed = Speed()
    plain, traced, layers = [], [], []
    report = None
    t_start = time.perf_counter()
    while True:
        t_rep = time.perf_counter()
        for mode in ("plain", "traced") if len(plain) % 2 == 0 else ("traced", "plain"):
            if mode == "traced":
                tracer.spans = list(gen_spans)
                tracer.counts.clear()
            with tracer.installed() if mode == "traced" else nullcontext():
                t0 = time.perf_counter()
                text, report = run_pipeline(graph, tracer if mode == "traced" else None)
                wall = time.perf_counter() - t0
            wall *= speed.factor()
            digest = hashlib.sha256(text.encode("ascii")).hexdigest()
            ok = ops.record([] if text and digest == cli_digest else [f"{mode} in-process coloring differs from the CLI's"])
            (traced if mode == "traced" else plain).append(wall)
            if mode == "traced" and ok:
                layers.append(layer_metrics(tracer))
        now = time.perf_counter()
        if now + (now - t_rep) > t_start + seconds:
            break
    tracer.write_spans(WORK / f"spans-{workload.name}.csv")
    if not layers:
        return ops, {}, record
    # counts repeat exactly; a median of two would turn them into floats
    metrics = {k: (statistics.median if isinstance(v, float) else statistics.median_low)([d[k] for d in layers])
               for k, v in layers[0].items()}
    comps = len(report.components)
    clean = sum(1 for c in report.components if c.strategy != "fallback_exact")
    metrics.update({
        "solver.components": comps,
        "solver.fallback_invocations": report.fallback_invocations,
        "solver.clean_share": clean / comps if comps else 1.0,
        "solver.assertions_checked": report.assertions_checked,
        "multigraph.graph_mb": mb,
        "cli.import_s": statistics.median(import_times),
        "trace.overhead_share": statistics.median(traced) / statistics.median(plain) - 1,
    })
    record.update(strategies=info["strategies"], fallback_invocations=info["fallback"], coloring_sha256=cli_digest)
    return ops, metrics, record


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="ascii") as fh:
        return json.load(fh)


def run_one(args) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    spec = load_spec()
    # the speed probe, this process and its subprocesses share one CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        measure = measure_trace if args.trace else measure_e2e
        ops, stats, record = measure(workload, args.seed, args.seconds, args.scale, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("env " + json.dumps(environment()))
    print("workload " + json.dumps(dict(name=workload.name, seed=args.seed, scale=args.scale, why=workload.why, **record)))
    for reason in ops.reasons[:20]:
        print("FAILED " + reason)
    print(f"fail_share {ops.failed / max(ops.attempted, 1):.6g} ratio ({ops.failed}/{ops.attempted})")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if args.trace:
            value = stats.get(m["name"])
            detail = ""
        else:
            summary = stats.get(m["name"])
            value = summary["median"] if summary else None
            detail = "  " + " ".join(f"{k}={v:.6g}" for k, v in summary.items() if k != "median") if summary else ""
        if value is None:
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} {value:.6g} {m['unit']}{detail}")
    complete = len(metrics) == len(wanted)
    print(json.dumps({"correct": ops.failed == 0 and complete, "attempted": max(ops.attempted, 1),
                      "failed": ops.failed if ops.attempted else 1, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload, untraced and then traced, each in its own process;
    prints the end-to-end and per-layer tables."""
    from workloads import WORKLOADS

    spec = load_spec()
    results: dict = {}
    records: dict = {}
    failed = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace), "--scale", str(args.scale)]
            proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0 or not lines:
                failed += 1
                continue
            result = json.loads(lines[-1])
            failed += not result["correct"]
            results[name, trace] = result["metrics"]
            rec = next(json.loads(ln[len("workload "):]) for ln in lines if ln.startswith("workload "))
            records.setdefault(name, {}).update(rec)
    names = list(WORKLOADS)
    width = max(len(m["name"]) for m in spec["per_layer"]) + 2
    print("\nend-to-end (median per run, tracing off, times at reference speed)")
    print("metric".ljust(width) + "unit".ljust(8) + "".join(n.rjust(18) for n in names))
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        if trace:
            print("\nper-layer (traced run)")
        for m in spec[key]:
            cells = [results.get((n, trace), {}).get(m["name"], {}).get("value") for n in names]
            print(m["name"].ljust(width) + m["unit"].ljust(8)
                  + "".join(("-" if c is None else f"{c:.6g}").rjust(18) for c in cells))
    from tracing import COMMAND_LAYERS

    for label, runs in (("color", ("color",)), ("verify", ("verify",)), ("color+verify", ("color", "verify"))):
        leaders = []
        for n in names:
            traced = results.get((n, 1), {})
            self_s: dict = {}
            for run in runs:
                for layer in COMMAND_LAYERS[run]:
                    value = traced.get(f"{run}.{layer}.self_s", {}).get("value", 0.0)
                    self_s[layer] = self_s.get(layer, 0.0) + value
            leaders.append(max(self_s, key=self_s.get) if traced else "-")
        print(f"largest self time, {label}".ljust(width + 8) + "".join(lay.rjust(18) for lay in leaders))
    if args.record:
        with open(args.record, "w", encoding="ascii") as fh:
            json.dump(records, fh, indent=2)
            fh.write("\n")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="shrink the workloads (smoke tests)")
    parser.add_argument("--record", help="with --workload all: write the workload records here")
    args = parser.parse_args(argv)
    if not (SRC / "strongcolor" / "__init__.py").is_file():
        print(f"error: no strongcolor package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {', '.join(WORKLOADS)}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
