#!/usr/bin/env python3
"""Steadiness report for the strongcolor benchmark.

Runs perfbench/run.py once per seed and workload (tracing off) and
prints, per end-to-end metric and workload, the median, the quartiles,
the sample count, and the quartile spread as a share of the median next
to the metric's bound from BENCHMARK.json. A set can be saved and two
saved sets compared: each median of the second set against the first,
as a share of the first, against the same bounds.

    python3 perfbench/steady.py --seeds 1-10 --out set1.json
    python3 perfbench/steady.py --workloads reg4_g3_5e4 --seeds 11-15
    python3 perfbench/steady.py --compare set1.json set2.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="ascii") as fh:
        return json.load(fh)


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def collect(workloads: list[str], seeds: list[int], seconds: int) -> dict:
    out: dict = {}
    for name in workloads:
        runs = []
        for seed in seeds:
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            env = next((json.loads(ln[4:]) for ln in lines if ln.startswith("env ")), None)
            runs.append({"seed": seed, "exit": proc.returncode, "result": result, "env": env})
            values = {k: v["value"] for k, v in (result or {}).get("metrics", {}).items()}
            print(f"{name} seed={seed} exit={proc.returncode} correct={(result or {}).get('correct')} {values}",
                  flush=True)
        out[name] = runs
    return out


def values_of(runs: list[dict], metric: str) -> list[float]:
    return [r["result"]["metrics"][metric]["value"] for r in runs
            if r["result"] and metric in r["result"]["metrics"]]


def report(data: dict, spec: dict) -> bool:
    """Print the spread table; True when every spread except setup_s's
    is within its bound (set-up spread is reported, not gated)."""
    ok = True
    print(f"{'workload':18}{'metric':15}{'n':>3}{'q1':>12}{'median':>12}{'q3':>12}{'spread':>9}{'bound':>7}  verdict")
    for name, runs in data.items():
        bad = sum(1 for r in runs if not (r["result"] and r["result"]["correct"]))
        for m in spec["end_to_end"]:
            vals = values_of(runs, m["name"])
            if len(vals) < 2:
                print(f"{name:18}{m['name']:15}{len(vals):>3}  too few values")
                ok = False
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            if spread <= m["bound"] / 3:
                verdict = "steady"
            elif spread <= m["bound"]:
                verdict = "within bound"
            else:
                verdict = "WIDER THAN BOUND"
                ok = ok and m["name"] == "setup_s"
            print(f"{name:18}{m['name']:15}{len(vals):>3}{q1:>12.6g}{med:>12.6g}{q3:>12.6g}"
                  f"{spread:>9.4f}{m['bound']:>7}  {verdict}")
        if bad:
            print(f"{name}: {bad} run(s) failed or were not correct")
            ok = False
    return ok


def compare(first: dict, second: dict, spec: dict) -> bool:
    """Second set's median against the first's, per metric and workload."""
    ok = True
    print(f"{'workload':18}{'metric':15}{'median 1':>12}{'median 2':>12}{'worse by':>10}{'bound':>7}  verdict")
    for name in first:
        if name not in second:
            continue
        for m in spec["end_to_end"]:
            a = statistics.median(values_of(first[name], m["name"]))
            b = statistics.median(values_of(second[name], m["name"]))
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            within = worse <= m["bound"]
            ok = ok and within
            print(f"{name:18}{m['name']:15}{a:>12.6g}{b:>12.6g}{worse:>10.4f}{m['bound']:>7}  "
                  f"{'ok' if within else 'WORSE THAN BOUND'}")
    return ok


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", help="save the set of runs here")
    parser.add_argument("--report", metavar="SET", help="print the table of a saved set")
    parser.add_argument("--compare", nargs=2, metavar=("SET1", "SET2"))
    args = parser.parse_args(argv)
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path, encoding="ascii") as fh:
                sets.append(json.load(fh))
        return 0 if compare(*sets, spec) else 1
    if args.report:
        with open(args.report, encoding="ascii") as fh:
            data = json.load(fh)
    else:
        data = collect(args.workloads.split(","), parse_seeds(args.seeds), args.seconds)
        if args.out:
            with open(args.out, "w", encoding="ascii") as fh:
                json.dump(data, fh, indent=1)
    return 0 if report(data, spec) else 1


if __name__ == "__main__":
    sys.exit(main())
