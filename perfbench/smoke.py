#!/usr/bin/env python3
"""Tiny-size smoke check of the benchmark harness.

Every workload runs at 1 % size, untraced and traced, and must print
every metric BENCHMARK.json names, with its unit, and pass its output
checks. Without the package next to it the harness must fail. Exits 0
when every check holds, 1 otherwise.

    python3 perfbench/smoke.py

It is a script rather than a pytest module so that the package's own
test run, which collects test_*.py files, stays as it is.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="ascii"))


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def check_every_metric_with_its_unit(workload: str, trace: str) -> None:
    proc = run(HERE.parent, "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", trace,
               "--scale", "0.01")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, lines
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace == "1" else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1] if line.split()[0] in wanted}
    assert printed == wanted


def check_fails_without_the_package() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
        shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(tmp_path, "--workload", "max4_1e5", "--seed", "1", "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0
        assert proc.stdout == ""


def main() -> int:
    checks = [(f"{w['name']} trace={t}", lambda w=w["name"], t=t: check_every_metric_with_its_unit(w, t))
              for w in SPEC["workloads"] for t in ("0", "1")]
    checks.append(("fails without the package", check_fails_without_the_package))
    failures = 0
    for name, check in checks:
        try:
            check()
            print(f"ok    {name}")
        except AssertionError as exc:
            failures += 1
            print(f"FAIL  {name}: {exc}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
