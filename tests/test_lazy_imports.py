"""`import strongcolor` loads no submodule, each public name resolves to
its defining module's object on first use, and each CLI command loads
only the modules it runs. Every check runs in a fresh interpreter, since
the test process has long imported the whole package."""

import json
import os
import subprocess
import sys
from pathlib import Path

import strongcolor
from strongcolor import emit_coloring, emit_graph, erdos_nesetril_5, solve

SRC = str(Path(strongcolor.__file__).resolve().parents[1])

REPORT = """
import json, sys
print(json.dumps(sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("strongcolor."))))
"""


def run_fresh(code: str, cwd: Path) -> str:
    """Run `code` in a fresh interpreter that imports this package; its stdout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_after(code: str, cwd: Path) -> list[str]:
    """The strongcolor submodules loaded after `code`, by short name."""
    return json.loads(run_fresh(code + REPORT, cwd).splitlines()[-1])


def write_en5(tmp_path: Path) -> tuple[str, str]:
    g = erdos_nesetril_5()
    (tmp_path / "en5.sec").write_text(emit_graph(g))
    (tmp_path / "en5.col").write_text(emit_coloring(solve(g)[0]))
    return "en5.sec", "en5.col"


def test_import_loads_no_submodule(tmp_path):
    assert loaded_after("import strongcolor", tmp_path) == []


def test_verify_loads_only_the_parser_and_the_checker(tmp_path):
    graph, coloring = write_en5(tmp_path)
    code = f"from strongcolor.cli import main\nassert main(['verify', {graph!r}, {coloring!r}]) == 0"
    assert loaded_after(code, tmp_path) == ["cli", "coloring", "graphio", "multigraph"]


def test_color_loads_neither_the_generators_nor_the_oracle(tmp_path):
    graph, _ = write_en5(tmp_path)
    code = f"from strongcolor.cli import main\nassert main(['color', {graph!r}]) == 0"
    loaded = loaded_after(code, tmp_path)
    assert "solver" in loaded and not {"gen", "oracle"} & set(loaded)


def test_stats_loads_neither_the_solver_nor_the_generators(tmp_path):
    graph, _ = write_en5(tmp_path)
    code = f"from strongcolor.cli import main\nassert main(['stats', {graph!r}]) == 0"
    assert loaded_after(code, tmp_path) == ["cli", "coloring", "graphio", "metrics", "multigraph"]


def test_every_public_name_is_its_defining_module_object(tmp_path):
    code = """
import sys
import strongcolor
star = {}
exec("from strongcolor import *", star)
del star["__builtins__"]
assert sorted(star) == sorted(strongcolor.__all__) and len(star) == 36, sorted(star)
for name, obj in star.items():
    assert obj.__module__.startswith("strongcolor."), name
    assert getattr(sys.modules[obj.__module__], name) is obj is getattr(strongcolor, name), name
try:
    strongcolor.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc), exc
else:
    raise AssertionError("strongcolor.no_such_name resolved")
"""
    run_fresh(code, tmp_path)
