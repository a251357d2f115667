"""The runtime package imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "strongcolor"


def foreign_imports(source: str) -> list[str]:
    """Top-level names of absolute imports that are neither standard
    library modules nor the package itself."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue  # relative imports stay inside the package
        for name in names:
            top = name.split(".")[0]
            if top not in sys.stdlib_module_names and top != "strongcolor":
                out.append(top)
    return out


def test_guard_flags_an_array_library():
    src = "import numpy as np\nfrom scipy.sparse import csr_matrix\nfrom . import gen\nimport array\n"
    assert foreign_imports(src) == ["numpy", "scipy"]


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 10
    for path in modules:
        assert foreign_imports(path.read_text(encoding="utf-8")) == [], path.name
