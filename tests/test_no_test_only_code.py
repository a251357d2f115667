"""Guard: no code in the package exists only for the tests.

Every function and class defined under src/strongcolor must be referred
to somewhere in the package outside its own definition, unless it is
named in DOCUMENTED, the public API that README.md documents, or is a
dunder method that Python calls implicitly. A re-export in an
`__init__.py` is not a use: a name only the tests call is flagged
whether or not the package exports it, and so is a public method that
only the tests call.

The check goes by name, so a definition is taken as used when anything
of the same name is used: a method that shares its name with an
attribute is not seen (a PartialColoring.colors_used method would hide
behind SolveReport.colors_used).
"""

import ast
import re
from pathlib import Path

import strongcolor

PACKAGE = Path(strongcolor.__file__).resolve().parent
README = Path(__file__).resolve().parents[1] / "README.md"

# the public API README.md documents; the tests and users call these
DOCUMENTED = frozenset(
    {
        "MultiGraph",
        "from_edges",
        "PartialColoring",
        "available_colors",
        "assign",
        "is_total",
        "greedy_color",
        "solve",
        "SolveReport",
        "strategies",
        "verify",
        "exact_strong_index",
        "random_max4",
        "random_4regular",
        "fixture_names",
        "load_fixture",
        "parse_graph",
        "emit_graph",
        "parse_coloring",
        "emit_coloring",
        "girth",
    }
)


def _definitions(tree: ast.AST):
    """Every def and class, methods and nested ones included."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node


def _references(tree: ast.AST, imports: bool = True):
    """(name, line) for every name, attribute and, if `imports`, imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif imports and isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def unreferenced_definitions(package: Path, documented) -> list[str]:
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(package.rglob("*.py"))}
    refs = {p: list(_references(t, imports=p.name != "__init__.py")) for p, t in trees.items()}
    out = []
    for path, tree in trees.items():
        for node in _definitions(tree):
            name = node.name
            if name in documented or (name.startswith("__") and name.endswith("__")):
                continue
            span = range(node.lineno, node.end_lineno + 1)
            used = any(
                ref == name and not (p == path and line in span)
                for p, found in refs.items()
                for ref, line in found
            )
            if not used:
                out.append(f"{path.relative_to(package)}:{node.lineno} {name}")
    return out


def test_every_definition_is_used_by_the_package():
    assert unreferenced_definitions(PACKAGE, DOCUMENTED) == []


def test_every_exempt_name_is_documented_in_the_readme():
    text = README.read_text(encoding="utf-8")
    code = " ".join(re.findall(r"```.*?```|`[^`\n]+`", text, flags=re.S))
    assert [name for name in sorted(DOCUMENTED) if not re.search(rf"\b{name}\b", code)] == []


def test_guard_flags_an_unused_helper(tmp_path):
    pkg = tmp_path / "strongcolor"
    pkg.mkdir()
    (pkg / "__init__.py").write_text(
        "from .mod import Api, api, reexported\n\n__all__ = ['Api', 'api', 'reexported']\n"
    )
    (pkg / "mod.py").write_text(
        "def _used():\n    return 1\n\n\n"
        "def _only_for_tests():\n    return _only_for_tests()\n\n\n"
        "def api():\n    return _used()\n\n\n"
        "def reexported():\n    return 2\n\n\n"
        "class Api:\n"
        "    def documented_method(self):\n        return 3\n\n"
        "    def test_only_method(self):\n        return 4\n"
    )
    assert unreferenced_definitions(pkg, {"api", "Api", "documented_method"}) == [
        "mod.py:5 _only_for_tests",
        "mod.py:13 reexported",
        "mod.py:21 test_only_method",
    ]
