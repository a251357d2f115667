"""Guard: no code in the package exists only for the tests.

Every function and class defined under src/strongcolor must be referred
to somewhere in the package outside its own definition, unless it is
exported through `strongcolor.__all__`, is a public method of an
exported class, or is a dunder method that Python calls implicitly.
"""

import ast
from pathlib import Path

import strongcolor

PACKAGE = Path(strongcolor.__file__).resolve().parent


def _definitions(tree: ast.AST):
    """(node, class it is a method of, or None) for every def and class."""
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield child, node if isinstance(node, ast.ClassDef) else None


def _references(tree: ast.AST):
    """(name, line) for every name, attribute and imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def unreferenced_definitions(package: Path, exported) -> list[str]:
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(package.rglob("*.py"))}
    refs = {p: list(_references(t)) for p, t in trees.items()}
    out = []
    for path, tree in trees.items():
        for node, owner in _definitions(tree):
            name = node.name
            if name in exported or (name.startswith("__") and name.endswith("__")):
                continue
            if owner is not None and owner.name in exported and not name.startswith("_"):
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
    assert unreferenced_definitions(PACKAGE, set(strongcolor.__all__)) == []


def test_guard_flags_an_unused_helper(tmp_path):
    pkg = tmp_path / "strongcolor"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("__all__ = ['api']\n\ndef api():\n    return _used()\n")
    (pkg / "mod.py").write_text(
        "def _used():\n    return 1\n\n\ndef _only_for_tests():\n    return _only_for_tests()\n"
    )
    assert unreferenced_definitions(pkg, {"api"}) == ["mod.py:5 _only_for_tests"]
