"""Every module the package imports is standard library, the package
itself, or a declared runtime dependency, every module-level import is
used, and every name the package exports resolves."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _imported_top_names(path: Path) -> set[str]:
    """Top-level module names of every import in the file, including
    function-local ones; relative imports are the package's own."""

    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def _declared_dependencies() -> set[str]:
    tomllib = pytest.importorskip("tomllib", reason="tomllib needs Python 3.11")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    # a requirement string starts with the distribution name
    return {
        re.match(r"[A-Za-z0-9_.\-]+", req).group(0).lower().replace("-", "_")
        for req in project.get("dependencies", [])
    }


def test_imports_are_stdlib_or_declared():
    declared = _declared_dependencies()
    sources = sorted((ROOT / "src" / "hypersynth").glob("*.py"))
    assert sources
    undeclared = {
        f"{path.name}: {name}"
        for path in sources
        for name in _imported_top_names(path)
        if name not in sys.stdlib_module_names and name != "hypersynth" and name not in declared
    }
    assert not undeclared, sorted(undeclared)


def test_public_names_resolve():
    import hypersynth

    namespace = {}
    exec("from hypersynth import *", namespace)
    missing = sorted(name for name in hypersynth.__all__ if name not in namespace)
    assert not missing, missing


def _unused_imports(path: Path) -> list[str]:
    """Module-level imports of the file that nothing in it uses, that
    ``__all__`` does not list and whose line carries no ``# noqa: F401``."""

    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    unused = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name in used or name in exported or "# noqa: F401" in lines[alias.lineno - 1]:
                continue
            unused.append(f"{path.name}:{alias.lineno}: {name}")
    return unused


def test_no_unused_imports():
    sources = sorted((ROOT / "src" / "hypersynth").glob("*.py"))
    assert sources
    unused = [entry for path in sources for entry in _unused_imports(path)]
    assert not unused, unused
