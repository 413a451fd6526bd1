"""Every module the package imports is standard library, the package
itself, or a declared runtime dependency, and every name the package
exports resolves."""

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
