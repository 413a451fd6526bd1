"""Every module the package imports is standard library, the package
itself, or a declared runtime dependency, every module-level import is
used or kept for a bench hook, every name the package exports resolves,
and every function or class the package defines is used somewhere."""

import ast
import re
import sys
from collections import Counter
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


def _unused_imports(path: Path) -> list[tuple[int, str, bool]]:
    """Module-level imports of the file that nothing in it uses and that
    ``__all__`` does not list, as (line, name, whether the line carries a
    ``# noqa: F401``)."""

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
            if name in used or name in exported:
                continue
            unused.append((alias.lineno, name, "# noqa: F401" in lines[alias.lineno - 1]))
    return unused


def test_no_unused_imports():
    folders = ("src/hypersynth", "tests", "demos")
    sources = [path for folder in folders for path in sorted((ROOT / folder).glob("*.py"))]
    assert sources
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in sources
        for line, name, noqa in _unused_imports(path)
        if not noqa
    ]
    assert not unused, unused


def test_hook_only_imports_are_bench_hooks():
    """An import of the package that its module keeps only under a
    ``# noqa: F401`` must be one bench/spans.py hooks at that module's
    name; once the bench drops the hook, the import goes too."""

    tree = ast.parse((ROOT / "bench" / "spans.py").read_text(encoding="utf-8"))
    hooks = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "MODULE_HOOKS" for t in node.targets)
    )
    kept = [
        (path.stem, line, name)
        for path in sorted((ROOT / "src" / "hypersynth").glob("*.py"))
        for line, name, noqa in _unused_imports(path)
        if noqa
    ]
    assert kept
    unhooked = [f"{module}.py:{line}: {name}" for module, line, name in kept if (module, name) not in hooks]
    assert not unhooked, unhooked


def test_no_unreferenced_definitions():
    """Every module-level or class-level function or class of the package
    is named in src/, tests/, demos/ or bench/ other than at its own
    definition.  Dunder methods are exempt."""

    words = Counter(
        word
        for folder in ("src", "tests", "demos", "bench")
        for path in sorted((ROOT / folder).rglob("*.py"))
        for word in re.findall(r"\w+", path.read_text(encoding="utf-8"))
    )
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    defined = []
    for path in sorted((ROOT / "src" / "hypersynth").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bodies = [tree.body] + [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
        defined += [
            (f"{path.name}:{node.lineno}", node.name)
            for body in bodies
            for node in body
            if isinstance(node, kinds)
            and not (node.name.startswith("__") and node.name.endswith("__"))
        ]
    definitions = Counter(name for _, name in defined)
    unreferenced = [
        f"{where}: {name}" for where, name in defined if words[name] <= definitions[name]
    ]
    assert not unreferenced, unreferenced
