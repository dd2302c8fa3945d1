"""The package's imports against pyproject.toml, and its names against use.

Every third-party package that a module of src/catbell imports, at module
level or inside a function, is a runtime dependency.  The one exception is
catbell.reference, the oracle module, which may also use the test extra and
must keep its own scipy solvers so that the oracles stay independent of the
fast paths.  Every module-level function and class outside the oracle module
is read by the program (src, demos, perfbench) or exported; helpers that only
tests need live in tests/.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "catbell"
ORACLE = "reference.py"
PROGRAM = ("src", "demos", "perfbench")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# module-level names that the program does not read, kept on purpose
KEPT_UNREAD = {
    "dm_fidelity": "the Uhlmann reference that tests hold "
                   "bell.mixed_bell_fidelity to",
    "propagate": "the full heated rho; ROADMAP items 3, 4 and 14 build on it",
}


def requirement_names(requirements: list[str]) -> set[str]:
    """Normalized project names of PEP 508 requirement strings."""
    return {re.split(r"[\s<>=!~;\[(]", req, maxsplit=1)[0].lower().replace("-", "_")
            for req in requirements}


def third_party_imports(path: Path) -> set[str]:
    """Top-level names of the absolute imports in path that are neither the
    standard library nor catbell."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return {name for name in names if name not in sys.stdlib_module_names
            and name not in ("__future__", "catbell")}


@pytest.fixture(scope="module")
def project() -> dict:
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as handle:
        return tomllib.load(handle)["project"]


def test_every_import_is_a_runtime_dependency(project):
    runtime = requirement_names(project["dependencies"])
    oracle = runtime | requirement_names(project["optional-dependencies"]["test"])
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    for module in modules:
        allowed = oracle if module.name == ORACLE else runtime
        missing = third_party_imports(module) - allowed
        assert not missing, f"{module.name} imports {sorted(missing)}"


def test_scipy_serves_only_the_oracle(project):
    assert "scipy" in third_party_imports(PACKAGE / ORACLE)
    assert "scipy" not in requirement_names(project["dependencies"])


def name_reads(path: Path) -> list[tuple[str, str | None]]:
    """Each name read in path as an ast.Name or ast.Attribute, with the
    module-level def or class it sits in (None at module level)."""
    reads = []
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        owner = top.name if isinstance(top, DEFS) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.append((node.id, owner))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.append((node.attr, owner))
    return reads


def test_every_module_level_name_is_read_by_the_program():
    import catbell

    reads = {path: name_reads(path) for root in PROGRAM
             for path in sorted((ROOT / root).rglob("*.py"))}

    def read_outside(name: str, module: Path) -> bool:
        return any(read == name and not (path == module and owner == name)
                   for path, names in reads.items() for read, owner in names)

    unread, defined = [], set()
    for module in sorted(PACKAGE.glob("*.py")):
        if module.name == ORACLE:
            continue
        for node in ast.parse(module.read_text(encoding="utf-8")).body:
            if isinstance(node, DEFS):
                defined.add(node.name)
                read = read_outside(node.name, module)
                if node.name in KEPT_UNREAD:
                    assert not read, f"{node.name} is read now: drop it from KEPT_UNREAD"
                elif not read and node.name not in catbell.__all__:
                    unread.append(f"{module.stem}.{node.name}")
    assert not unread, f"read only by tests, if at all: {unread}"
    assert set(KEPT_UNREAD) <= defined
