"""The package's imports against pyproject.toml.

Every third-party package that a module of src/catbell imports, at module
level or inside a function, is a runtime dependency.  The one exception is
catbell.reference, the oracle module, which may also use the test extra and
must keep its own scipy solvers so that the oracles stay independent of the
fast paths.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "catbell"
ORACLE = "reference.py"


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
