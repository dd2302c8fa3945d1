"""The package's imports against pyproject.toml, and its names against use.

Every third-party package that a module of src/catbell imports, at module
level or inside a function, is a runtime dependency.  The one exception is
catbell.reference, the oracle module, which may also use the test extra and
must keep its own scipy solvers so that the oracles stay independent of the
fast paths.  Every module-level function and class outside the oracle module
is read by the program (src, demos, perfbench); helpers that only tests need
live in tests/.  Every one of the oracle module is read by a check other
than its own self-tests (tests/test_reference.py): another test, the
benchmark's output checks, or another oracle.  Every name that a module of
src/catbell imports is read in that module, and a fresh `import catbell`
loads only the modules that its one binding needs: names are imported from
the module that defines them.  `import catbell.bell` loads no gates, and
`import catbell.reference` no scipy, until a call needs them.
"""

from __future__ import annotations

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "catbell"
ORACLE = "reference.py"
PROGRAM = ("src", "demos", "perfbench")
ORACLE_READERS = ("tests", "perfbench")
ORACLE_SELF_TESTS = ROOT / "tests" / "test_reference.py"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# module-level names that the program does not read, kept on purpose
KEPT_UNREAD = {
    "dm_fidelity": "the Uhlmann reference that tests hold "
                   "bell.mixed_bell_fidelity to",
    "propagate": "the full heated rho; ROADMAP items 3, 4 and 14 build on it",
}

# imports that their module does not read, kept on purpose: perfbench's
# tracer test checks that the tracer rebinds both; ROADMAP item 1 retires them
KEPT_UNREAD_IMPORTS = {("__init__.py", "apply"), ("cli.py", "apply")}

# oracles that only their self-tests read, kept on purpose
KEPT_UNREAD_ORACLES = {
    "coherent_overlap": "the Gram tables of the truncation-free pipeline "
                        "oracle (ROADMAP item 7)",
    "chsh_grid_search": "the check of the best B over axes (ROADMAP item 12)",
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


def reads_in(roots: tuple[str, ...]) -> dict[Path, list]:
    """name_reads of every Python file under the given roots."""
    return {path: name_reads(path) for root in roots
            for path in sorted((ROOT / root).rglob("*.py"))}


def read_outside(reads: dict, name: str, module: Path) -> bool:
    """Whether name is read in reads anywhere but inside its own def."""
    return any(read == name and not (path == module and owner == name)
               for path, names in reads.items() for read, owner in names)


def test_every_module_level_name_is_read_by_the_program():
    reads = reads_in(PROGRAM)

    unread, defined = [], set()
    for module in sorted(PACKAGE.glob("*.py")):
        if module.name == ORACLE:
            continue
        for node in ast.parse(module.read_text(encoding="utf-8")).body:
            if isinstance(node, DEFS):
                defined.add(node.name)
                read = read_outside(reads, node.name, module)
                if node.name in KEPT_UNREAD:
                    assert not read, f"{node.name} is read now: drop it from KEPT_UNREAD"
                elif not read:
                    unread.append(f"{module.stem}.{node.name}")
    assert not unread, f"read only by tests, if at all: {unread}"
    assert set(KEPT_UNREAD) <= defined


def test_every_oracle_is_read_by_another_check():
    oracle = PACKAGE / ORACLE
    reads = reads_in(ORACLE_READERS)
    del reads[ORACLE_SELF_TESTS]
    reads[oracle] = name_reads(oracle)

    unread, defined = [], set()
    for node in ast.parse(oracle.read_text(encoding="utf-8")).body:
        if isinstance(node, DEFS):
            defined.add(node.name)
            read = read_outside(reads, node.name, oracle)
            if node.name in KEPT_UNREAD_ORACLES:
                assert not read, (f"{node.name} is read now: drop it from "
                                  "KEPT_UNREAD_ORACLES")
            elif not read:
                unread.append(node.name)
    assert not unread, f"read only by their self-tests, if at all: {unread}"
    assert set(KEPT_UNREAD_ORACLES) <= defined


def bound_imports(tree: ast.Module) -> set[str]:
    """The names that the import statements of tree bind, at any depth;
    `from __future__` binds none."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((alias.asname or alias.name).split(".")[0]
                         for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def test_every_import_is_read_in_its_module():
    unread, kept = [], set()
    for module in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"))
        loads = {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for name in sorted(bound_imports(tree) - loads):
            if (module.name, name) in KEPT_UNREAD_IMPORTS:
                kept.add((module.name, name))
            else:
                unread.append(f"{module.stem}: {name}")
    assert not unread, f"imported but never read: {unread}"
    assert kept == KEPT_UNREAD_IMPORTS, "read now: drop from KEPT_UNREAD_IMPORTS"


# the dense layer: hilbert keeps OperatorMatrix and apply only for perfbench's
# tracer test (ROADMAP item 1), and the dense gate builders and exponential
# live in tests/conftest.py; the program runs every gate as a step
DENSE_OPERATOR_HOMES = ("hilbert.py", ORACLE)
DENSE_BUILDERS = {"matrix_exp", "number_op", "u_ve_ideal", "u_ve_literal", "u_ev"}


def test_no_module_but_hilbert_reads_the_dense_operator():
    for module in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"))
        names = {name for name, _ in name_reads(module)} | bound_imports(tree)
        names |= {node.name for node in ast.walk(tree) if isinstance(node, DEFS)}
        if module.name not in DENSE_OPERATOR_HOMES:
            assert "OperatorMatrix" not in names, f"{module.name} reads OperatorMatrix"
        if module.name != ORACLE:
            found = sorted(names & DENSE_BUILDERS)
            assert not found, f"{module.name} defines or reads {found}"


def loaded_modules(*statements: str, package: str = "catbell") -> list[set[str]]:
    """The modules of package loaded in a fresh interpreter after each of
    the statements, run in order."""
    probe = "; ".join(
        f"{statement}; print(sorted(m for m in sys.modules "
        f"if m.split('.')[0] == {package!r}))" for statement in statements)
    out = subprocess.run([sys.executable, "-c", f"import sys; {probe}"],
                         env=child_env(), capture_output=True, text=True,
                         check=True).stdout
    return [set(ast.literal_eval(line)) for line in out.splitlines()]


def test_importing_the_package_loads_only_its_one_binding():
    package, with_noise = loaded_modules("import catbell", "import catbell.noise")
    assert package == {"catbell", "catbell.errors", "catbell.hilbert"}
    assert with_noise - package == {"catbell.noise"}


def test_the_readout_loads_gates_only_for_its_pulses():
    # bell needs gates only for the rotated readout's carrier pulses
    bell, exact, rotated = loaded_modules(
        "import catbell.bell",
        "from catbell.bell import chsh, mixed_bell; chsh(mixed_bell(0.1))",
        "chsh(mixed_bell(0.1), method='rotated')")
    assert "catbell.gates" not in bell
    assert exact == bell
    assert rotated - bell == {"catbell.gates"}


def test_the_oracle_module_loads_scipy_only_in_its_scipy_oracles():
    imported, series, oracle = loaded_modules(
        "import catbell.reference",
        "catbell.reference.cat_amplitudes(2.0, 1, 30)",
        "catbell.reference.displacement_elements(0.3j, 4)",
        package="scipy")
    assert imported == series == set()
    assert "scipy.special" in oracle
