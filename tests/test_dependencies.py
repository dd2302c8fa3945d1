"""The package's imports against pyproject.toml, and its names against use.

Every third-party package that a module of src/catbell imports, at module
level or inside a function, is a runtime dependency.  The one exception is
catbell.reference, the oracle module, which may also use the test extra and
must keep its own scipy solvers so that the oracles stay independent of the
fast paths.

src/ holds what a command runs.  Every function and method outside the
oracle module is called by some run of `catbell` in tests/reach.py's set
(every protocol and variant, describe, version, help, and one config per
named error), or it has a KEPT_UNREACHED entry there that names its reader
and the ROADMAP items that settle it: a function that only the benchmark
(perfbench) or an open item needs stays that way until its items land.  A
function that only a demo or a test calls does not belong in src/: test
helpers live in tests/conftest.py, oracles in catbell.reference.  Every
module-level function and class outside the oracle module is read by src/
itself or has a KEPT_UNREACHED entry.

Every one of the oracle module is read by a check other than its own
self-tests (tests/test_reference.py): another test, the benchmark's output
checks, or another oracle.  Every name that a module of src/catbell, tests
or demos imports is read in that module, and a fresh
`import catbell` loads only the modules that its one binding needs: names
are imported from the module that defines them.  No readout of catbell.bell
loads gates, `import catbell.cli` loads no argparse, and
`import catbell.reference` loads no scipy until a call needs it.  Every
config field of catbell.cli.FIELDS is read by the runners or the command
line, so none is accepted and then ignored.

No command loads dataclasses, and only describe loads inspect: the records
of a run (ModeParams, EncodingParams, BellAngles, BellOutcome) are
NamedTuples that keep a frozen dataclass's contract: the hash and repr of
a frozen dataclass of the same fields, equality, keyword and positional
construction, refusal of assignment, and the exact message of each check.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import re
import subprocess
import sys
import textwrap
from math import inf, nan, pi
from pathlib import Path

import numpy as np
import pytest

from catbell.bell import BellAngles, BellOutcome
from catbell.cli import PROTOCOLS, main
from catbell.errors import CapacityError
from catbell.params import EncodingParams, ModeParams
from conftest import child_env
from reach import KEPT_UNREACHED, entry_of

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "catbell"
ORACLE = "reference.py"
ORACLE_READERS = ("tests", "perfbench")
ORACLE_SELF_TESTS = ROOT / "tests" / "test_reference.py"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# imports that their module does not read, kept on purpose, each with the
# ROADMAP item that retires it
KEPT_UNREAD_IMPORTS: set[tuple[str, str]] = set()
# the modules whose every import is read: the package, the tests and demos
IMPORTING_MODULES = ("src/catbell/*.py", "tests/*.py", "demos/*.py")

# oracles that only their self-tests read, kept on purpose
KEPT_UNREAD_ORACLES = {
    "chsh_grid_search": "the check of the best B over axes (ROADMAP item 12)",
}


# config fields that no runner reads, kept on purpose: the reason, and the
# ROADMAP item that retires the field
KEPT_UNREAD_FIELDS = {
    "noise.steps": ("the benchmark's heat-sweep configs send it; no row "
                    "depends on it since heat-sweep reads the channel's law", 1),
    "noise.constant_rate": ("the benchmark's heat-sweep configs send it as "
                            "false; true, the retired frozen jump rates, is "
                            "refused", 13),
}
# the modules that read a normalized config
CONFIG_READERS = ("pipeline.py", "cli.py")


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


def roadmap_items() -> list[str]:
    """The numbers of ROADMAP.md's open items."""
    return re.findall(r"^(\d+)\. \*\*",
                      (ROOT / "ROADMAP.md").read_text(encoding="utf-8"),
                      flags=re.MULTILINE)


def test_every_module_level_name_is_read_by_the_program():
    reads = reads_in(("src",))

    unread = []
    for module in sorted(PACKAGE.glob("*.py")):
        if module.name == ORACLE:
            continue
        for node in ast.parse(module.read_text(encoding="utf-8")).body:
            if not isinstance(node, DEFS):
                continue
            name = f"{module.stem}.{node.name}"
            if not read_outside(reads, node.name, module) and entry_of(name) is None:
                unread.append(name)
    assert not unread, f"read by no module of src/ and not in KEPT_UNREACHED: {unread}"


def test_every_function_is_run_by_a_command():
    # one fresh interpreter, so that no memo is warm
    probe = (f"import json, sys; sys.path.insert(0, {str(ROOT / 'tests')!r}); "
             "import reach; print(json.dumps(reach.unreached()))")
    out = subprocess.run([sys.executable, "-c", probe], env=child_env(),
                         capture_output=True, text=True, check=True).stdout
    unreached = json.loads(out)
    missing = sorted(name for name in unreached if entry_of(name) is None)
    assert not missing, (f"no command runs these, and KEPT_UNREACHED names "
                         f"no reader: {missing}")
    stale = sorted(set(KEPT_UNREACHED) - {entry_of(name) for name in unreached})
    assert not stale, f"a command runs these now, or they are gone: drop {stale}"
    items = roadmap_items()
    for name, (reader, numbers) in KEPT_UNREACHED.items():
        assert reader and numbers and all(str(n) in items for n in numbers), (
            f"{name}: no reader, or no ROADMAP item among {numbers}")


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
    for module in sorted(path for pattern in IMPORTING_MODULES
                         for path in ROOT.glob(pattern)):
        where = module.relative_to(ROOT).as_posix()
        tree = ast.parse(module.read_text(encoding="utf-8"))
        loads = {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for name in sorted(bound_imports(tree) - loads):
            if (where, name) in KEPT_UNREAD_IMPORTS:
                kept.add((where, name))
            else:
                unread.append(f"{where}: {name}")
    assert not unread, f"imported but never read: {unread}"
    assert kept == KEPT_UNREAD_IMPORTS, "read now: drop from KEPT_UNREAD_IMPORTS"


def subscript_keys(path: Path) -> set[str]:
    """The string constants that path subscripts with: cfg["noise"]["gamma"]
    gives "noise" and "gamma"."""
    return {node.slice.value
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Subscript)
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)}


def test_every_config_field_is_read():
    from catbell.cli import FIELDS

    keys = set().union(*(subscript_keys(PACKAGE / name) for name in CONFIG_READERS))
    unread = {field.name for field in FIELDS if field.key not in keys}
    kept = set(KEPT_UNREAD_FIELDS)
    assert kept <= unread, f"read now, or no field: drop {sorted(kept - unread)}"
    assert unread <= kept, f"accepted but never read: {sorted(unread - kept)}"
    items = roadmap_items()
    for name, (reason, item) in KEPT_UNREAD_FIELDS.items():
        assert reason and str(item) in items, f"{name}: no reason or no ROADMAP item {item}"


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


LOADED = "loaded:"


def loaded_modules(*statements: str,
                   package: str | tuple[str, ...] = "catbell") -> list[set[str]]:
    """The modules of package, or of each package of a tuple, loaded in a
    fresh interpreter after each of the statements, run in order; a
    statement may print lines of its own."""
    packages = (package,) if isinstance(package, str) else package
    probe = "\n".join(
        f"{statement}\nprint({LOADED!r}, sorted(m for m in sys.modules "
        f"if m.split('.')[0] in {packages!r}))" for statement in statements)
    out = subprocess.run([sys.executable, "-c", f"import sys\n{probe}"],
                         env=child_env(), capture_output=True, text=True,
                         check=True).stdout
    return [set(ast.literal_eval(line.removeprefix(LOADED).strip()))
            for line in out.splitlines() if line.startswith(LOADED)]


def test_importing_the_package_loads_only_its_one_binding():
    # catbell.apply is bound on first access (the package's __getattr__)
    package, with_noise = loaded_modules("import catbell", "import catbell.noise")
    assert package == {"catbell"}
    assert with_noise - package == {"catbell.noise", "catbell.hilbert",
                                    "catbell.params", "catbell.errors"}


def test_no_readout_loads_gates():
    # the mixture is read from its tensor, and a density matrix through
    # the hilbert layer; no readout loads the modes' Fock space (encoding,
    # bosonic) or the gates
    bell, exact, sampled, matrix = loaded_modules(
        "import catbell.bell as bell",
        "t = bell.mixed_tensor(bell.PHI_PLUS_T, bell.PSI_PLUS_T, 0.1); "
        "bell.tensor_chsh(t)",
        "bell.tensor_chsh(t, method='sampled', shots=100, seed=1)",
        "from catbell.hilbert import DensityMatrix, SpaceLayout; "
        "bell.chsh(DensityMatrix(SpaceLayout((2, 2)), [[1 / 2, 0, 0, 1 / 2], "
        "[0] * 4, [0] * 4, [1 / 2, 0, 0, 1 / 2]]))")
    assert bell == {"catbell", "catbell.bell", "catbell.params", "catbell.errors"}
    assert exact == sampled == bell
    assert matrix == bell | {"catbell.hilbert"}


def test_the_exact_readout_of_a_tuple_loads_no_numpy():
    # import catbell.bell, and its exact readout and fidelity of a T given
    # as nested tuples of floats, run in Python floats alone
    t = ((1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0),
         (0.0, 0.0, -1.0, 0.0), (0.0, 0.0, 0.0, 1.0))
    statements = ("import catbell.bell as bell",
                  f"print(bell.tensor_chsh({t!r}, bell.BellAngles()).b_value, "
                  f"bell.block_fidelity({t!r}, 0.0))")
    assert loaded_modules(*statements, package="numpy") == [set(), set()]


def test_the_oracle_module_loads_scipy_only_in_its_scipy_oracles():
    imported, series, pulses, oracle = loaded_modules(
        "import catbell.reference",
        "catbell.reference.cat_amplitudes(2.0, 1, 30)",
        "catbell.reference.pulse_correlators(catbell.reference.np.eye(4) / 4, "
        "[(0.1, 0.2)])",
        "catbell.reference.displacement_elements(0.3j, 4)",
        package="scipy")
    assert imported == series == pulses == set()
    assert "scipy.special" in oracle


def test_the_command_line_loads_no_argparse():
    assert loaded_modules("import catbell.cli", package="argparse") == [set()]


# the command line's front door and heat-sweep, each in a fresh interpreter;
# the config error is a run of a config file that does not exist
NUMPY_FREE = {
    "import catbell": "import catbell",
    "import catbell.cli": "import catbell.cli",
    "version": "import catbell.cli; catbell.cli.main(['version'])",
    "describe": "import catbell.cli; catbell.cli.main(['describe', 'heat-sweep'])",
    "help": ("import catbell.cli, contextlib\n"
             "with contextlib.suppress(SystemExit): catbell.cli.main(['--help'])"),
    "config error": ("import catbell.cli; assert catbell.cli.main("
                     "['run', 'no-such-dir/config.json']) == 2"),
}


@pytest.mark.parametrize("statement", NUMPY_FREE.values(), ids=NUMPY_FREE)
def test_the_front_door_loads_no_numpy(statement):
    assert loaded_modules(statement, package="numpy") == [set()]


# the records of a run are NamedTuples, so no command loads dataclasses,
# and describe alone loads inspect, for its cleandoc
RECORD_MODULES = ("dataclasses", "inspect")


@pytest.mark.parametrize("name", NUMPY_FREE)
def test_the_front_door_loads_no_dataclasses(name):
    want = {"inspect"} if name == "describe" else set()
    assert loaded_modules(NUMPY_FREE[name], package=RECORD_MODULES) == [want]


# the exact run of each protocol of cli.PROTOCOLS in Python floats alone,
# each in a fresh interpreter: the config extras and a line that the output
# holds, where a protocol needs them; a new protocol joins on its defaults.
# The sampled readouts still draw from numpy's Generator (ROADMAP item 32)
RUN_EXTRAS = {
    "heat-sweep": [("heat-sweep", {"encoding": {"alpha": 3.0},
                                   "noise": {"durations": [0.0, 1.0, 2.0]}}, "\n2,")],
    "full-pipeline": [(f"full-pipeline-{ev}", {"encoding": {"alpha": 2.0},
                                               "gates": {"ev_variant": ev}},
                       "\nb_value,") for ev in ("ideal", "displacement")],
    "bell-scan": [("bell-scan", {}, "\n0,")],
    "rotate": [("rotate", {"encoding": {"alpha": 2.0}}, "\n0.05,")],
    "prepare": [("prepare", {}, "\npreparation_fidelity,1\n")],
    "swap-report": [("swap-report", {}, "\nu_swap[ideal,displacement],")],
}
NUMPY_FREE_RUNS = [pytest.param(dict(extra, protocol=protocol), line, id=name)
                   for protocol in PROTOCOLS
                   for name, extra, line in RUN_EXTRAS.get(protocol,
                                                           [(protocol, {}, "\n")])]


@pytest.mark.parametrize("raw,line", NUMPY_FREE_RUNS)
def test_an_exact_run_loads_no_numpy(tmp_path, raw, line):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    run = (f"import catbell.cli; assert catbell.cli.main(['run', "
           f"{str(config)!r}, '--output', {str(tmp_path)!r}]) == 0")
    assert loaded_modules(run, package="numpy") == [set()]
    assert line in (tmp_path / f"{raw['protocol']}.csv").read_text()


@pytest.mark.parametrize("raw,line", NUMPY_FREE_RUNS)
def test_an_exact_run_loads_no_dataclasses_or_inspect(tmp_path, raw, line):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    run = (f"import catbell.cli; assert catbell.cli.main(['run', "
           f"{str(config)!r}, '--output', {str(tmp_path)!r}]) == 0")
    assert loaded_modules(run, package=RECORD_MODULES) == [set()]
    assert line in (tmp_path / f"{raw['protocol']}.csv").read_text()


# README's table of the per-process caches.  Its one row that is not a
# process-wide memo is what noise.sample_trajectory keeps on an immutable
# state, named by that state's class and attribute
README = ROOT / "README.md"
CACHE_TABLE_HEADER = "| cache | key | bound | worst case |"
PER_STATE_ENTRY = "StateVector._jump_chains"


def memoized_in(source: str) -> set[str]:
    """The name of every def in source decorated with functools.lru_cache or
    functools.cache, called or not, by the module or by its bare name."""
    memos = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name):
                name = target.attr if target.value.id == "functools" else None
            else:
                name = getattr(target, "id", None)
            if name in ("lru_cache", "cache"):
                memos.add(node.name)
    return memos


def memoized_functions() -> set[str]:
    """module.function of every memo (memoized_in) in src/catbell, the
    oracle aside."""
    return {f"{module.stem}.{name}" for module in sorted(PACKAGE.glob("*.py"))
            if module.name != ORACLE
            for name in memoized_in(module.read_text(encoding="utf-8"))}


def cache_table_rows() -> list[str]:
    """The name that opens each row of README's cache table: the first code
    span of the row's first cell."""
    lines = README.read_text(encoding="utf-8").splitlines()
    rows = []
    for line in lines[lines.index(CACHE_TABLE_HEADER) + 2:]:
        if not line.startswith("|"):
            break
        rows.append(re.match(r"\| `([\w.]+)`", line).group(1))
    return rows


def test_the_cache_table_names_every_memo_once():
    # every memo of the program has one row, and every row names a memo or
    # the entry that the jump sampler keeps on an immutable state
    from catbell.hilbert import StateVector
    from catbell.noise import HeatingParams, sample_trajectory
    from catbell.hilbert import SpaceLayout

    memos, rows = memoized_functions(), cache_table_rows()
    # the program's two decorator forms: functools.lru_cache(...) and a
    # bare lru_cache(...)
    assert {"pipeline._coherent_stages", "encoding.logical_basis"} <= memos, (
        f"the decorator parse missed: {memos}")
    assert len(rows) == len(set(rows)), f"a cache has two rows: {rows}"
    assert not memos - set(rows), f"memos with no row: {sorted(memos - set(rows))}"
    assert set(rows) - memos == {PER_STATE_ENTRY}, f"rows of no cache: {rows}"
    amps = np.eye(4, dtype=np.complex128)[1].copy()
    amps.flags.writeable = False
    state = StateVector(SpaceLayout((4,)), amps)
    sample_trajectory(state, HeatingParams(0.1, 1.0), 0)
    owner, attribute = PER_STATE_ENTRY.split(".")
    assert type(state).__name__ == owner and attribute in vars(state)


def test_the_memo_parse_reads_every_decorator_form():
    source = textwrap.dedent("""
        import functools
        from functools import lru_cache, wraps

        @functools.lru_cache(maxsize=8)
        def called(): pass

        @lru_cache(maxsize=8)
        def bare(): pass

        @functools.cache
        def cached(): pass

        @functools.lru_cache
        def uncalled(): pass

        @wraps(called)
        def wrapper(): pass

        @staticmethod
        def plain(): pass
        """)
    assert memoized_in(source) == {"called", "bare", "cached", "uncalled"}


# each record of a run: its fields in order, two sets of field values that
# differ in every field, and the values its defaults fill in
MODE = ModeParams(26)
RECORDS = {
    "ModeParams": (ModeParams, ("cutoff", "leak_tol"), (26, 1e-10), (27, 1e-8),
                   {"leak_tol": 1e-10}),
    "EncodingParams": (EncodingParams,
                       ("alpha", "beta", "mode_a", "mode_b", "epsilon"),
                       (2.0, 3.0, MODE, MODE, 0.1),
                       (2.5, 2.0, ModeParams(30), ModeParams(31), 0.2),
                       {"epsilon": None}),
    "BellAngles": (BellAngles,
                   ("theta_a", "theta_a_prime", "theta_b", "theta_b_prime"),
                   (0.1, 0.2, 0.3, 0.4), (0.5, 0.6, 0.7, 0.8),
                   {"theta_a": 0.0, "theta_a_prime": pi / 2,
                    "theta_b": -pi / 4, "theta_b_prime": pi / 4}),
    "BellOutcome": (BellOutcome, ("b_value", "correlations", "std_error"),
                    (2.5, (0.7, 0.6, 0.6, -0.6), 0.01),
                    (2.0, (0.5, 0.5, 0.5, -0.5), 0.02), {"std_error": None}),
}

# every check of the records, the exact message of each
CHECKS = [
    (lambda: ModeParams(1), ValueError, "cutoff must be >= 2, got 1"),
    (lambda: ModeParams(2.5), ValueError, "cutoff must be an integer, got 2.5"),
    (lambda: ModeParams(True), ValueError, "cutoff must be an integer, got True"),
    (lambda: ModeParams(26, 0.0), ValueError, "leak_tol must be in (0, 1), got 0.0"),
    (lambda: ModeParams(26, 1.0), ValueError, "leak_tol must be in (0, 1), got 1.0"),
    (lambda: EncodingParams(nan, 2.0, MODE, MODE), ValueError,
     "alpha must be finite, got nan"),
    (lambda: EncodingParams(2.0, inf, MODE, MODE), ValueError,
     "beta must be finite, got inf"),
    (lambda: EncodingParams(2.0, 2.0, MODE, MODE, nan), ValueError,
     "epsilon must be finite, got nan"),
    (lambda: EncodingParams(0.0, 2.0, MODE, MODE), ValueError,
     "cat amplitudes must be positive"),
    (lambda: EncodingParams(2.0, -1.0, MODE, MODE), ValueError,
     "cat amplitudes must be positive"),
    (lambda: EncodingParams(1e-200, 2.0, MODE, MODE), ValueError,
     "cat amplitudes must be at least 1.49e-154, got 1e-200"),
    (lambda: EncodingParams(2.0, 1e200, MODE, MODE), CapacityError,
     "cat amplitude 1e+200 is too large: |alpha|^2 overflows"),
    (lambda: EncodingParams(2.0, 2.0, MODE, MODE, -0.1), ValueError,
     "epsilon must be nonnegative"),
    (lambda: EncodingParams(2.0, 4.0, MODE, MODE, 0.9), ValueError,
     "epsilon*alpha and epsilon*beta must lie in [0, pi], got 3.6"),
    (lambda: EncodingParams.for_amplitudes(2.0, epsilon=2.0), ValueError,
     "epsilon*alpha and epsilon*beta must lie in [0, pi], got 4"),
] + [(lambda name=name, value=value: BellAngles(**{name: value}), ValueError,
      f"{name} must be finite, got {value}")
     for name, value in (("theta_a", nan), ("theta_a_prime", inf),
                         ("theta_b", -inf), ("theta_b_prime", nan))]


@pytest.mark.parametrize("name", RECORDS)
class TestRecords:
    def test_hash_and_repr_are_the_frozen_dataclasses(self, name):
        cls, fields, values, _, _ = RECORDS[name]
        frozen = dataclasses.make_dataclass(name, fields, frozen=True)
        record, twin = cls(*values), frozen(*values)
        assert hash(record) == hash(twin) == hash(values)
        assert repr(record) == repr(twin)

    def test_equality(self, name):
        cls, _, values, other, _ = RECORDS[name]
        assert cls(*values) == cls(*values)
        for i in range(len(values)):
            changed = values[:i] + other[i:i + 1] + values[i + 1:]
            assert cls(*changed) != cls(*values)

    def test_keyword_and_positional_construction(self, name):
        cls, fields, values, _, defaults = RECORDS[name]
        record = cls(**dict(zip(fields, values)))
        assert record == cls(*values)
        assert tuple(getattr(record, field) for field in fields) == values
        given = {f: v for f, v in zip(fields, values) if f not in defaults}
        assert cls(**given) == cls(**given, **defaults)

    def test_assignment_is_refused(self, name):
        cls, fields, values, other, _ = RECORDS[name]
        record = cls(*values)
        for field, value in zip(fields, other):
            with pytest.raises(AttributeError):
                setattr(record, field, value)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert record == cls(*values)


@pytest.mark.parametrize("build,error,message", CHECKS,
                         ids=[message for _, _, message in CHECKS])
def test_every_check_keeps_its_message(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


def test_an_epsilon_past_pi_over_alpha_is_a_config_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"protocol": "full-pipeline",
                                  "encoding": {"alpha": 2.0, "epsilon": 2.0}}))
    assert main(["run", str(config), "--output", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "config error: encoding: epsilon*alpha and epsilon*beta must lie in "
        "[0, pi], got 4\n")
