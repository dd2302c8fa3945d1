"""Which functions of src/catbell the command line runs.

Run from the repository root:

    python3 tests/reach.py

In this one process, with no memo warm, it runs through cli.main every
config of output_matrix.configs((2.0,)), the configs of EXTRA_CONFIGS (a
null-delta and an alpha != beta full-pipeline, a sampled bell-scan, a
heat-sweep over durations, the two capacity errors), describe for each
protocol, version, --help, a command line outside the usage, and every
config of REGRESSIONS, each an input that once ended in a traceback, a NaN
or a wrong exit code.  sys.setprofile records each function that the
first import of catbell.cli and each cli.main call run.  It then prints
every function or method defined in src/catbell (found by ast,
catbell.reference left out) that no run called, with its line count and
the ROADMAP items and reader of its KEPT_UNREACHED entry, and the total
line count.  A def nested in an unreached def is counted with it.
tests/test_dependencies.py runs unreached() in a fresh interpreter and
holds it to KEPT_UNREACHED.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import sys
import tempfile
from math import pi
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "catbell"
ORACLE = "reference.py"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

# functions and methods that no command runs, kept on purpose: the reader
# that needs each, and the ROADMAP items that settle it.  An entry names a
# def, or a class for all of its methods; it goes when its items land
ENSEMBLE = ("perfbench's ensemble workload", (1, 23))
TRACER = ("perfbench's tracer test, which rebinds hilbert.apply, and the "
          "dense operators of tests/conftest.py", (1,))
FOCK_CHANNEL = ("the tests' Fock-space oracle of heated_moments, until the "
                "batched channel or the master model runs it", (3, 4, 14))
# the PEP 562 hooks that bind catbell.apply and cli.apply on first access,
# so that importing either loads no numpy
APPLY_SHIM = ("perfbench's tracer test, which reads catbell.apply and "
              "cli.apply", (1,))
KEPT_UNREACHED = {
    "__init__.__getattr__": APPLY_SHIM,
    "cli.__getattr__": APPLY_SHIM,
    "encoding.SchmidtState.to_state": ENSEMBLE,
    "encoding.bell_target": ENSEMBLE,
    "encoding.qubit_state": ENSEMBLE,
    "hilbert.tensor": ENSEMBLE,
    "params.SpaceLayout.nsites": ("hilbert.apply and the jump sampler", (1, 23)),
    "params.SpaceLayout.dims_of": TRACER,
    "hilbert.StateVector.as_tensor": TRACER,
    "hilbert.StateVector.to_density": ("noise.propagate's callers", (3, 4, 14)),
    "hilbert.apply": TRACER,
    "hilbert.OperatorMatrix": TRACER,
    "noise.HeatingParams": ENSEMBLE,
    "noise.TrajectoryResult": ENSEMBLE,
    "noise._require_single_mode": ENSEMBLE,
    "noise._mode_view": ENSEMBLE,
    "noise._level_weights": ENSEMBLE,
    "noise._immutable": ENSEMBLE,
    "noise._place": ENSEMBLE,
    "noise._Node": ENSEMBLE,
    "noise._kick": ENSEMBLE,
    "noise._chain": ENSEMBLE,
    "noise.sample_trajectory": ENSEMBLE,
    "noise._uint32_words": ENSEMBLE,
    "noise._hash_constants": ENSEMBLE,
    "noise._mix": ENSEMBLE,
    "noise._seed_state": ENSEMBLE,
    "noise._seed_block": ENSEMBLE,
    "noise._seed_words_class": ENSEMBLE,
    "noise.trajectory_rng": ENSEMBLE,
    "noise._diagonal_block": FOCK_CHANNEL,
    "noise.propagate": FOCK_CHANNEL,
}

EXTRA_CONFIGS = (
    {"protocol": "full-pipeline"},
    {"protocol": "full-pipeline", "encoding": {"alpha": 2.0, "beta": 1.5},
     "noise": {"delta": 0.1}},
    {"protocol": "bell-scan", "bell": {"mode": "sampled", "shots": 64}},
    {"protocol": "heat-sweep", "noise": {"durations": [0.0, 1.0, 2.0]}},
    # the size cap and a cutoff that drops more of the cat than leak_tol,
    # two capacity errors that no regression ends in
    {"protocol": "full-pipeline", "encoding": {"alpha": 4.0}},
    {"protocol": "prepare", "encoding": {"alpha": 2.0, "cutoff": 10}},
)

# every config that once ended in a traceback, a NaN or a wrong exit code;
# tests/test_cli.py's TestConfigFuzzer runs each as an @example.  Bytes are
# the config file itself
REGRESSIONS = (
    {"protocol": "full-pipeline", "noise": {"delta": float("nan")}},
    {"protocol": "full-pipeline", "noise": {"gamma": 1e308, "duration": 0}},
    {"protocol": "heat-sweep", "noise": {"gamma": 1e10, "durations": [1e300]}},
    {"protocol": "bell-scan", "bell": {"mode": "sampled", "shots": 1e30}},
    {"protocol": "full-pipeline", "encoding": {"alpha": 1e-9}},
    {"protocol": "full-pipeline", "encoding": {"alpha": 1e-200}},
    {"protocol": "full-pipeline", "encoding": {
        "alpha": 0.6414318430122907, "epsilon": pi / 0.6414318430122907}},
    {"protocol": "rotate", "encoding": {"alpha": 0.5, "epsilons": [0.1, 5e307]}},
    {"protocol": "rotate", "encoding": {"alpha": 0.5, "epsilons": [0.1, 1e308]}},
    {"protocol": "prepare", "encoding": {"alpha": 1e200}},
    {"protocol": "swap-report", "encoding": {"alpha": 1e200, "cutoff": 30}},
    {"protocol": "heat-sweep", "encoding": {"alpha": 2.0, "beta": 1e200}},
    # heat-sweep in Python floats, where an overflow or a division by zero
    # raises instead of warning: gamma t finite but 2 gamma t past the float
    # range (x = 1, parity 0), the smallest accepted alpha (its third level
    # subnormal), a cat that underflows to all zeros at a large cutoff (the
    # leak check runs before the division by its norm), and the largest
    # cutoffs, past and at the fuzzer's size cap of 4096
    {"protocol": "heat-sweep", "noise": {"gamma": 1e308, "durations": [0.0, 1.0]}},
    {"protocol": "heat-sweep", "encoding": {"alpha": 1.4916681462400413e-154}},
    {"protocol": "heat-sweep", "encoding": {"alpha": 40.0, "cutoff": 4000}},
    {"protocol": "heat-sweep", "encoding": {"alpha": 2.0, "cutoff": 16000}},
    {"protocol": "heat-sweep", "encoding": {"alpha": 2.0, "cutoff": 4096}},
    {"protocol": "full-pipeline", "encoding": {"alpha": 1.35e154, "cutoff": 30}},
    {"protocol": "full-pipeline", "output": {"path": "a\u0000b"}},
    b'{"protocol": "full-pipeline", "output": {"path": "\xff"}}',
    # nested past the JSON parser's recursion limit: 1000 levels by
    # default, more under a test runner that raises the limit
    b'{"protocol": "prepare", "encoding": ' + b"[" * 10000 + b"]" * 10000 + b"}",
    # an integer of 4301 digits, past Python's int conversion limit
    b'{"protocol": "prepare", "seed": 1' + b"0" * 4300 + b"}",
)


def defs() -> dict[str, tuple[tuple[str, int, str], int, str | None]]:
    """Each function and method of src/catbell outside the oracle module, by
    qualified name (module.Class.method, module.outer.inner): the key
    (file, first line, name) of its code object, its line count with its
    decorators, and the qualified name of the def it is nested in."""
    out = {}

    def visit(node, prefix: str, path: str, outer: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                inner = outer
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    out[name] = ((path, first, child.name),
                                 child.end_lineno - first + 1, outer)
                    inner = name
                visit(child, name, path, inner)
            else:
                visit(child, prefix, path, outer)

    for module in sorted(PACKAGE.glob("*.py")):
        if module.name != ORACLE:
            visit(ast.parse(module.read_text(encoding="utf-8")), module.stem,
                  str(module), None)
    return out


def commands(directory: str):
    """The command line of every run of the set, in order; each config is
    written to directory just before its command line is yielded."""
    import output_matrix
    from catbell import cli

    def run(raw: dict | bytes) -> list[str]:
        path = Path(directory, "config.json")
        if isinstance(raw, bytes):
            path.write_bytes(raw)
        else:
            path.write_text(json.dumps(raw), encoding="utf-8")
        return ["run", str(path), "--output", str(Path(directory, "out"))]

    for name, raw in output_matrix.configs((2.0,)).items():
        yield run(dict(raw, output={"path": name}))
    for raw in EXTRA_CONFIGS + REGRESSIONS:
        yield run(raw)
    for protocol in cli.PROTOCOLS:
        yield ["describe", protocol]
    yield ["version"]
    yield ["--help"]
    yield ["run"]  # a command line outside the usage


def called() -> set[tuple[str, int, str]]:
    """The key (file, first line, name) of every code object called by the
    first import of catbell.cli and by cli.main on each of commands(), with
    the size cap at 4096 as the fuzzer sets it.  Nothing else is recorded:
    importing output_matrix builds a noise.HeatingParams, which no command
    does."""
    if "catbell" in sys.modules:
        raise RuntimeError("catbell is already imported, so its import-time "
                           "calls would go unrecorded: run in a fresh "
                           "interpreter")
    codes = set()

    def record(frame, event, arg) -> None:
        if event == "call":
            codes.add(frame.f_code)

    @contextlib.contextmanager
    def recording():
        sys.setprofile(record)
        try:
            yield
        finally:
            sys.setprofile(None)

    # imported by its dotted name: a from-import would also call a
    # module's __getattr__ (PEP 562), only for the import system's probe,
    # the package's for "cli" or cli's for "__path__", which it refuses
    with recording():
        import catbell.cli
    main = catbell.cli.main
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, {"CATBELL_MAX_DIM": "4096"}):
        for argv in commands(tmp):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()), recording():
                try:
                    main(argv)
                except SystemExit:  # help, and a command line outside USAGE
                    pass
    return {(os.path.realpath(code.co_filename), code.co_firstlineno,
             code.co_name) for code in codes}


def unreached() -> dict[str, int]:
    """The line count of each def of defs() that no run calls, by
    qualified name; a def nested in an unreached one is counted with it."""
    reached = called()
    found = defs()
    missed = {name for name, (key, _, _) in found.items() if key not in reached}
    return {name: lines for name, (_, lines, outer) in found.items()
            if name in missed and outer not in missed}


def entry_of(name: str) -> str | None:
    """The KEPT_UNREACHED entry that covers a def: its own, or its class's."""
    parts = name.split(".")
    return next((".".join(parts[:n]) for n in range(len(parts), 1, -1)
                 if ".".join(parts[:n]) in KEPT_UNREACHED), None)


def main() -> None:
    missed = unreached()
    width = max(map(len, missed), default=0)
    for name, lines in missed.items():
        entry = entry_of(name)
        reader, items = KEPT_UNREACHED[entry] if entry else ("no entry", ())
        where = ", ".join(map(str, items)) or "-"
        print(f"{name:<{width}}  {lines:4d}  items {where:<9}  {reader}")
    print(f"{len(missed)} unreached defs, {sum(missed.values())} lines")


if __name__ == "__main__":
    main()
