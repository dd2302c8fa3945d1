"""Batch experiment runner: the command line around catbell.pipeline.

One invocation executes one named protocol from a flat JSON config (at most
one nesting level, one section per module) and writes a result table
atomically.  This module parses the command line, validates the config
against one table of fields (FIELDS), writes the output and maps errors to
exit codes; the protocols themselves live in catbell.pipeline.  CSV output
carries pure data rows with 12-significant-digit numbers so reruns diff
byte-identically; JSON output additionally echoes the normalized config and
the wall-clock duration.

Exit codes: 0 success, 2 config error (or an output that cannot be written,
or a command line outside USAGE), 3 capacity (truncation or size budget), 4
numerical contract violation (for heat-sweep, a gamma * duration that
overflows to inf), 141 stdout closed before all of it was written (as in
`catbell describe full-pipeline | head -1`): the rest is dropped without a
message, and 141 = 128 + SIGPIPE is what a shell reports for a writer that
SIGPIPE ended.  A run's output file is written before stdout.

An import loads catbell.pipeline, params and errors; a run adds its
protocol's modules (catbell.pipeline says which), and no run loads numpy.
No command loads dataclasses, and only describe loads inspect, for its
cleandoc.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import time
from math import isfinite, pi
from typing import NamedTuple

from . import __version__
from .errors import CapacityError, CatbellError, ConfigError, ContractError
from .params import CHSH_METHODS, EV_VARIANTS, VE_VARIANTS
from .pipeline import (
    run_bell_scan,
    run_full_pipeline,
    run_heat_sweep,
    run_prepare,
    run_rotate,
    run_swap_report,
)

RUNNERS = {
    "prepare": run_prepare,
    "rotate": run_rotate,
    "swap-report": run_swap_report,
    "heat-sweep": run_heat_sweep,
    "bell-scan": run_bell_scan,
    "full-pipeline": run_full_pipeline,
}
PROTOCOLS = tuple(RUNNERS)

DEFAULT_EPSILONS = (0.05, 0.1, 0.2, 0.5236)
DEFAULT_DELTAS = tuple(round(0.05 * i, 10) for i in range(11))


def __getattr__(name: str):
    """cli.apply, hilbert.apply bound here on first access (PEP 562), so
    that importing the command line loads no numpy: perfbench's tracer test
    checks that the tracer rebinds cli.apply along with hilbert.apply."""
    if name != "apply":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .hilbert import apply
    globals()["apply"] = apply
    return apply


# ---------------------------------------------------------------- config ---

class Field(NamedTuple):
    """One config field: where it sits, its default, its kind and bounds.

    kind is "number", "integer", "numbers" (a nonempty list of numbers),
    "choice", "bool" or "string"; optional admits null.  ge and le are
    inclusive bounds, gt and lt exclusive ones, applied to each number of a
    list.  A callable default is called with the protocol name; a field
    that is not optional and has no default (None) must be given.
    """

    section: str  # "" for a top-level field
    key: str
    default: object
    kind: str
    ge: float | None = None
    gt: float | None = None
    le: float | None = None
    lt: float | None = None
    choices: tuple = ()
    optional: bool = False

    @property
    def name(self) -> str:
        return f"{self.section}.{self.key}" if self.section else self.key


SEED = Field("", "seed", 0, "integer", ge=0, le=2 ** 64 - 1)

# the normalized config has these fields in this order; a section's fields
# are contiguous, and the output path defaults to the protocol name
FIELDS = (
    Field("", "protocol", None, "choice", choices=PROTOCOLS),
    Field("encoding", "alpha", 2.0, "number", gt=0),
    Field("encoding", "beta", None, "number", gt=0, optional=True),
    Field("encoding", "cutoff", None, "integer", ge=2, optional=True),
    Field("encoding", "leak_tol", 1e-10, "number", gt=0, lt=1),
    Field("encoding", "epsilon", None, "number", ge=0.0, optional=True),
    Field("encoding", "epsilons", DEFAULT_EPSILONS, "numbers", ge=0.0),
    Field("noise", "gamma", 0.001, "number", ge=0.0),
    Field("noise", "duration", 1.0, "number", ge=0.0),
    Field("noise", "steps", None, "integer", ge=1, optional=True),
    Field("noise", "constant_rate", False, "bool"),
    Field("noise", "delta", None, "number", ge=0.0, le=1.0, optional=True),
    Field("noise", "durations", None, "numbers", ge=0.0, optional=True),
    Field("bell", "theta_a", 0.0, "number"),
    Field("bell", "theta_a_prime", pi / 2, "number"),
    Field("bell", "theta_b", -pi / 4, "number"),
    Field("bell", "theta_b_prime", pi / 4, "number"),
    # catbell.sampler holds its counts' sum and range up to 2**63 - 1 shots,
    # the bound of numpy's int64 draw before it, so every config that ran
    # still runs
    Field("bell", "shots", 4096, "integer", ge=1, le=2 ** 63 - 1),
    Field("bell", "mode", "exact", "choice", choices=CHSH_METHODS),
    Field("bell", "deltas", DEFAULT_DELTAS, "numbers", ge=0.0, le=1.0),
    Field("gates", "ve_variant", "ideal", "choice", choices=VE_VARIANTS),
    Field("gates", "ev_variant", "ideal", "choice", choices=EV_VARIANTS),
    SEED,
    Field("output", "path", lambda protocol: protocol, "string"),
    Field("output", "format", "csv", "choice", choices=("csv", "json")),
)
_GROUPS = tuple((section, tuple(fields)) for section, fields
                in itertools.groupby(FIELDS, lambda f: f.section))


# an error echoes at most this many characters of the offending value's
# repr, or command-line token, and marks the cut; 10 ** 400's 401 digits
# come whole
ECHO_LIMIT = 500


def _cut(echo: str) -> str:
    """echo, cut after ECHO_LIMIT characters with the cut marked."""
    if len(echo) > ECHO_LIMIT:
        echo = f"{echo[:ECHO_LIMIT]}... ({len(echo) - ECHO_LIMIT} more characters)"
    return echo


def _reject(field: Field, requirement: str, value,
            index: int | None = None) -> ConfigError:
    name = field.name if index is None else f"{field.name}[{index}]"
    return ConfigError(f"{name} must be {requirement}, got {_cut(repr(value))}")


def _path_fault(path: str) -> str | None:
    """What a file name must be and path is not, or None."""
    if "\0" in path:  # no file name holds one
        return "free of NUL characters"
    try:
        os.fsencode(path)
    except UnicodeEncodeError:  # a lone surrogate, such as "\ud800"
        return "encodable as a file name"
    return None


def _number(field: Field, value, index: int | None = None):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _reject(field, "a number", value, index)
    if isinstance(value, float) and not isfinite(value):
        raise _reject(field, "finite", value, index)
    if field.kind == "integer":
        if value != int(value):
            raise _reject(field, "an integer", value, index)
        value = int(value)
    else:
        try:
            value = float(value)
        except OverflowError:  # an integer beyond the float range
            raise _reject(field, "finite", value, index) from None
    if field.ge is not None and value < field.ge:
        raise _reject(field, f">= {field.ge}", value, index)
    if field.gt is not None and value <= field.gt:
        raise _reject(field, f"> {field.gt}", value, index)
    if field.le is not None and value > field.le:
        raise _reject(field, f"<= {field.le}", value, index)
    if field.lt is not None and value >= field.lt:
        raise _reject(field, f"< {field.lt}", value, index)
    return value


def _check(field: Field, value):
    """The normalized value of one field, or a ConfigError naming it."""
    kind = field.kind
    if value is None and field.optional:
        return None
    if kind == "number" or kind == "integer":
        return _number(field, value)
    if kind == "numbers":
        if not isinstance(value, (list, tuple)) or not value:
            raise _reject(field, "a nonempty array", value)
        return [_number(field, v, i) for i, v in enumerate(value)]
    if kind == "choice":
        if value not in field.choices:
            *head, last = field.choices
            raise _reject(field, f"one of {', '.join(head)} or {last}", value)
    elif kind == "bool":
        if not isinstance(value, bool):
            raise _reject(field, "a boolean", value)
        if value and field.name == "noise.constant_rate":  # configs send false
            raise _reject(field, "false: frozen jump rates are retired", value)
    elif not isinstance(value, str) or not value:
        raise _reject(field, "a nonempty string", value)
    elif fault := _path_fault(value):
        raise _reject(field, fault, value)
    return value


def normalize_config(raw: dict) -> dict:
    """Validate every given field and apply the defaults of FIELDS;
    idempotent on its output.  A default is taken unchecked (each passes
    its field's check, which the tests hold), a "numbers" one as a fresh
    list; an omitted protocol, which has none, is checked as null.  An
    unknown field or section is a ConfigError."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    top = dict(raw)
    cfg: dict = {}
    for section, fields in _GROUPS:
        given, out = top, cfg
        if section:
            given = top.pop(section, {})
            if not isinstance(given, dict):
                raise ConfigError(f"{section} must be an object")
            given, out = dict(given), cfg.setdefault(section, {})
        for field in fields:
            default = field.default
            if field.key in given or (default is None and not field.optional):
                value = _check(field, given.pop(field.key, None))
            elif callable(default):
                value = default(cfg["protocol"])
            elif field.kind == "numbers" and default is not None:
                value = list(default)
            else:
                value = default
            out[field.key] = value
        if section and given:
            raise ConfigError(f"unknown field {section}.{sorted(given)[0]}")
    if top:
        raise ConfigError(f"unknown field {sorted(top)[0]}")
    return cfg


# ----------------------------------------------------------------- output ---

def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def render_csv(rows: list[dict]) -> str:
    columns = list(rows[0].keys())
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_format_value(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def _atomic_write(path: str, text: str) -> None:
    """Write text to a fresh .catbell-<pid>-<n>.tmp beside path (mode 0o600),
    then rename it over path; the directory is made only if missing."""
    directory = os.path.dirname(path)
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_CLOEXEC
    n = 0
    while True:
        tmp = os.path.join(directory, f".catbell-{os.getpid()}-{n}.tmp")
        try:
            fd = os.open(tmp, flags, 0o600)
            break
        except FileExistsError:
            n += 1
        except FileNotFoundError:
            os.makedirs(directory, exist_ok=True)
    try:
        try:
            data = memoryview(text.encode("utf-8"))
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _output_path(cfg: dict, output_dir: str | None) -> str:
    path = cfg["output"]["path"]
    suffix = "." + cfg["output"]["format"]
    if not path.endswith(suffix):
        path += suffix
    if output_dir is not None:
        path = os.path.join(output_dir, os.path.basename(path))
    return path


def execute(cfg: dict, output_dir: str | None = None) -> str:
    """Run the configured protocol and write its output file; returns the path."""
    started = time.perf_counter()
    rows, results, provenance = RUNNERS[cfg["protocol"]](cfg)
    duration = time.perf_counter() - started
    path = _output_path(cfg, output_dir)
    if cfg["output"]["format"] == "csv":
        text = render_csv(rows)
    else:
        record = {
            "protocol": cfg["protocol"],
            "config": cfg,
            "results": results,
            "rows": rows,
            "provenance": provenance,
            "duration_seconds": duration,
            "version": __version__,
        }
        text = json.dumps(record) + "\n"
    try:
        _atomic_write(path, text)
    except OSError as err:
        raise ConfigError(
            f"cannot write output {_cut(path)}: {_cut(str(err))}") from err
    print(f"{cfg['protocol']}: {len(rows)} rows ({provenance}) -> {path}")
    for name, value in results.items():
        if isinstance(value, (int, float)):
            print(f"  {name} = {_format_value(value)}")
    return path


# --------------------------------------------------------------- describe ---

def describe(protocol: str) -> str:
    """The protocol's name and its runner's docstring, which holds its
    stages, columns and notes; just the name where docstrings are stripped
    (python -OO)."""
    if protocol not in RUNNERS:
        raise ConfigError(f"unknown protocol {_cut(repr(protocol))}; "
                          f"choose from {', '.join(PROTOCOLS)}")
    import inspect  # for cleandoc alone: no run loads it
    doc = inspect.cleandoc(RUNNERS[protocol].__doc__ or "")
    return f"protocol: {protocol}\n{doc}".rstrip()


# ------------------------------------------------------------------- main ---

USAGE = """\
usage: catbell run CONFIG [--output DIR] [--seed N]
       catbell describe PROTOCOL
       catbell version
       catbell -h | --help"""
HELP = ("-h", "--help")
# each command's positional (None for none), and its options with the
# type that reads each value
COMMANDS = {
    "run": ("CONFIG", {"--output": str, "--seed": int}),
    "describe": ("PROTOCOL", {}),
    "version": (None, {}),
}


EXIT_BROKEN_PIPE = 141


def _stop(error: str | None = None) -> SystemExit:
    """Help: the usage on stdout and exit 0.  An error: the usage and the
    error on stderr and exit 2, as argparse ends."""
    if error is None:
        print(USAGE)
        sys.stdout.flush()  # a closed stdout raises here, for main to catch
        return SystemExit(0)
    print(f"{USAGE}\ncatbell: error: {error}", file=sys.stderr)
    return SystemExit(2)


def _is_flag(token: str) -> bool:
    """Whether token reads as an option rather than a value: it starts with
    a dash and is neither "-" nor a negative number such as -1."""
    return (token.startswith("-") and token != "-"
            and not token[1:].replace(".", "", 1).isdigit())


def _read_argv(argv: list[str]) -> tuple[str, str | None, str | None, int | None]:
    """(command, positional, --output, --seed) of a command line in USAGE's
    grammar.  Options may come before or after the positional, as `--opt
    value` or `--opt=value`, each value is read by its type (int() for
    --seed) and the last repeat wins.  Help, or any other command line,
    raises SystemExit (_stop)."""
    tokens = iter(argv)
    command = next(tokens, None)
    if command in HELP:
        raise _stop()
    if command not in COMMANDS:
        raise _stop("missing command" if command is None
                    else f"unknown command {_cut(repr(command))}")
    positional, allowed = COMMANDS[command]
    operands, options = [], {}
    for token in tokens:
        if token in HELP:
            raise _stop()
        name, eq, value = token.partition("=")
        if name in allowed:
            if not eq:
                value = next(tokens, None)
                if value is None or _is_flag(value):
                    raise _stop(f"{name} expects one argument")
            try:
                options[name] = allowed[name](value)
            except ValueError:
                raise _stop(f"invalid {name} value {_cut(repr(value))}") from None
        elif _is_flag(token):
            raise _stop(f"unknown option {_cut(token)}")
        else:
            operands.append(token)
    want = 0 if positional is None else 1
    if len(operands) < want:
        raise _stop(f"{command} needs {positional}")
    if len(operands) > want:
        raise _stop(f"unexpected argument {_cut(repr(operands[want]))}")
    return (command, operands[0] if want else None,
            options.get("--output"), options.get("--seed"))


def main(argv: list[str] | None = None) -> int:
    try:
        command, operand, output, seed = _read_argv(
            sys.argv[1:] if argv is None else argv)
        if command == "version":
            print(f"catbell {__version__}")
        elif command == "describe":
            print(describe(operand))
        else:
            for name, path in (("CONFIG", operand), ("--output", output)):
                if path is not None and (fault := _path_fault(path)):
                    raise ConfigError(
                        f"{name} must be {fault}, got {_cut(repr(path))}")
            try:
                with open(operand, encoding="utf-8") as handle:
                    text = handle.read()
            except OSError as err:
                raise ConfigError(
                    f"cannot read config: {_cut(str(err))}") from err
            except UnicodeDecodeError as err:
                raise ConfigError(f"config is not valid UTF-8: {err}") from err
            try:
                raw = json.loads(text)
            # beside a JSONDecodeError: a ValueError for an integer past
            # Python's digit limit, a RecursionError for deep nesting
            except (ValueError, RecursionError) as err:
                raise ConfigError(f"config is not valid JSON: {err}") from err
            cfg = normalize_config(raw)
            if seed is not None:
                cfg["seed"] = _check(SEED, seed)
            execute(cfg, output)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return 0
    except BrokenPipeError:
        # stdout's reader is gone: point stdout at devnull, so that the
        # interpreter's last flush of what is still buffered stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except CapacityError as err:
        print(f"capacity error: {err}", file=sys.stderr)
        return 3
    except ContractError as err:
        print(f"numerical contract violation: {err}", file=sys.stderr)
        return 4
    except CatbellError as err:  # pragma: no cover - defensive catch-all
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
