"""Batch experiment runner.

One invocation executes one named protocol from a flat JSON config (at most
one nesting level, one section per module) and writes a result table
atomically.  CSV output carries pure data rows with 12-significant-digit
numbers so reruns diff byte-identically; JSON output additionally echoes the
normalized config and the wall-clock duration.

Exit codes: 0 success, 2 config error, 3 capacity (truncation or size
budget), 4 numerical contract violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import tempfile
import time
from math import isfinite, pi, sqrt

import numpy as np

from . import __version__
from .bell import (
    CHSH_METHODS,
    PAIR,
    BellAngles,
    chsh,
    mixed_bell,
    mixed_bell_fidelity,
    reduced_electronic_schmidt,
    violation_scan,
)
from .bosonic import EVEN, cat
from .encoding import (
    EncodingParams,
    LogicalBasis,
    SchmidtState,
    bell_target_schmidt,
    entangled_target,
    entangled_target_cat_form,
    entangled_target_schmidt,
    full_layout,
    hadamard_matrix,
    logical_basis,
    prepare_entangled,
    prepare_entangled_schmidt,
    rotation_fidelity,
    schmidt_fidelity,
)
from .errors import CapacityError, CatbellError, ConfigError, ContractError
from .gates import (
    EV_VARIANTS,
    SIGMA_X,
    VE_VARIANTS,
    report_u_ev,
    report_u_swap,
    report_u_ve,
    u_swap,
)
# apply is unused here but stays bound: perfbench's tracer test checks that
# the tracer rebinds catbell.cli.apply along with catbell.hilbert.apply
from .hilbert import DensityMatrix, apply, state_fidelity  # noqa: F401
from .noise import (
    HeatingParams,
    delta_of,
    evolve_lindblad,
    parity_flip_probability,
)

PROTOCOLS = ("prepare", "rotate", "swap-report", "heat-sweep",
             "bell-scan", "full-pipeline")

DEFAULT_EPSILONS = (0.05, 0.1, 0.2, 0.5236)
DEFAULT_DELTAS = tuple(round(0.05 * i, 10) for i in range(11))


# ---------------------------------------------------------------- config ---

def _section(raw: dict, name: str) -> dict:
    sec = raw.pop(name, {})
    if not isinstance(sec, dict):
        raise ConfigError(f"{name} must be an object")
    return dict(sec)


def _reject_unknown(sec: dict, section: str) -> None:
    if sec:
        raise ConfigError(f"unknown field {section}.{sorted(sec)[0]}")


def _number(value, section: str, key: str, *, minimum=None, maximum=None,
            allow_none=False, integer=False):
    if value is None:
        if allow_none:
            return None
        raise ConfigError(f"{section}.{key} is required")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{section}.{key} must be a number, got {value!r}")
    if not isfinite(value):
        raise ConfigError(f"{section}.{key} must be finite, got {value}")
    if integer:
        if value != int(value):
            raise ConfigError(f"{section}.{key} must be an integer, got {value!r}")
        value = int(value)
    else:
        value = float(value)
    if minimum is not None and value < minimum:
        raise ConfigError(f"{section}.{key} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{section}.{key} must be <= {maximum}, got {value}")
    return value


def _number_list(value, section: str, key: str, *, minimum=None, maximum=None,
                 allow_none=False):
    if value is None:
        if allow_none:
            return None
        raise ConfigError(f"{section}.{key} is required")
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{section}.{key} must be a nonempty array")
    return [_number(v, section, f"{key}[{i}]", minimum=minimum, maximum=maximum)
            for i, v in enumerate(value)]


def normalize_config(raw: dict) -> dict:
    """Apply defaults and validate every field; idempotent on its output."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    raw = dict(raw)
    protocol = raw.pop("protocol", None)
    if protocol not in PROTOCOLS:
        raise ConfigError(
            f"protocol must be one of {', '.join(PROTOCOLS)}, got {protocol!r}")

    enc = _section(raw, "encoding")
    encoding = {
        "alpha": _number(enc.pop("alpha", 2.0), "encoding", "alpha"),
        "beta": enc.pop("beta", None),
        "cutoff": _number(enc.pop("cutoff", None), "encoding", "cutoff",
                          minimum=2, allow_none=True, integer=True),
        "leak_tol": _number(enc.pop("leak_tol", 1e-10),
                            "encoding", "leak_tol", minimum=0.0),
        "epsilon": _number(enc.pop("epsilon", None), "encoding", "epsilon",
                           minimum=0.0, allow_none=True),
        "epsilons": _number_list(enc.pop("epsilons", list(DEFAULT_EPSILONS)),
                                 "encoding", "epsilons", minimum=0.0),
    }
    if encoding["alpha"] <= 0:
        raise ConfigError("encoding.alpha must be > 0")
    if encoding["beta"] is not None:
        encoding["beta"] = _number(encoding["beta"], "encoding", "beta")
        if encoding["beta"] <= 0:
            raise ConfigError("encoding.beta must be > 0")
    _reject_unknown(enc, "encoding")

    noi = _section(raw, "noise")
    noise = {
        "gamma": _number(noi.pop("gamma", 0.001), "noise", "gamma",
                         minimum=0.0),
        "duration": _number(noi.pop("duration", 1.0), "noise", "duration",
                            minimum=0.0),
        "steps": _number(noi.pop("steps", None), "noise", "steps",
                         minimum=1, allow_none=True, integer=True),
        "constant_rate": noi.pop("constant_rate", False),
        "delta": _number(noi.pop("delta", None), "noise", "delta",
                         minimum=0.0, maximum=1.0, allow_none=True),
        "durations": _number_list(noi.pop("durations", None),
                                  "noise", "durations", minimum=0.0,
                                  allow_none=True),
    }
    if not isinstance(noise["constant_rate"], bool):
        raise ConfigError("noise.constant_rate must be a boolean")
    _reject_unknown(noi, "noise")

    bel = _section(raw, "bell")
    bell = {
        "theta_a": _number(bel.pop("theta_a", 0.0), "bell", "theta_a"),
        "theta_a_prime": _number(bel.pop("theta_a_prime", pi / 2),
                                 "bell", "theta_a_prime"),
        "theta_b": _number(bel.pop("theta_b", -pi / 4), "bell", "theta_b"),
        "theta_b_prime": _number(bel.pop("theta_b_prime", pi / 4),
                                 "bell", "theta_b_prime"),
        "shots": _number(bel.pop("shots", 4096), "bell", "shots",
                         minimum=1, integer=True),
        "mode": bel.pop("mode", "exact"),
        "deltas": _number_list(bel.pop("deltas", list(DEFAULT_DELTAS)),
                               "bell", "deltas", minimum=0.0, maximum=1.0),
    }
    if bell["mode"] not in CHSH_METHODS:
        raise ConfigError(
            f"bell.mode must be one of {', '.join(CHSH_METHODS)}, "
            f"got {bell['mode']!r}")
    _reject_unknown(bel, "bell")

    gat = _section(raw, "gates")
    gates = {
        "ve_variant": gat.pop("ve_variant", "ideal"),
        "ev_variant": gat.pop("ev_variant", "ideal"),
    }
    if gates["ve_variant"] not in VE_VARIANTS:
        raise ConfigError(f"gates.ve_variant must be one of {VE_VARIANTS}")
    if gates["ev_variant"] not in EV_VARIANTS:
        raise ConfigError(f"gates.ev_variant must be one of {EV_VARIANTS}")
    _reject_unknown(gat, "gates")

    out = _section(raw, "output")
    output = {
        "path": out.pop("path", protocol),
        "format": out.pop("format", "csv"),
    }
    if not isinstance(output["path"], str) or not output["path"]:
        raise ConfigError("output.path must be a nonempty string")
    if output["format"] not in ("csv", "json"):
        raise ConfigError(
            f"output.format must be csv or json, got {output['format']!r}")
    _reject_unknown(out, "output")

    seed = _number(raw.pop("seed", 0), "config", "seed",
                   minimum=0, maximum=2 ** 64 - 1, integer=True)
    if raw:
        raise ConfigError(f"unknown field {sorted(raw)[0]}")

    return {"protocol": protocol, "encoding": encoding, "noise": noise,
            "bell": bell, "gates": gates, "seed": seed, "output": output}


def _encoding_params(cfg: dict) -> EncodingParams:
    e = cfg["encoding"]
    try:
        params = EncodingParams.for_amplitudes(
            e["alpha"], e["beta"], e["cutoff"], e["leak_tol"])
        if e["epsilon"] is not None:
            params = dataclasses.replace(params, epsilon=e["epsilon"])
    except ValueError as err:
        raise ConfigError(f"encoding: {err}") from err
    return params


def _heating_params(cfg: dict, duration: float | None = None) -> HeatingParams:
    n = cfg["noise"]
    try:
        return HeatingParams(
            n["gamma"],
            n["duration"] if duration is None else duration,
            n["steps"],
            n["constant_rate"],
        )
    except ValueError as err:
        raise ConfigError(f"noise: {err}") from err


def _bell_angles(cfg: dict) -> BellAngles:
    b = cfg["bell"]
    return BellAngles(b["theta_a"], b["theta_a_prime"],
                      b["theta_b"], b["theta_b_prime"])


# ------------------------------------------------------------- protocols ---

def run_prepare(cfg: dict) -> tuple[list[dict], dict, str]:
    enc = _encoding_params(cfg)
    prepared = prepare_entangled(enc)
    target = entangled_target(enc)
    results = {
        "preparation_fidelity": state_fidelity(prepared, target),
        "factorization_agreement": state_fidelity(
            entangled_target_cat_form(enc, "a"),
            entangled_target_cat_form(enc, "b")),
        "prepared_norm": prepared.norm,
    }
    rows = [{"quantity": k, "value": v} for k, v in results.items()]
    return rows, results, "exact"


def run_rotate(cfg: dict) -> tuple[list[dict], dict, str]:
    enc = _encoding_params(cfg)
    rows = []
    for eps in cfg["encoding"]["epsilons"]:
        theta = 2.0 * enc.alpha * eps
        r = rotation_fidelity(theta, enc, "a")
        rows.append({"epsilon": r.epsilon, "theta": r.theta,
                     "f_zero": r.f_zero_branch, "f_one": r.f_one_branch,
                     "analytic": r.analytic})
    worst = max(abs(r["f_zero"] - r["analytic"]) for r in rows)
    return rows, {"max_law_deviation": worst}, "exact"


def run_swap_report(cfg: dict) -> tuple[list[dict], dict, str]:
    enc = _encoding_params(cfg)
    reports = [
        report_u_ve("ideal", "a", enc),
        report_u_ve("literal", "a", enc),
        report_u_ev("a", enc),
        report_u_swap("a", enc, "ideal", "ideal"),
        report_u_swap("a", enc, "ideal", "displacement"),
    ]
    rows = []
    for rep in reports:
        for row in rep.rows:
            rows.append({"gate": rep.gate,
                         "input": row.input_label.replace(",", "|"),
                         "target": row.target_label.replace(",", "|"),
                         "fidelity": row.fidelity,
                         "unitarity": rep.unitarity})
    results = {rep.gate + ".min_fidelity": rep.min_fidelity for rep in reports}
    return rows, results, "exact"


def run_heat_sweep(cfg: dict) -> tuple[list[dict], dict, str]:
    enc = _encoding_params(cfg)
    durations = cfg["noise"]["durations"] or [cfg["noise"]["duration"]]
    rho0 = cat(enc.alpha, EVEN, enc.mode_a).to_density()
    rows = []
    for duration in durations:
        res = evolve_lindblad(rho0, _heating_params(cfg, duration))
        rows.append({
            "duration": duration,
            "n_mean": float(res.n_trace[-1]),
            "re_a": float(res.a_trace[-1].real),
            "im_a": float(res.a_trace[-1].imag),
            "parity": float(res.parity_trace[-1]),
            "delta": delta_of(cfg["noise"]["gamma"], enc.alpha, duration),
            "flip_probability": parity_flip_probability(
                cfg["noise"]["gamma"], enc.alpha, duration),
            "trace_drift": res.trace_drift,
        })
    results = {"final_n_mean": rows[-1]["n_mean"],
               "final_parity": rows[-1]["parity"]}
    return rows, results, "exact"


def run_bell_scan(cfg: dict) -> tuple[list[dict], dict, str]:
    angles = _bell_angles(cfg)
    deltas = cfg["bell"]["deltas"]
    mode = cfg["bell"]["mode"]
    results: dict = {}
    rows = []
    if mode == "exact":
        scan = violation_scan(deltas, angles)
        rows = [{"delta": float(d), "B": float(b)}
                for d, b in zip(scan.deltas, scan.b_values)]
        results["crossing"] = scan.crossing
    else:
        for i, d in enumerate(deltas):
            out = chsh(mixed_bell(d), angles, mode,
                       cfg["bell"]["shots"], [cfg["seed"], i])
            row = {"delta": d, "B": out.b_value}
            if mode == "sampled":
                row["std_error"] = out.std_error
            rows.append(row)
    results["b_at_first_delta"] = rows[0]["B"]
    return rows, results, "sampled" if mode == "sampled" else "exact"


# a delta sweep at one encoding hits one key; an entry is two floats, mode
# a's code basis and the two (d, 2, 2) factors, about 12 d complex numbers
@functools.lru_cache(maxsize=16)
def _hadamard_stage(enc: EncodingParams
                    ) -> tuple[float, float, LogicalBasis, np.ndarray, np.ndarray]:
    """The gate-free stages of run_pipeline, which depend on enc only: the
    preparation and Hadamard fidelities, mode a's code basis and the left
    and right factors after the Hadamard.  The arrays are read-only."""
    psi = prepare_entangled_schmidt(enc)  # held to the register's size cap
    prep = schmidt_fidelity(psi, entangled_target_schmidt(enc))
    code_a = logical_basis("a", enc)
    psi = SchmidtState(psi.layout, code_a.rotate(hadamard_matrix(), psi.left),
                       psi.right)
    had = schmidt_fidelity(psi, bell_target_schmidt("phi_plus", enc))
    for array in (psi.left, psi.right, code_a.zero.amps, code_a.one.amps,
                  code_a.dft_zero.amps, code_a.dft_one.amps):
        array.flags.writeable = False
    return prep, had, code_a, psi.left, psi.right


def _pipeline_state(enc: EncodingParams, delta: float, ve_variant: str,
                    ev_variant: str) -> tuple[dict, DensityMatrix]:
    """The coherent stages of run_pipeline: stage fidelities and the
    electronic pair after both exchanges."""
    prep, had, code_a, left, right = _hadamard_stage(enc)
    # a hit skips the stages' size checks; the cap may have been lowered
    layout = full_layout(enc)
    results = {"preparation_fidelity": prep, "hadamard_fidelity": had}

    lefts = [(1.0 - delta, left)]
    if delta > 0.0:
        lefts.append((delta, code_a.rotate(SIGMA_X, left)))
    swap_a = u_swap("a", enc, ve_variant, ev_variant)
    same_modes = (enc.mode_a, enc.alpha) == (enc.mode_b, enc.beta)
    swap_b = swap_a if same_modes else u_swap("b", enc, ve_variant, ev_variant)
    right = swap_b.apply(right, 0, 1)
    rho = np.zeros((4, 4), dtype=np.complex128)
    for weight, left in lefts:
        out = SchmidtState(layout, swap_a.apply(left, 0, 1), right)
        rho += weight * reduced_electronic_schmidt(out).matrix
    return results, DensityMatrix(PAIR, rho)


def run_pipeline(enc: EncodingParams, delta: float, angles: BellAngles,
                 method: str = "exact", shots: int = 4096, seed=0,
                 ve_variant: str = "ideal",
                 ev_variant: str = "ideal") -> dict:
    """Prepare, rotate to the Bell pair, heat, swap twice, measure.

    Heating enters as the single-jump approximation: a parity flip of mode a
    with probability delta, mixed in at the density-matrix level after the
    coherent stages.  ev_variant defaults to ideal, whose B follows
    2 sqrt(2) (1 - delta); gates.u_swap defaults to the physical
    displacement build.  Returns the named scalar results.

    The register is never built.  At chi_t = pi the cross-Kerr phase is
    ((-1)^n_a)^n_b, so the prepared state is exactly two products across
    the cut (mode a, ion 1) | (mode b, ion 2), and every later stage acts on
    one side of that cut, so the state stays a SchmidtState of two terms.
    The Hadamard and the parity flip are rank-2 code-space updates of the
    left factor at O(d); each exchange runs its factors on one (d, 2, 2)
    factor at O(d^2), and mode b's is shared by both heating branches;
    fidelities and the electronic state come from 2 x 2 Gram tables at
    O(d).  Against 4 d^2 amplitudes and d^3 products per stage, an op is
    bound by building the gates (the d x d kick), not by the state.
    The fidelity to mixed_bell(delta) is the closed form of
    bell.mixed_bell_fidelity.

    The stages before the gates (preparation, Hadamard and their
    fidelities) depend only on enc, so they are memoized per process on
    enc, at most 16 keys of two floats, mode a's code basis and the two
    read-only (d, 2, 2) factors each.  The exchanges, the flip branch and
    the readout run on every call, so a delta sweep at one encoding skips
    the bosonic constructors and still pays for its gates.  Warm calls
    give the same bits as cold ones; a cold call, such as one
    `catbell run`, does the work it did without the memo.
    """
    results, electronic = _pipeline_state(enc, delta, ve_variant, ev_variant)
    results["delta"] = delta
    results["electronic_fidelity"] = mixed_bell_fidelity(electronic, delta)
    outcome = chsh(electronic, angles, method, shots, seed)
    for name, value in zip(("e_ab", "e_ab_prime", "e_a_prime_b",
                            "e_a_prime_b_prime"), outcome.correlations):
        results[name] = value
    results["b_value"] = outcome.b_value
    results["b_predicted"] = 2.0 * sqrt(2.0) * (1.0 - delta)
    if outcome.std_error is not None:
        results["b_std_error"] = outcome.std_error
    return results


def run_full_pipeline(cfg: dict) -> tuple[list[dict], dict, str]:
    enc = _encoding_params(cfg)
    n = cfg["noise"]
    delta = n["delta"]
    if delta is None:
        delta = delta_of(n["gamma"], enc.alpha, n["duration"])
        if delta > 1.0:
            raise ConfigError(
                "noise: gamma * alpha^2 * duration exceeds 1; "
                "set noise.delta explicitly")
    results = run_pipeline(enc, delta, _bell_angles(cfg),
                           cfg["bell"]["mode"], cfg["bell"]["shots"],
                           cfg["seed"], cfg["gates"]["ve_variant"],
                           cfg["gates"]["ev_variant"])
    rows = [{"quantity": k, "value": v} for k, v in results.items()]
    mode = cfg["bell"]["mode"]
    return rows, results, "sampled" if mode == "sampled" else "exact"


RUNNERS = {
    "prepare": run_prepare,
    "rotate": run_rotate,
    "swap-report": run_swap_report,
    "heat-sweep": run_heat_sweep,
    "bell-scan": run_bell_scan,
    "full-pipeline": run_full_pipeline,
}


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
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".catbell-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
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
        text = json.dumps(record, indent=2) + "\n"
    _atomic_write(path, text)
    print(f"{cfg['protocol']}: {len(rows)} rows ({provenance}) -> {path}")
    for name, value in results.items():
        if isinstance(value, (int, float)):
            print(f"  {name} = {_format_value(value)}")
    return path


# --------------------------------------------------------------- describe ---

DESCRIPTIONS = {
    "prepare": {
        "stages": [
            "cross-phase entangling step exp(-i pi n_a n_b) on |alpha>|beta>",
            "fidelity against the analytic four-component target",
            "cross-check of the two cat/coherent factorizations",
        ],
        "columns": "quantity,value",
        "notes": "encoding module; exact state-vector arithmetic",
    },
    "rotate": {
        "stages": [
            "displacement kick D(i epsilon) on the even/odd cat pair",
            "branch fidelities against the ideal logical x rotation",
            "comparison with the exp(-epsilon^2) fidelity law",
        ],
        "columns": "epsilon,theta,f_zero,f_one,analytic",
        "notes": "encoding module; rotation angle is 2 alpha epsilon",
    },
    "swap-report": {
        "stages": [
            "truth tables for both vibration-controlled gate builds",
            "truth table for the conditional-displacement gate",
            "three-gate exchange with ideal and displacement rotations",
        ],
        "columns": "gate,input,target,fidelity,unitarity",
        "notes": "gates module; fidelities are phase-blind, unitarity exact",
    },
    "heat-sweep": {
        "stages": [
            "even cat initial state on mode a",
            "balanced heating master equation, fixed-step integrator",
            "occupancy, amplitude, and parity traces per duration",
        ],
        "columns": ("duration,n_mean,re_a,im_a,parity,delta,"
                    "flip_probability,trace_drift"),
        "notes": "noise module master-equation integrator (evolve_lindblad)",
    },
    "bell-scan": {
        "stages": [
            "parity-flip mixture of weight delta per grid point",
            "CHSH combination at the configured angles",
            "interpolated crossing of the classical bound 2",
        ],
        "columns": "delta,B (exact) or delta,B,std_error (sampled)",
        "notes": "bell module; B(0) = 2 sqrt(2) at the default angles",
    },
    "full-pipeline": {
        "stages": [
            "cross-Kerr preparation of the entangled coherent pair",
            "Hadamard on the mode-a cat qubit (Bell pair of cats)",
            "heating as a parity-flip mixture of weight delta",
            "swap mode a <-> ion 1, then swap mode b <-> ion 2 (swap x2)",
            "CHSH readout on the reduced electronic pair",
        ],
        "columns": "quantity,value",
        "notes": ("end to end; B tracks 2 sqrt(2) (1 - delta).  "
                  "gates.ev_variant defaults to ideal here (exact code-space "
                  "rx(pi/2)), which follows that law; the library u_swap "
                  "defaults to displacement, the physical build, whose "
                  "kick D(i eps) costs a further exp(-eps^2).  The register "
                  "is carried as its two Schmidt terms across (mode a, "
                  "ion 1) | (mode b, ion 2); electronic_fidelity is the "
                  "closed-form fidelity to the delta mixture"),
    },
}


def describe(protocol: str) -> str:
    if protocol not in DESCRIPTIONS:
        raise ConfigError(
            f"unknown protocol {protocol!r}; choose from {', '.join(PROTOCOLS)}")
    info = DESCRIPTIONS[protocol]
    lines = [f"protocol: {protocol}", "stages:"]
    lines += [f"  - {stage}" for stage in info["stages"]]
    lines.append(f"columns: {info['columns']}")
    lines.append(f"notes: {info['notes']}")
    return "\n".join(lines)


# ------------------------------------------------------------------- main ---

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args keeps no
    state between calls."""
    parser = argparse.ArgumentParser(
        prog="catbell",
        description="cat-state Bell-test simulator batch runner")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a protocol from a JSON config")
    run_p.add_argument("config", help="path to the config file")
    run_p.add_argument("--output", metavar="DIR", default=None,
                       help="directory for the output file")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")

    desc_p = sub.add_parser("describe", help="show a protocol's stages")
    desc_p.add_argument("protocol", help="protocol name")

    sub.add_parser("version", help="print the package version")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "version":
            print(f"catbell {__version__}")
            return 0
        if args.command == "describe":
            print(describe(args.protocol))
            return 0
        try:
            with open(args.config, encoding="utf-8") as handle:
                raw = json.load(handle)
        except OSError as err:
            raise ConfigError(f"cannot read config: {err}") from err
        except json.JSONDecodeError as err:
            raise ConfigError(f"config is not valid JSON: {err}") from err
        cfg = normalize_config(raw)
        if args.seed is not None:
            cfg["seed"] = _number(args.seed, "config", "seed",
                                  minimum=0, maximum=2 ** 64 - 1, integer=True)
        execute(cfg, args.output)
        return 0
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
