"""The protocols as library functions.

Each runner takes a normalized config (cli.normalize_config) and returns
its rows, its named results and the provenance of the numbers ("exact" or
"sampled").  run_pipeline is the paper's chain of stages: cross-Kerr
preparation, Hadamard, heating, the two mode-ion exchanges and the CHSH
readout.  Nothing here reads files or writes output.
"""

from __future__ import annotations

import dataclasses
import functools
from math import isfinite, sqrt

import numpy as np

from .bell import (
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
    SchmidtState,
    bell_target_schmidt,
    entangled_target_cat_form,
    entangled_target_schmidt,
    full_layout,
    hadamard_matrix,
    logical_basis,
    prepare_entangled_schmidt,
    rotation_fidelity,
    schmidt_fidelity,
)
from .errors import ConfigError
from .gates import SIGMA_X, report_u_ev, report_u_swap, report_u_ve, u_swap
from .hilbert import DensityMatrix, SpaceLayout
from .noise import (
    TraceCoefficients,
    delta_of,
    evaluate_traces,
    parity_flip_probability,
    record_steps,
    trace_coefficients,
)


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


def _bell_angles(cfg: dict) -> BellAngles:
    b = cfg["bell"]
    return BellAngles(b["theta_a"], b["theta_a_prime"],
                      b["theta_b"], b["theta_b_prime"])


# ------------------------------------------------------------- protocols ---

def run_prepare(cfg: dict) -> tuple[list[dict], dict, str]:
    enc = _encoding_params(cfg)
    prepared = prepare_entangled_schmidt(enc)
    results = {
        "preparation_fidelity": schmidt_fidelity(
            prepared, entangled_target_schmidt(enc)),
        "factorization_agreement": schmidt_fidelity(
            entangled_target_cat_form(enc, "a"),
            entangled_target_cat_form(enc, "b")),
        "prepared_norm": prepared.norm,
    }
    rows = [{"quantity": k, "value": v} for k, v in results.items()]
    return rows, results, "exact"


def run_rotate(cfg: dict) -> tuple[list[dict], dict, str]:
    enc = _encoding_params(cfg)
    rows = []
    for i, eps in enumerate(cfg["encoding"]["epsilons"]):
        theta = 2.0 * enc.alpha * eps
        if not isfinite(theta):
            raise ConfigError(f"encoding.epsilons[{i}] = {eps!r} makes the "
                              "angle 2 alpha epsilon overflow")
        try:
            r = rotation_fidelity(theta, enc, "a")
        except OverflowError as err:  # only the kick's phases can overflow
            raise ConfigError(f"encoding.epsilons[{i}] = {eps!r}: {err}") from None
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


# a heat-sweep at one encoding hits one key; an entry holds c0 and c1,
# 40 d bytes (w0 and w1 are noise._diagonal_block's arrays, not copies): at
# most 64 * 40 * 128 B = 330 KB at d <= 128
@functools.lru_cache(maxsize=64)
def _heat_coefficients(enc: EncodingParams) -> TraceCoefficients:
    """The trace coefficients of the even cat on mode a, whose arrays are
    read-only (noise.trace_coefficients)."""
    return trace_coefficients(cat(enc.alpha, EVEN, enc.mode_a).to_density())


def run_heat_sweep(cfg: dict) -> tuple[list[dict], dict, str]:
    enc = _encoding_params(cfg)
    gamma = cfg["noise"]["gamma"]
    durations = cfg["noise"]["durations"] or [cfg["noise"]["duration"]]
    coeffs = _heat_coefficients(enc)
    # a hit skips the cat's size check; the cap may have been lowered
    SpaceLayout((enc.mode_a.cutoff,))
    record_steps(cfg["noise"]["steps"])  # noise.steps is held to its limit
    rows = []
    for duration in durations:
        # a row is the grid's last point, which does not depend on the grid
        res = evaluate_traces(coeffs, gamma,
                              np.array([duration], dtype=np.float64))
        rows.append({
            "duration": duration,
            "n_mean": float(res.n_trace[0]),
            "re_a": float(res.a_trace[0].real),
            "im_a": float(res.a_trace[0].imag),
            "parity": float(res.parity_trace[0]),
            "delta": delta_of(gamma, enc.alpha, duration),
            "flip_probability": parity_flip_probability(
                gamma, enc.alpha, duration),
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


# a delta sweep at one encoding and build hits one key; an entry is two
# floats and two 4 x 4 complex matrices, about 1.2 KB with their headers
@functools.lru_cache(maxsize=64)
def _coherent_stages(enc: EncodingParams, ve_variant: str, ev_variant: str
                     ) -> tuple[float, float, np.ndarray, np.ndarray]:
    """The stages of run_pipeline that do not depend on delta: the
    preparation and Hadamard fidelities, and the electronic pair after both
    exchanges of the Hadamard-stage state (rho_keep) and of the same state
    with mode a parity-flipped (rho_flip).  The matrices are read-only."""
    psi = prepare_entangled_schmidt(enc)  # held to the register's size cap
    prep = schmidt_fidelity(psi, entangled_target_schmidt(enc))
    code_a = logical_basis("a", enc)
    left = code_a.rotate(hadamard_matrix(), psi.left)
    psi = SchmidtState(psi.layout, left, psi.right)
    had = schmidt_fidelity(psi, bell_target_schmidt("phi_plus", enc))

    swap_a = u_swap("a", enc, ve_variant, ev_variant)
    same_modes = (enc.mode_a, enc.alpha) == (enc.mode_b, enc.beta)
    swap_b = swap_a if same_modes else u_swap("b", enc, ve_variant, ev_variant)
    right = swap_b.apply(psi.right, 0, 1)
    rhos = []
    for branch in (left, code_a.rotate(SIGMA_X, left)):
        out = SchmidtState(psi.layout, swap_a.apply(branch, 0, 1), right)
        rho = reduced_electronic_schmidt(out).matrix
        rho.flags.writeable = False
        rhos.append(rho)
    return prep, had, rhos[0], rhos[1]


def _pipeline_state(enc: EncodingParams, delta: float, ve_variant: str,
                    ev_variant: str) -> tuple[dict, DensityMatrix]:
    """The stage fidelities and the electronic pair of run_pipeline: the
    memoized coherent stages, mixed with the parity flip of weight delta."""
    prep, had, rho_keep, rho_flip = _coherent_stages(enc, ve_variant,
                                                     ev_variant)
    # a hit skips the stages' size checks; the cap may have been lowered
    full_layout(enc)
    rho = np.zeros((4, 4), dtype=np.complex128)
    rho += (1.0 - delta) * rho_keep
    if delta > 0.0:
        rho += delta * rho_flip
    results = {"preparation_fidelity": prep, "hadamard_fidelity": had}
    return results, DensityMatrix(SpaceLayout((2, 2)), rho)


def run_pipeline(enc: EncodingParams, delta: float, angles: BellAngles,
                 method: str = "exact", shots: int = 4096, seed=0,
                 ve_variant: str = "ideal",
                 ev_variant: str = "ideal") -> dict:
    """Prepare, rotate to the Bell pair, heat, swap twice, measure.

    Heating enters as the single-jump approximation: a parity flip of mode a
    with probability delta, mixed in at the density-matrix level after the
    coherent stages.  ev_variant defaults to ideal, whose B follows
    2 sqrt(2) (1 - delta).  Returns the named scalar results.

    The register is never built.  At chi_t = pi the cross-Kerr phase is
    ((-1)^n_a)^n_b, so the prepared state is exactly two products across
    the cut (mode a, ion 1) | (mode b, ion 2), and every later stage acts on
    one side of that cut, so the state stays a SchmidtState of two terms.
    The Hadamard and the parity flip are rank-2 code-space updates of the
    left factor at O(d); each exchange runs its factors on one (d, 2, 2)
    factor, its kick an action on the two ion-|1> columns at O(d^2)
    (D(i eps) in the cached eigenbasis) or O(d) (the code-space rx(pi/2)),
    and mode b's is shared by both heating branches; fidelities and the
    electronic state come from 2 x 2 Gram tables at O(d).  No d x d
    matrix is formed.  The fidelity to mixed_bell(delta) is the closed form
    of bell.mixed_bell_fidelity.  The exact and sampled readouts read all
    four settings from the one 4 x 4 Pauli correlation tensor of the
    electronic pair (bell.correlation_tensor).

    Everything before the mixture depends only on (enc, ve_variant,
    ev_variant), so it is memoized per process on that key: at most 64
    keys of two floats and the two read-only 4 x 4 electronic pairs, kept
    and flipped.  A warm call mixes the two pairs with weight delta and
    reads out; it builds no state and no gate.  Warm calls give the same
    bits as cold ones; a cold call, such as one `catbell run`, also runs
    the flip branch at delta = 0.
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
