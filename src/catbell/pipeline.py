"""The protocols as library functions.

Each runner takes a normalized config (cli.normalize_config) and returns
its rows, its named results and the provenance of the numbers ("exact" or
"sampled").  run_pipeline is the paper's chain of stages: cross-Kerr
preparation, Hadamard, heating, the two mode-ion exchanges and the CHSH
readout.  Nothing here reads files or writes output.  A runner's docstring
is its protocol's contract, as `catbell describe` prints it: a summary, the
stages, the CSV columns and notes.

A one-shot `catbell run` pays for its protocol's modules only: this module
loads params and errors, which import no numpy, and each runner imports
the array modules (encoding, bosonic, hilbert, bell, gates) at its entry
when it calls them.  heat-sweep runs in params alone, in Python floats.
"""

from __future__ import annotations

import dataclasses
import functools
from array import array
from math import sqrt
from typing import TYPE_CHECKING

from .errors import ConfigError
from .params import (
    EncodingParams,
    check_dim,
    even_cat_populations,
    heated_moments,
)

if TYPE_CHECKING:
    import numpy as np

    from .bell import BellAngles


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
    from .bell import BellAngles
    b = cfg["bell"]
    return BellAngles(b["theta_a"], b["theta_a_prime"],
                      b["theta_b"], b["theta_b_prime"])


# ------------------------------------------------------------- protocols ---

def run_prepare(cfg: dict) -> tuple[list[dict], dict, str]:
    """The cross-Kerr pair: the entangled coherent state and its fidelity.

    stages:
      - cross-phase entangling step exp(-i pi n_a n_b) on |alpha>|beta>
      - fidelity against the analytic four-component target
      - cross-check of the two cat/coherent factorizations
    columns: quantity,value
    notes: encoding module; the pair's two Schmidt terms, no register
    """
    from .encoding import (
        entangled_target_cat_form,
        entangled_target_schmidt,
        prepare_entangled_schmidt,
        schmidt_fidelity,
    )
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
    """The cat-qubit rotation by a displacement kick, per epsilon.

    stages:
      - displacement kick D(i epsilon) on the even/odd cat pair
      - branch fidelities against the ideal logical x rotation
      - comparison with the exp(-epsilon^2) fidelity law
    columns: epsilon,theta,f_zero,f_one,analytic
    notes: encoding module; rotation angle is 2 alpha epsilon, and epsilon
    is the configured kick itself
    """
    from .encoding import rotation_fidelity
    enc = _encoding_params(cfg)
    rows = []
    for i, eps in enumerate(cfg["encoding"]["epsilons"]):
        try:
            rows.append(rotation_fidelity(eps, enc, "a"))
        except ValueError:  # the angle 2 alpha epsilon overflows
            raise ConfigError(f"encoding.epsilons[{i}] = {eps!r} makes the "
                              "angle 2 alpha epsilon overflow") from None
        except OverflowError as err:  # only the kick's phases can overflow
            raise ConfigError(f"encoding.epsilons[{i}] = {eps!r}: {err}") from None
    worst = max(abs(r["f_zero"] - r["analytic"]) for r in rows)
    return rows, {"max_law_deviation": worst}, "exact"


def run_swap_report(cfg: dict) -> tuple[list[dict], dict, str]:
    """Truth tables of the gates of the mode-to-ion exchange.

    stages:
      - truth tables for both vibration-controlled gate builds
      - truth table for the conditional-displacement gate
      - three-gate exchange with ideal and displacement rotations
    columns: gate,input,target,fidelity,unitarity
    notes: gates module; each row runs the step that full-pipeline runs on
    the pair basis; fidelities are phase-blind, unitarity exact
    """
    from .gates import report_u_ev, report_u_swap, report_u_ve
    enc = _encoding_params(cfg)
    reports = [report_u_ve("ideal", "a", enc), report_u_ve("literal", "a", enc),
               report_u_ev("a", enc), report_u_swap("a", enc, "ideal", "ideal"),
               report_u_swap("a", enc, "ideal", "displacement")]
    rows = [row for report in reports for row in report]
    results = {report[0]["gate"] + ".min_fidelity":
               min(row["fidelity"] for row in report) for report in reports}
    return rows, results, "exact"


# a heat-sweep at one encoding hits one key; an entry is the cat's d
# populations as doubles, 8 d bytes: at most 64 * 1024 B = 64 KB at d <= 128
@functools.lru_cache(maxsize=64)
def _cat_populations(enc: EncodingParams) -> memoryview:
    """The populations |c_k|^2 of the even cat on mode a
    (params.even_cat_populations), as a read-only memoryview of doubles."""
    populations = array("d", even_cat_populations(enc.alpha, enc.mode_a))
    return memoryview(populations).toreadonly()


def run_heat_sweep(cfg: dict) -> tuple[list[dict], dict, str]:
    """Heating of the even cat on mode a, one row per duration.

    stages:
      - even cat initial state on mode a, as its populations
      - balanced heating as a Gaussian displacement of variance gamma t:
        <n> grows by gamma t, parity is sum p_k x^k / (1 + 2 gamma t),
        x = (2 gamma t - 1) / (2 gamma t + 1)
      - occupancy, amplitude, and parity per duration
    columns: duration,n_mean,re_a,im_a,parity,flip_probability,trace_drift
    notes: params module, in Python floats with no numpy: the channel's
    exact law (heated_moments) on the prepared cat's populations, memoized
    per encoding; rows depend on encoding.cutoff and leak_tol only through
    the prepared cat.  re_a and im_a are the conserved <a> of that cat,
    an exact 0: every term of <a> holds one odd level, whose amplitude is
    an exact zero.  flip_probability is (1 - parity) / 2; trace_drift is
    the exact 0 the channel gives, kept because the benchmark's heating
    check reads it.  noise.steps changes no row
    """
    enc = _encoding_params(cfg)
    gamma = cfg["noise"]["gamma"]
    durations = cfg["noise"]["durations"] or [cfg["noise"]["duration"]]
    populations = _cat_populations(enc)
    # a hit skips the cat's size check; the cap may have been lowered
    check_dim(enc.mode_a.cutoff)
    rows = []
    for duration in durations:
        n_mean, parity = heated_moments(populations, gamma * duration)
        rows.append({
            "duration": duration,
            "n_mean": n_mean,
            "re_a": 0.0,  # the even cat's <a>, which the channel conserves
            "im_a": 0.0,
            "parity": parity,
            "flip_probability": (1.0 - parity) / 2.0,
            "trace_drift": 0.0,  # the channel keeps the trace exactly
        })
    results = {"final_n_mean": rows[-1]["n_mean"],
               "final_parity": rows[-1]["parity"]}
    return rows, results, "exact"


def run_bell_scan(cfg: dict) -> tuple[list[dict], dict, str]:
    """CHSH value of the parity-flip mixture over a grid of delta.

    stages:
      - parity-flip mixture of weight delta per grid point
      - CHSH combination at the configured angles
      - interpolated crossing of the classical bound 2
    columns: delta,B (exact) or delta,B,std_error (sampled)
    notes: bell module; B(0) = 2 sqrt(2) at the default angles.  The
    crossing is reported for the exact readout only; grid point i of the
    sampled readout draws from the seed [seed, i]
    """
    from .bell import chsh, crossing, mixed_bell
    angles = _bell_angles(cfg)
    b = cfg["bell"]
    rows = []
    for i, delta in enumerate(b["deltas"]):
        out = chsh(mixed_bell(delta), angles, b["mode"], b["shots"],
                   [cfg["seed"], i])
        row = {"delta": delta, "B": out.b_value}
        if out.std_error is not None:
            row["std_error"] = out.std_error
        rows.append(row)
    results: dict = {}
    if b["mode"] == "exact":
        results["crossing"] = crossing(b["deltas"], [r["B"] for r in rows])
    results["b_at_first_delta"] = rows[0]["B"]
    return rows, results, b["mode"]


# a delta sweep at one encoding and build hits one key; an entry is two
# floats and, per branch, a real 4 x 4 tensor: 272 bytes of numbers, about
# 0.6 KB with their Python headers
@functools.lru_cache(maxsize=64)
def _coherent_stages(enc: EncodingParams, ve_variant: str, ev_variant: str
                     ) -> tuple[float, float, np.ndarray, np.ndarray]:
    """The stages of run_pipeline that do not depend on delta: the
    preparation and Hadamard fidelities, and the correlation tensor
    (bell.correlation_tensor) of the electronic pair after both exchanges
    of the Hadamard-stage state (keep) and of the same state with mode a
    parity-flipped (flip); the tensors are read-only."""
    from .bell import correlation_tensor, reduced_electronic_schmidt
    from .encoding import (
        SchmidtState,
        bell_target_schmidt,
        entangled_target_schmidt,
        hadamard_matrix,
        logical_basis,
        prepare_entangled_schmidt,
        schmidt_fidelity,
    )
    from .gates import u_swap
    from .hilbert import SIGMA_X
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
    branches = []
    for branch in (left, code_a.rotate(SIGMA_X, left)):
        out = SchmidtState(psi.layout, swap_a.apply(branch, 0, 1), right)
        # the copy owns its 128 B; T itself views a complex einsum output
        t = correlation_tensor(reduced_electronic_schmidt(out)).copy()
        t.flags.writeable = False
        branches.append(t)
    return prep, had, branches[0], branches[1]


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
    matrix is formed.

    Everything before the mixture depends only on (enc, ve_variant,
    ev_variant), so it is memoized per process on that key: at most 64
    keys of two floats and each branch's correlation tensor T, kept and
    flipped.  Both readouts and the fidelity are linear in the electronic
    pair rho up to their last scalar step, so the mixture is never formed
    as a matrix: a call mixes the branches' tensors with weights
    (1 - delta, delta) and reads from the mixed T both B (bell.tensor_chsh,
    which also holds T_00, the trace, to 1) and the fidelity to
    mixed_bell(delta) (bell.block_fidelity).
    A warm call builds no state and no gate.  Warm calls give the same bits
    as cold ones; a cold call, such as one `catbell run`, also runs the
    flip branch at delta = 0.
    """
    from .bell import block_fidelity, tensor_chsh
    prep, had, t_keep, t_flip = _coherent_stages(enc, ve_variant, ev_variant)
    # a hit skips the stages' size checks; the cap may have been lowered
    check_dim(4 * enc.mode_a.cutoff * enc.mode_b.cutoff)
    t = (1.0 - delta) * t_keep + delta * t_flip
    results = {"preparation_fidelity": prep, "hadamard_fidelity": had,
               "delta": delta, "electronic_fidelity": block_fidelity(t, delta)}
    outcome = tensor_chsh(t, angles, method, shots, seed)
    for name, value in zip(("e_ab", "e_ab_prime", "e_a_prime_b",
                            "e_a_prime_b_prime"), outcome.correlations):
        results[name] = value
    results["b_value"] = outcome.b_value
    results["b_predicted"] = 2.0 * sqrt(2.0) * (1.0 - delta)
    if outcome.std_error is not None:
        results["b_std_error"] = outcome.std_error
    return results


def run_full_pipeline(cfg: dict) -> tuple[list[dict], dict, str]:
    """The paper's chain end to end (run_pipeline), at one delta.

    stages:
      - cross-Kerr preparation of the entangled coherent pair
      - Hadamard on the mode-a cat qubit (Bell pair of cats)
      - heating as a parity-flip mixture of weight delta
      - swap mode a <-> ion 1, then swap mode b <-> ion 2 (swap x2)
      - CHSH readout on the reduced electronic pair
    columns: quantity,value
    notes: end to end; B tracks 2 sqrt(2) (1 - delta).  The default
    gates.ev_variant, ideal (exact code-space rx(pi/2)), follows that law;
    the displacement build's kick D(i eps) costs a further exp(-eps^2).
    The register is carried as its two Schmidt terms across
    (mode a, ion 1) | (mode b, ion 2); electronic_fidelity is the
    closed-form fidelity to the delta mixture.  A null noise.delta is the
    single-jump scale gamma alpha^2 duration, a ConfigError above 1 or
    where gamma alpha^2 overflows at duration 0; the exact channel flips
    the even cat's parity with probability about gamma (2 nbar + 1)
    duration at small gamma duration, nbar the cat's <n>, which is more
    than twice that scale
    """
    enc = _encoding_params(cfg)
    n = cfg["noise"]
    delta = n["delta"]
    if delta is None:
        delta = n["gamma"] * abs(enc.alpha) ** 2 * n["duration"]
        if delta != delta:  # inf * 0
            raise ConfigError("noise: gamma * alpha^2 overflows to inf, and inf "
                              "* duration 0 is nan; set noise.delta explicitly")
        if delta > 1.0:
            raise ConfigError(
                "noise: gamma * alpha^2 * duration exceeds 1; "
                "set noise.delta explicitly")
    results = run_pipeline(enc, delta, _bell_angles(cfg),
                           cfg["bell"]["mode"], cfg["bell"]["shots"],
                           cfg["seed"], cfg["gates"]["ve_variant"],
                           cfg["gates"]["ev_variant"])
    rows = [{"quantity": k, "value": v} for k, v in results.items()]
    return rows, results, cfg["bell"]["mode"]
