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
the modules it calls at its entry.  heat-sweep runs in params alone,
prepare and rotate in catbell.coherent, swap-report in gates over it,
bell-scan in bell and full-pipeline in bell and coherent, all in Python
floats; a sampled readout adds catbell.sampler, which draws on the standard
library's Mersenne Twister, so no run loads numpy.  No run loads
dataclasses or inspect: the settings that key the memos
(params.EncodingParams, bell.BellAngles) are NamedTuples, and an explicit
epsilon is passed to EncodingParams.for_amplitudes, which runs every check
of the class.  Every stage has one implementation: prepare and
full-pipeline share coherent.preparation, and swap-report's gates are
full-pipeline's maps.
"""

from __future__ import annotations

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
    from .bell import BellAngles


def _encoding_params(cfg: dict) -> EncodingParams:
    e = cfg["encoding"]
    try:
        return EncodingParams.for_amplitudes(
            e["alpha"], e["beta"], e["cutoff"], e["leak_tol"], e["epsilon"])
    except ValueError as err:
        raise ConfigError(f"encoding: {err}") from err


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
    notes: coherent module, in closed form: the pair's two Schmidt terms
    as sums of coherent states (coherent.preparation, the one that
    full-pipeline runs), each number from their Gram tables.  No Fock
    cutoff: encoding.cutoff and leak_tol are accepted and checked but
    change no number, and no size cap applies
    """
    from .coherent import cat_form, preparation, register_fidelity, register_inner
    mode_a, mode_b, prepared, target = preparation(_encoding_params(cfg))
    results = {
        "preparation_fidelity": register_fidelity(mode_a, mode_b, prepared, target),
        "factorization_agreement": register_fidelity(
            mode_a, mode_b, cat_form(mode_a, mode_b, "a"),
            cat_form(mode_a, mode_b, "b")),
        "prepared_norm": sqrt(max(
            register_inner(mode_a, mode_b, prepared, prepared).real, 0.0)),
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
    notes: coherent module, in closed form; rotation angle is 2 alpha
    epsilon, and epsilon is the configured kick itself.  No Fock cutoff:
    encoding.cutoff and leak_tol change no number, and no size cap applies
    """
    from .coherent import rotation_fidelity
    enc = _encoding_params(cfg)
    rows = []
    for i, eps in enumerate(cfg["encoding"]["epsilons"]):
        try:
            rows.append(rotation_fidelity(eps, enc, "a"))
        except ValueError:  # the angle 2 alpha epsilon overflows
            raise ConfigError(f"encoding.epsilons[{i}] = {eps!r} makes the "
                              "angle 2 alpha epsilon overflow") from None
    worst = max(abs(r["f_zero"] - r["analytic"]) for r in rows)
    return rows, {"max_law_deviation": worst}, "exact"


def run_swap_report(cfg: dict) -> tuple[list[dict], dict, str]:
    """Truth tables of the gates of the mode-to-ion exchange.

    stages:
      - truth tables for both vibration-controlled gate builds
      - truth table for the conditional-displacement gate
      - three-gate exchange with ideal and displacement rotations
    columns: gate,input,target,fidelity,unitarity
    notes: gates module, in closed form: each gate runs the coherent
    module's maps, those of full-pipeline, on the four inputs |C+->|i>.
    Fidelities are phase-blind; unitarity is the isometry residual on those
    inputs, max |<S x_i|S x_j> - <x_i|x_j>|.  No Fock cutoff:
    encoding.cutoff and leak_tol are accepted and checked but change no
    number, and no size cap applies
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
    mixture is read from its tensor (1 - delta) T(phi+) + delta T(psi+)
    (bell.mixed_tensor); no cutoff, leak_tol or size cap is read.  The
    crossing is reported for the exact readout only; grid point i of the
    sampled readout draws from the seed [seed, i]
    """
    from .bell import PHI_PLUS_T, PSI_PLUS_T, crossing, mixed_tensor, tensor_chsh
    angles = _bell_angles(cfg)
    b = cfg["bell"]
    rows = []
    for i, delta in enumerate(b["deltas"]):
        out = tensor_chsh(mixed_tensor(PHI_PLUS_T, PSI_PLUS_T, delta), angles,
                          b["mode"], b["shots"], [cfg["seed"], i])
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
# floats and, per branch, a 4 x 4 tuple of floats: 272 bytes of numbers,
# about 1.6 KB with their Python headers
@functools.lru_cache(maxsize=64)
def _coherent_stages(enc: EncodingParams, ve_variant: str, ev_variant: str
                     ) -> tuple[float, float, tuple, tuple]:
    """The stages of run_pipeline that do not depend on delta: the
    preparation and Hadamard fidelities, and the correlation tensor T of
    the electronic pair after both exchanges of the Hadamard-stage state
    (keep) and of the same state with mode a parity-flipped (flip), each a
    read-only 4 x 4 nested tuple of Python floats (coherent.stages)."""
    from .coherent import stages
    return stages(enc, ve_variant, ev_variant)


def run_pipeline(enc: EncodingParams, delta: float, angles: BellAngles,
                 method: str = "exact", shots: int = 4096, seed=0,
                 ve_variant: str = "ideal",
                 ev_variant: str = "ideal") -> dict:
    """Prepare, rotate to the Bell pair, heat, swap twice, measure.

    Heating enters as the single-jump approximation: a parity flip of mode a
    with probability delta, mixed in at the density-matrix level after the
    coherent stages.  ev_variant defaults to ideal, whose B follows
    2 sqrt(2) (1 - delta).  Returns the named scalar results.

    The register is never built, and no Fock space either.  At chi_t = pi
    the cross-Kerr phase is ((-1)^n_a)^n_b, so the prepared state is
    exactly two products across the cut (mode a, ion 1) | (mode b, ion 2),
    and every later stage acts on one side of that cut.  Each side's
    factor is a short sum of parity components of the coherent states
    |+-alpha> and |+-alpha +- i eps> with its ion's state, and each stage is
    an exact map on those sums (catbell.coherent): the Hadamard and the
    parity flip are rank-2 updates of the cat code, the exchanges index the
    odd components and kick by D(i eps) |g> = e^{i eps Re g} |g + i eps>
    (or by the code-space rx(pi/2)), and fidelities and the electronic
    state come from Gram tables of closed-form overlaps.  So the result
    has no truncation error, does not depend on encoding.cutoff or
    leak_tol, and holds no size cap: the work is the same at any alpha.

    Everything before the mixture depends only on (enc, ve_variant,
    ev_variant), so it is memoized per process on that key: at most 64
    keys of two floats and each branch's correlation tensor T, kept and
    flipped, as 4 x 4 tuples of floats.  Both readouts and the fidelity are
    linear in the electronic pair rho up to their last scalar step, so the
    mixture is never formed as a matrix: a call mixes the branches' tensors
    with weights (1 - delta, delta) (bell.mixed_tensor), and reads from the
    mixed T both B (bell.tensor_chsh, which also holds T_00, the trace, to
    1) and the fidelity to the delta mixture (bell.block_fidelity).  An
    exact call loads no numpy.
    A warm call builds no state.  Warm calls give the same bits as cold
    ones; a cold call, such as one `catbell run`, also runs the flip branch
    at delta = 0.
    """
    from .bell import block_fidelity, mixed_tensor, tensor_chsh
    prep, had, t_keep, t_flip = _coherent_stages(enc, ve_variant, ev_variant)
    t = mixed_tensor(t_keep, t_flip, delta)
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
    (mode a, ion 1) | (mode b, ion 2), each a short sum of coherent states,
    with no Fock cutoff: encoding.cutoff and leak_tol are accepted and
    checked but change no number, and no size cap applies, at any alpha.
    electronic_fidelity is the closed-form fidelity to the delta mixture.
    A null noise.delta is the single-jump scale gamma alpha^2 duration, a
    ConfigError above 1 or where gamma alpha^2 overflows at duration 0;
    the exact channel flips the even cat's parity with probability about
    gamma (2 nbar + 1) duration at small gamma duration, nbar the cat's
    <n>, which is more than twice that scale
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
