"""Seeded workloads of the catbell benchmark: inputs, one op, output checks.

An op is one protocol invocation.  `pipeline` and `heating` ops are configs
run in-process through `catbell.cli.main(["run", ...])`; `ensemble` ops are
library calls composed here, mirroring acceptance criterion 06.

Every workload is a stream of cycles.  A cycle is a fixed multiset of op
classes (amplitude, gate variant, readout mode); the seed shuffles the order
inside each cycle and draws every continuous parameter.  A run measures a
fixed number of whole cycles, so each seed yields the same class mix.  The mix is weighted so that
the median and the 90th percentile of the op latencies each fall in the middle
of one class, which keeps the two percentiles from jumping between classes
from seed to seed (see README.md for the ranks).

This module imports only the standard library at import time; the program
is imported by the op functions, so a worker's set-up time holds exactly the
imports an op needs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from math import exp, pi, sqrt

WORKLOADS = ("pipeline", "heating", "ensemble")

# default_cutoff(alpha) = ceil(alpha^2 + 6 alpha + 10), written into every
# config so that a change of the library's truncation policy cannot change
# the work silently
CUTOFF = {2: 26, 3: 37, 4: 50, 6: 82, 8: 122}
LEAK_TOL = 1e-10
SHOTS = 4096
ANGLES = {"theta_a": 0.0, "theta_a_prime": pi / 2,
          "theta_b": -pi / 4, "theta_b_prime": pi / 4}

# (alpha, gates.ev_variant, bell.mode): count per 20-op cycle.  Sorted by
# latency the classes fill these shares of a cycle: alpha 2 0-25 %,
# alpha 4 25-65 % (its displacement/exact block 35-60 % holds p50),
# alpha 6 65-80 %, alpha 8 80-100 % (its displacement/exact block 85-95 %
# holds p90).
PIPELINE_CYCLE = (
    ((2, "ideal", "exact"), 2), ((2, "ideal", "sampled"), 1),
    ((2, "displacement", "exact"), 1), ((2, "displacement", "sampled"), 1),
    ((4, "ideal", "exact"), 1), ((4, "ideal", "sampled"), 1),
    ((4, "displacement", "exact"), 5), ((4, "displacement", "sampled"), 1),
    ((6, "ideal", "exact"), 1), ((6, "displacement", "exact"), 1),
    ((6, "displacement", "sampled"), 1),
    ((8, "ideal", "exact"), 1), ((8, "displacement", "exact"), 2),
    ((8, "displacement", "sampled"), 1),
)
# alpha: count per 20-op cycle.  alpha 3 holds p50 (35-65 %), alpha 4 p90
# (65-95 %); one alpha 6 op (about 4x the cost of alpha 4) per cycle keeps
# enough ops in a run for p90.
HEATING_CYCLE = (((2,), 7), ((3,), 6), ((4,), 6), ((6,), 1))
# (alpha, heated mode): count per 20-op cycle.  Heating mode b costs about
# 1.6x mode a (the jump moves a non-leading axis), so the mode is part of the
# class.  Sorted: alpha 2/a 0-10 %, 3/a 10-30 %, 2/b 30-40 %, 4/a 40-60 %
# (holds p50), 3/b 60-80 %, 4/b 80-100 % (holds p90).
ENSEMBLE_CYCLE = (
    ((2, "a"), 2), ((2, "b"), 2), ((3, "a"), 4), ((3, "b"), 4),
    ((4, "a"), 4), ((4, "b"), 4),
)

# fixed integration step count: 100 RK4 steps are 400 lindblad_rhs calls
HEATING_STEPS = 100
TRAJECTORIES = 300

CYCLES = {"pipeline": PIPELINE_CYCLE, "heating": HEATING_CYCLE,
          "ensemble": ENSEMBLE_CYCLE}

# Timed cycles of a run at --seconds RUN_SECONDS, after one warm-up cycle:
# about RUN_SECONDS of ops on a 2-core x86 box at one BLAS thread.  Other
# --seconds scale the count.  The count, not the clock, ends a run, so every
# run of a seed does the same work.
RUN_SECONDS = 20.0
RUN_CYCLES = {"pipeline": 54, "heating": 16, "ensemble": 16}

# tolerances of the output checks
B_EXACT_TOL = 1e-6
SAMPLED_SIGMAS = 5.0
HEAT_MOMENT_TOL = 1e-9
TRACE_DRIFT_TOL = 1e-6


# ------------------------------------------------------------- generator ---

def _pipeline_op(rng: random.Random, cls: tuple, stratum: float) -> dict:
    alpha, ev_variant, mode = cls
    return {"workload": "pipeline", "kind": "cli",
            "class": f"alpha{alpha}-{ev_variant}-{mode}", "config": {
        "protocol": "full-pipeline",
        "encoding": {"alpha": float(alpha), "beta": float(alpha),
                     "cutoff": CUTOFF[alpha], "leak_tol": LEAK_TOL},
        "noise": {"delta": 0.3 * stratum},
        "bell": dict(ANGLES, mode=mode, shots=SHOTS),
        "gates": {"ve_variant": "ideal", "ev_variant": ev_variant},
        "seed": rng.randrange(2 ** 32),
        "output": {"path": "full-pipeline", "format": "json"},
    }}


def _heating_op(rng: random.Random, cls: tuple, stratum: float) -> dict:
    (alpha,) = cls
    return {"workload": "heating", "kind": "cli", "class": f"alpha{alpha}",
            "config": {
        "protocol": "heat-sweep",
        "encoding": {"alpha": float(alpha), "beta": float(alpha),
                     "cutoff": CUTOFF[alpha], "leak_tol": LEAK_TOL},
        "noise": {"gamma": 5e-4 + 4.5e-3 * stratum,
                  "duration": rng.uniform(0.5, 2.0),
                  "steps": HEATING_STEPS, "constant_rate": False},
        "seed": 0,
        "output": {"path": "heat-sweep", "format": "json"},
    }}


def _ensemble_op(rng: random.Random, cls: tuple, stratum: float) -> dict:
    alpha, mode = cls
    gamma = rng.uniform(5e-4, 2e-3)
    # jump intensity lambda = gamma T (2 nbar + 1) with nbar close to alpha^2;
    # the number of jumps, and with it the op's cost, grows with lambda
    lam = 0.02 + 0.1 * stratum
    return {"workload": "ensemble", "kind": "library",
            "class": f"alpha{alpha}-mode{mode}", "alpha": float(alpha),
            "cutoff": CUTOFF[alpha], "leak_tol": LEAK_TOL, "mode": mode,
            "gamma": gamma,
            "duration": lam / (gamma * (2.0 * alpha * alpha + 1.0)),
            "trajectories": TRAJECTORIES,
            "master_seed": rng.randrange(2 ** 32),
            "shots": SHOTS,
            "bell_seed": rng.randrange(2 ** 32)}


_MAKERS = {"pipeline": _pipeline_op, "heating": _heating_op,
           "ensemble": _ensemble_op}


def _check_workload(workload: str) -> None:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")


def cold_op(workload: str, seed: int) -> dict:
    """The first op of a run, always of the workload's first (smallest)
    class, so that set-up times of different seeds compare like with like."""
    _check_workload(workload)
    rng = random.Random(f"catbell-bench:{workload}:{seed}:cold")
    return _MAKERS[workload](rng, CYCLES[workload][0][0], rng.random())


def cycle_ops(workload: str, seed: int, index: int) -> list[dict]:
    """Ops of cycle `index`; depends only on (workload, seed, index).

    The k ops of a class in a cycle take the continuous parameter that sets
    their size from the k strata [j/k, (j+1)/k) of its range, so that every
    seed draws the same spread of sizes.
    """
    _check_workload(workload)
    rng = random.Random(f"catbell-bench:{workload}:{seed}:{index}")
    slots = [(cls, j, count) for cls, count in CYCLES[workload] for j in range(count)]
    rng.shuffle(slots)
    return [_MAKERS[workload](rng, cls, (j + rng.random()) / count)
            for cls, j, count in slots]


def run_cycles(workload: str, seconds: float) -> int:
    """Number of timed cycles of a run of `seconds`."""
    _check_workload(workload)
    return max(1, round(RUN_CYCLES[workload] * seconds / RUN_SECONDS))


def import_program(workload: str) -> None:
    """Import what an op of this workload needs (part of set-up time)."""
    _check_workload(workload)
    if workload == "ensemble":
        import catbell.bell  # noqa: F401
        import catbell.encoding  # noqa: F401
        import catbell.hilbert  # noqa: F401
        import catbell.noise  # noqa: F401
    else:
        import catbell.cli  # noqa: F401


# ------------------------------------------------------------------- ops ---

def write_config(op: dict, workdir: str) -> str:
    """Write a cli op's config file (outside the timed window)."""
    path = os.path.join(workdir, "config.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(op["config"], handle)
    return path


def run_cli(config_path: str, workdir: str) -> int:
    """One cli op: `catbell run CONFIG --output WORKDIR`, stdout discarded."""
    import catbell.cli
    with contextlib.redirect_stdout(io.StringIO()):
        return catbell.cli.main(["run", config_path, "--output", workdir])


def read_cli_output(op: dict, workdir: str, exit_code: int) -> dict:
    """The JSON record the op wrote, with its exit code."""
    if exit_code != 0:
        return {"exit_code": exit_code}
    path = os.path.join(workdir, op["config"]["output"]["path"] + ".json")
    with open(path, encoding="utf-8") as handle:
        record = json.load(handle)
    os.unlink(path)
    record["exit_code"] = exit_code
    return record


def run_ensemble(op: dict) -> dict:
    """Jump-trajectory ensemble on the phi+ cat register, read out by CHSH.

    Heats one mode with `trajectories` seeded jump trajectories, projects
    each final state onto the two-mode logical basis, and reads B from the
    projected two-qubit mixture with sampled CHSH.
    """
    # module attributes, not imported names, so that a tracer that rebinds
    # the library's functions sees these calls
    import numpy as np
    from catbell import bell, encoding, hilbert, noise

    enc = encoding.EncodingParams.for_amplitudes(
        op["alpha"], op["alpha"], op["cutoff"], op["leak_tol"])
    psi0 = encoding.bell_target("phi_plus", enc)
    ba = encoding.logical_basis("a", enc)
    bb = encoding.logical_basis("b", enc)
    ion = encoding.qubit_state(0)
    proj = np.stack([hilbert.tensor([x, y, ion, ion]).amps.conj()
                     for x in (ba.zero, ba.one) for y in (bb.zero, bb.one)])
    params = noise.HeatingParams(op["gamma"], op["duration"], None, False)
    mode_index = encoding.MODE_A if op["mode"] == "a" else encoding.MODE_B
    rho = np.zeros((4, 4), dtype=np.complex128)
    flips = jumps = 0
    for i in range(op["trajectories"]):
        res = noise.sample_trajectory(
            psi0, params, noise.trajectory_rng(op["master_seed"], i),
            mode_index=mode_index)
        flips += res.parity_flipped
        jumps += res.n_jumps
        vec = proj @ res.final.amps
        rho += np.outer(vec, vec.conj())
    rho /= np.trace(rho).real
    pair = hilbert.DensityMatrix(hilbert.SpaceLayout((2, 2)), rho)
    outcome = bell.chsh(pair, bell.BellAngles(**ANGLES), "sampled",
                        op["shots"], op["bell_seed"])
    return {"flips": flips, "jumps": jumps, "trajectories": op["trajectories"],
            "b_value": outcome.b_value, "b_std_error": outcome.std_error}


# ---------------------------------------------------------------- checks ---

def b_law(config: dict) -> float:
    """B = 2 sqrt(2) (1 - delta), times exp(-(pi / 4 alpha)^2) for the
    conditional-displacement gate build."""
    law = 2.0 * sqrt(2.0) * (1.0 - config["noise"]["delta"])
    if config["gates"]["ev_variant"] == "displacement":
        law *= exp(-(pi / (4.0 * config["encoding"]["alpha"])) ** 2)
    return law


def _even_cat_moments(alpha: float, cutoff: int) -> tuple[float, complex]:
    """<n> and <a> of the truncated even cat, from the reference series."""
    import numpy as np
    from catbell.reference import cat_amplitudes
    c = cat_amplitudes(alpha, +1, cutoff)
    n = np.arange(cutoff)
    n_mean = float((n * np.abs(c) ** 2).sum())
    a_mean = complex((c[:-1].conj() * c[1:] * np.sqrt(n[1:])).sum())
    return n_mean, a_mean


def _heated_mode_occupancy(alpha: float, cutoff: int) -> float:
    """Mean occupation of one mode of the phi+ cat pair: the even and odd
    cats weigh 1/2 each in its reduced state."""
    import numpy as np
    from catbell.reference import cat_amplitudes
    n = np.arange(cutoff)
    return float(sum(0.5 * (n * np.abs(cat_amplitudes(alpha, s, cutoff)) ** 2)
                     .sum() for s in (+1, -1)))


def check(op: dict, output: dict) -> str | None:
    """None if the op's output obeys its law, else what went wrong."""
    if op["workload"] == "ensemble":
        return _check_ensemble(op, output)
    if output.get("exit_code") != 0:
        return f"exit code {output.get('exit_code')}"
    if op["workload"] == "pipeline":
        return _check_pipeline(op["config"], output["results"])
    return _check_heating(op["config"], output["rows"])


def _check_pipeline(config: dict, results: dict) -> str | None:
    b = results["b_value"]
    law = b_law(config)
    if config["bell"]["mode"] == "exact":
        tol = B_EXACT_TOL
    else:
        tol = SAMPLED_SIGMAS * results["b_std_error"]
    if not abs(b - law) <= tol:
        return f"B = {b!r} is {abs(b - law):.3e} from {law!r} (tolerance {tol:.3e})"
    return None


def _check_heating(config: dict, rows: list) -> str | None:
    enc, noi = config["encoding"], config["noise"]
    n0, a0 = _even_cat_moments(enc["alpha"], enc["cutoff"])
    row = rows[-1]
    dn = row["n_mean"] - n0
    gt = noi["gamma"] * noi["duration"]
    if not abs(dn - gt) <= HEAT_MOMENT_TOL:
        return f"delta<n> = {dn!r}, expected gamma t = {gt!r}"
    da = abs(complex(row["re_a"], row["im_a"]) - a0)
    if not da <= HEAT_MOMENT_TOL:
        return f"<a> moved by {da:.3e}"
    if not row["trace_drift"] <= TRACE_DRIFT_TOL:
        return f"trace drift {row['trace_drift']:.3e}"
    return None


def _flip_probability(op: dict) -> float:
    """(1 - exp(-2 lambda)) / 2 with lambda = gamma T (2 nbar + 1)."""
    nbar = _heated_mode_occupancy(op["alpha"], op["cutoff"])
    lam = op["gamma"] * op["duration"] * (2.0 * nbar + 1.0)
    return (1.0 - exp(-2.0 * lam)) / 2.0


def _check_ensemble(op: dict, output: dict) -> str | None:
    p = _flip_probability(op)
    n = output["trajectories"]
    frac = output["flips"] / n
    se = sqrt(p * (1.0 - p) / n)
    if not abs(frac - p) <= SAMPLED_SIGMAS * se:
        return f"flip fraction {frac!r} is {abs(frac - p) / se:.2f} SE from {p!r}"
    return None
