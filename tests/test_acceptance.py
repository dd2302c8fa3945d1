"""Acceptance gate: ten numbered criteria, one verdict line each.

Every criterion computes its observables first, then records a PASS/FAIL
line in the shared session log (printed in the terminal summary), then
asserts.  A failing criterion therefore still reports its measured numbers
instead of vanishing into a traceback.

Criterion 3 checks the conditional-displacement CNOT against the rotation
law the gate is built on: D(i eps) rotates a cat qubit by 2 alpha eps, since
D(i eps)|+-alpha> = exp(+-i alpha eps)|+-alpha + i eps> and the overlap
<+-alpha|+-alpha + i eps> carries a second exp(+-i alpha eps).  The default
kick eps = pi/(4 alpha) is therefore a quarter turn, and the flipping rows
reach exp(-eps^2) = exp(-(pi/4 alpha)^2).  The same rows are also rebuilt
from the closed-form ingredients in catbell.reference.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from math import exp, pi, sqrt

import numpy as np
import pytest

from catbell.bell import (
    DEFAULT_ANGLES,
    DELTA_STAR,
    TSIRELSON,
    BellAngles,
    chsh,
    crossing,
    mixed_bell,
)
from catbell.bosonic import cat, coherent
from catbell.encoding import (
    bell_target,
    logical_basis,
    prepare_entangled_schmidt,
    qubit_state,
    rotation_fidelity,
)
from catbell.gates import report_u_ev, report_u_swap, report_u_ve, u_swap
from catbell.hilbert import (
    DensityMatrix,
    OperatorMatrix,
    StateVector,
    state_fidelity,
    tensor,
    unitarity_residual,
)
from catbell.noise import (
    HeatingParams,
    propagate,
    sample_trajectory,
    trajectory_rng,
)
from catbell.params import EncodingParams, ModeParams, SpaceLayout, mode_for
from catbell.pipeline import run_pipeline
from catbell.reference import (
    cat_amplitudes,
    displacement_elements,
    liouvillian_expm,
)
from conftest import (
    basis_state,
    child_env,
    displacement,
    dm_fidelity,
    electronic_bell,
    exchange_op,
    expectation,
    matrix_exp,
    parity_op,
    readouts,
    reference_preparation,
)

RT8 = 2.0 * sqrt(2.0)


@dataclass
class Verdict:
    ok: bool = False
    detail: str = ""


@contextmanager
def criterion(log: dict[str, str], key: str, title: str):
    v = Verdict()
    try:
        yield v
    except BaseException as err:
        log[key] = f"criterion {key} [{title}]: FAIL ({type(err).__name__}: {err})"
        raise
    line = f"criterion {key} [{title}]: {'PASS' if v.ok else 'FAIL'}"
    if v.detail:
        line += f" - {v.detail}"
    log[key] = line
    assert v.ok, line


def test_criterion_01_preparation(acceptance_log):
    with criterion(acceptance_log, "01", "entangled preparation") as v:
        start = time.perf_counter()
        enc = EncodingParams.for_amplitudes(2.0, cutoff=30)
        prepared = prepare_entangled_schmidt(enc).to_state()
        fid = state_fidelity(prepared, reference_preparation(enc))
        elapsed = time.perf_counter() - start
        v.ok = fid >= 1.0 - 1e-8 and elapsed < 1.0
        v.detail = f"fidelity deficit {max(0.0, 1.0 - fid):.1e} in {elapsed:.2f} s"


def test_criterion_02_fidelity_law(acceptance_log):
    with criterion(acceptance_log, "02", "rotation fidelity law") as v:
        start = time.perf_counter()
        worst = 0.0  # worst deviation as a fraction of its tolerance
        for alpha in (3.0, 8.0):
            enc = EncodingParams.for_amplitudes(alpha)
            tol = max(1e-5, 5.0 * exp(-2.0 * alpha * alpha))
            for eps in (0.05, 0.1, 0.2, 0.5236):
                r = rotation_fidelity(eps, enc, "a")
                dev = max(abs(r["f_zero"] - r["analytic"]),
                          abs(r["f_one"] - r["analytic"]))
                worst = max(worst, dev / tol)
        elapsed = time.perf_counter() - start
        v.ok = worst <= 1.0 and elapsed < 1.0
        v.detail = (f"worst deviation at {worst:.3f} of tolerance "
                    f"in {elapsed:.2f} s")


def _oracle_flip_rows(alpha: float, cutoff: int, eps: float) -> list[float]:
    """Flip-row fidelities of the displacement CNOT from reference.py alone.

    On the excited ion the gate is D(i eps) times a unit phase, so the rows
    0L|1e -> 1L|1e and 1L|1e -> 0L|1e score |<odd|D|even>|^2 and
    |<even|D|odd>|^2.
    """
    d = displacement_elements(1j * eps, cutoff)
    even = cat_amplitudes(alpha, +1, cutoff)
    odd = cat_amplitudes(alpha, -1, cutoff)
    return [float(abs(np.vdot(odd, d @ even)) ** 2),
            float(abs(np.vdot(even, d @ odd)) ** 2)]


def test_criterion_03_gate_truth_tables(acceptance_log):
    with criterion(acceptance_log, "03", "gate truth tables") as v:
        enc2 = EncodingParams.for_amplitudes(2.0)
        table_dev = max(abs(row["fidelity"] - 1.0)
                        for row in report_u_ve("ideal", "a", enc2))
        table_ok = table_dev <= 1e-12

        law_dev = 0.0
        oracle_dev = 0.0
        for alpha in (4.0, 6.0, 8.0):
            enc = EncodingParams.for_amplitudes(alpha)
            eps = pi / (4.0 * alpha)  # quarter turn: 2 alpha eps = pi/2
            law = exp(-eps * eps)
            oracle = _oracle_flip_rows(alpha, enc.mode_a.cutoff, eps)
            flips = [row["fidelity"] for row in report_u_ev("a", enc)
                     if row["input"][3] == "1"]  # control ion excited
            assert len(flips) == len(oracle)
            for got, want in zip(flips, oracle):
                law_dev = max(law_dev, abs(got - law))
                oracle_dev = max(oracle_dev, abs(got - want))
        flip_ok = law_dev <= 1e-3 and oracle_dev <= 1e-8

        v.ok = table_ok and flip_ok
        v.detail = (f"truth table dev {table_dev:.1e}; flip rows off "
                    f"exp(-(pi/4a)^2) by {law_dev:.1e} and off the "
                    f"reference oracle by {oracle_dev:.1e}")


def test_conditional_kick_quarter_scale_companion():
    """The flipping rows of the displacement-realized CNOT follow the law
    exp(-(pi/4 alpha)^2): since D(i eps) rotates the cat qubit by
    2 alpha eps, the default kick eps = pi/(4 alpha) is a quarter turn."""
    for alpha in (4.0, 6.0, 8.0):
        rep = report_u_ev("a", EncodingParams.for_amplitudes(alpha))
        law = exp(-((pi / (4.0 * alpha)) ** 2))
        for row in rep:
            if row["input"][3] == "1":
                assert row["fidelity"] == pytest.approx(law, abs=1e-3)


def test_criterion_04_state_exchange(acceptance_log, golden):
    with criterion(acceptance_log, "04", "state exchange") as v:
        enc2 = EncodingParams.for_amplitudes(2.0)
        surrogate = min(row["fidelity"]
                        for row in report_u_swap("a", enc2, "ideal", "ideal"))
        rows_ok = surrogate >= 1.0 - 1e-10

        enc8 = EncodingParams.for_amplitudes(8.0)
        basis = logical_basis("a", enc8)
        plus = StateVector(SpaceLayout((2,)),
                           np.array([1.0, 1.0], dtype=np.complex128) / sqrt(2.0))
        gate = u_swap("a", enc8, "ideal", "displacement")
        dft_zero = StateVector(basis.zero.layout,
                               (basis.zero.amps + basis.one.amps) / sqrt(2.0))
        psi = tensor([dft_zero, qubit_state(0)])
        out = StateVector(psi.layout, gate.apply(psi.as_tensor(), 0, 1))
        fid = state_fidelity(out, tensor([basis.zero, plus]))
        frozen = golden("swap_alpha8.json")["swap_superposition_transfer"]
        frozen_dev = abs(fid - frozen.value)
        frozen_ok = frozen_dev <= 1e-6

        v.ok = rows_ok and frozen_ok
        v.detail = (f"surrogate row deficit "
                    f"{max(0.0, 1.0 - surrogate):.1e}; "
                    f"alpha 8 transfer within {frozen_dev:.1e} of frozen value")


def test_criterion_05_heating_master_equation(acceptance_log):
    with criterion(acceptance_log, "05", "heating master equation") as v:
        start = time.perf_counter()
        m12 = ModeParams(12)
        vac = basis_state(m12.layout, (0,)).to_density()
        heated = propagate(vac, HeatingParams(1.0, 0.02)).matrix
        growth_dev = abs((readouts(heated)[0] - readouts(vac.matrix)[0]) - 0.02)
        growth_ok = growth_dev <= 1e-4 * 0.02

        rho_a = coherent(0.5, m12).to_density()
        heated_a = propagate(rho_a, HeatingParams(0.02, 1.0)).matrix
        a_dev = abs(readouts(heated_a)[1] - readouts(rho_a.matrix)[1])
        a_ok = a_dev <= 1e-9

        rho0 = cat(1.5, "+", ModeParams(12, leak_tol=1e-5)).to_density()
        rho_c = propagate(rho0, HeatingParams(0.02, 1.0))
        sup_dev = np.abs(rho_c.matrix
                         - liouvillian_expm(rho0.matrix, 0.02, 1.0)).max()
        sup_ok = sup_dev <= 1e-6
        elapsed = time.perf_counter() - start

        v.ok = growth_ok and a_ok and sup_ok and elapsed < 30.0
        v.detail = (f"occupation dev {growth_dev:.1e}, amplitude dev "
                    f"{a_dev:.1e}, superoperator dev {sup_dev:.1e} "
                    f"in {elapsed:.2f} s")


def test_criterion_06_single_jump_ensemble(acceptance_log, golden):
    with criterion(acceptance_log, "06", "single-jump ensemble") as v:
        start = time.perf_counter()
        enc = EncodingParams.for_amplitudes(2.0)
        psi0 = bell_target("phi_plus", enc)
        params = HeatingParams(1e-3, 10.0)  # delta = gamma alpha^2 T = 0.04

        ba, bb = logical_basis("a", enc), logical_basis("b", enc)
        probes = [tensor([ai, bj, qubit_state(0), qubit_state(0)]).amps.conj()
                  for ai in (ba.zero, ba.one) for bj in (bb.zero, bb.one)]
        proj = np.stack(probes)

        n_traj = 10_000
        rho4 = np.zeros((4, 4), dtype=np.complex128)
        flips = 0
        for i in range(n_traj):
            res = sample_trajectory(psi0, params, trajectory_rng(2718, i))
            flips += res.parity_flipped
            vec = proj @ res.final.amps
            rho4 += np.outer(vec, vec.conj())
        rho4 /= np.trace(rho4).real
        electronic = DensityMatrix(SpaceLayout((2, 2)), rho4)

        stats = golden("jump_stats.json")
        p_init = stats["jump_stats_initial_rates"].value["p_odd"]
        p_bal = stats["jump_stats_balanced"].value["p_odd"]
        frac = flips / n_traj
        se = sqrt(p_init * (1.0 - p_init) / n_traj)
        flip_ok = abs(frac - p_init) <= 3.0 * se

        # upward jumps leak a little weight out of the code space, which
        # rebalances the projected mixture to the balanced-rate odd weight
        fid = dm_fidelity(electronic, mixed_bell(p_bal))
        fid_ok = fid >= 0.995
        elapsed = time.perf_counter() - start

        v.ok = flip_ok and fid_ok
        v.detail = (f"flip fraction {frac:.4f} at "
                    f"{abs(frac - p_init) / se:.2f} SE of {p_init:.4f}; "
                    f"projected fidelity {fid:.4f} in {elapsed:.1f} s")


def test_criterion_07_chsh_linear_law(acceptance_log):
    with criterion(acceptance_log, "07", "CHSH linear law") as v:
        start = time.perf_counter()
        worst = 0.0
        for delta in (0.0, 0.1, 0.292893, 0.5):
            b = chsh(mixed_bell(delta), DEFAULT_ANGLES).b_value
            worst = max(worst, abs(b - RT8 * (1.0 - delta)))
        law_ok = worst <= 1e-8

        grid = np.arange(0.0, 0.5 + 5e-4, 1e-3)
        bs = [chsh(mixed_bell(d), DEFAULT_ANGLES).b_value for d in grid]
        cross_dev = abs(crossing(grid, bs) - DELTA_STAR)
        cross_ok = cross_dev <= 1e-3
        elapsed = time.perf_counter() - start

        v.ok = law_ok and cross_ok and elapsed < 1.0
        v.detail = (f"law dev {worst:.1e}; crossing off by {cross_dev:.1e} "
                    f"in {elapsed:.2f} s")


def test_criterion_08_full_pipeline(acceptance_log):
    with criterion(acceptance_log, "08", "end-to-end pipeline") as v:
        start = time.perf_counter()
        enc = EncodingParams.for_amplitudes(2.0, cutoff=30)
        results = run_pipeline(enc, 0.1, DEFAULT_ANGLES)
        elapsed = time.perf_counter() - start
        dev = abs(results["b_value"] - RT8 * 0.9)
        v.ok = dev <= 2e-3 and elapsed < 60.0
        v.detail = (f"B = {results['b_value']:.6f} within {dev:.1e} of "
                    f"{RT8 * 0.9:.6f} in {elapsed:.2f} s")


def test_criterion_09_determinism(acceptance_log, tmp_path):
    with criterion(acceptance_log, "09", "seeded determinism") as v:
        cfg = {
            "protocol": "full-pipeline",
            "noise": {"delta": 0.1},
            "bell": {"mode": "sampled", "shots": 2048},
            "seed": 123,
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        outputs = []
        for label, threads in (("one", 1), ("again", 1), ("four", 4)):
            outdir = tmp_path / label
            env = child_env()
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS"):
                env[var] = str(threads)
            proc = subprocess.run(
                [sys.executable, "-m", "catbell.cli", "run", str(cfg_path),
                 "--output", str(outdir)],
                env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outputs.append((outdir / "full-pipeline.csv").read_bytes())
        rerun_ok = outputs[0] == outputs[1]
        thread_ok = outputs[0] == outputs[2]
        v.ok = rerun_ok and thread_ok
        v.detail = (f"rerun identical: {rerun_ok}; "
                    f"1 vs 4 threads identical: {thread_ok}")


def test_criterion_10_property_families(acceptance_log):
    with criterion(acceptance_log, "10", "property families") as v:
        rng = np.random.default_rng(424242)

        residuals = []
        enc15 = EncodingParams.for_amplitudes(1.5)
        for ve in ("ideal", "literal"):
            for ev in ("displacement", "ideal"):
                residuals.append(unitarity_residual(
                    exchange_op("a", enc15, ve, ev).matrix))
        residuals.append(unitarity_residual(
            displacement(0.3 - 0.2j, ModeParams(24)).matrix))
        m = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
        gen = OperatorMatrix(SpaceLayout((40,)), (0,), (m - m.conj().T) / 2.0)
        residuals.append(unitarity_residual(matrix_exp(gen).matrix))
        unit_worst = max(residuals)
        unit_ok = unit_worst < 1e-9

        grade_ok = True
        for alpha in (0.5, 1.0, 1.5, 2.0, 3.0, 4.0):
            mode = mode_for(alpha, leak_tol=1e-8)
            for sign, want in (("+", 1.0), ("-", -1.0)):
                got = expectation(parity_op(mode), cat(alpha, sign, mode)).real
                grade_ok = grade_ok and abs(got - want) < 1e-10

        heated = propagate(
            cat(1.5, "+", ModeParams(14, leak_tol=1e-5)).to_density(),
            HeatingParams(0.02, 1.0)).matrix
        trace_drift = abs(np.trace(heated).real - 1.0)
        trace_ok = trace_drift < 1e-8

        phi = electronic_bell("phi_plus").to_density()
        ceiling = 0.0
        for _ in range(1000):
            t = rng.uniform(0.0, 2.0 * pi, size=4)
            ceiling = max(ceiling, chsh(phi, BellAngles(*t)).b_value)
        ceiling_ok = ceiling <= TSIRELSON + 1e-6

        def qubit() -> np.ndarray:
            vec = rng.normal(size=2) + 1j * rng.normal(size=2)
            return vec / np.linalg.norm(vec)

        separable = 0.0
        for _ in range(100):
            state = StateVector(SpaceLayout((2, 2)), np.kron(qubit(), qubit()))
            t = rng.uniform(0.0, 2.0 * pi, size=4)
            separable = max(separable,
                            chsh(state.to_density(), BellAngles(*t)).b_value)
        sep_ok = separable <= 2.0 + 1e-8

        v.ok = unit_ok and grade_ok and trace_ok and ceiling_ok and sep_ok
        v.detail = (f"unitarity {unit_worst:.1e}; parity grading exact; "
                    f"trace drift {trace_drift:.1e}; quantum ceiling "
                    f"{ceiling:.6f} <= {TSIRELSON:.6f}; separable max "
                    f"{separable:.6f} <= 2")
