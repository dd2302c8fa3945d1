"""Randomized invariants: unitarity, parity grading, trace flow, Bell bounds.

Each test states a structural law and samples it over a family of inputs,
either with hypothesis or with a seeded generator loop.
"""

from __future__ import annotations

from math import factorial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catbell.bell import (
    DEFAULT_ANGLES,
    TSIRELSON,
    BellAngles,
    _draw,
    _populations,
    _readings,
    chsh,
    correlation_tensor,
)
from catbell.bosonic import cat
from catbell.cli import normalize_config
from catbell.coherent import PARITIES, Mode, rotation_fidelity
from catbell.encoding import logical_basis
from catbell.gates import PAIR_LABELS, report_u_ev, report_u_swap, report_u_ve
from catbell.hilbert import OperatorMatrix, SpaceLayout, StateVector, apply
from catbell.noise import HeatingParams, propagate
from catbell.params import (
    EV_VARIANTS,
    VE_VARIANTS,
    EncodingParams,
    ModeParams,
    default_cutoff,
    mode_for,
    required_cutoff,
)
from catbell.pipeline import run_bell_scan, run_pipeline
from catbell.reference import (
    cat_amplitudes,
    coherent_overlap,
    displacement_elements,
    exchange_matrix_oracle,
    swap_truth_oracle,
    u_ve_literal_oracle,
)
from conftest import (
    displacement,
    electronic_bell,
    embed,
    exchange_op,
    expectation,
    fourier_pair,
    matrix_exp,
    mixed_bell,
    parity_op,
    partial_trace,
    readouts,
    rx_matrix,
    state_fidelity,
    unitarity_residual,
)

PAIR = SpaceLayout((2, 2))
PARITY_PAIRS = [(s, t) for s in PARITIES for t in PARITIES]


def random_state(layout: SpaceLayout, rng: np.random.Generator) -> StateVector:
    amps = rng.normal(size=layout.total_dim) + 1j * rng.normal(size=layout.total_dim)
    return StateVector(layout, amps / np.linalg.norm(amps))


def random_antihermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m - m.conj().T) / 2.0


class TestExponentials:
    @settings(max_examples=40)
    @given(st.integers(2, 60), st.integers(0, 2**31 - 1))
    def test_antihermitian_exponent_is_unitary(self, dim: int, seed: int):
        rng = np.random.default_rng(seed)
        gen = OperatorMatrix(SpaceLayout((dim,)), (0,), random_antihermitian(dim, rng))
        assert unitarity_residual(matrix_exp(gen).matrix) < 1e-9

    @settings(max_examples=40)
    @given(
        st.floats(-2.0, 2.0, allow_nan=False),
        st.floats(-2.0, 2.0, allow_nan=False),
        st.integers(0, 2**31 - 1),
    )
    def test_one_parameter_group_law(self, t: float, s: float, seed: int):
        rng = np.random.default_rng(seed)
        h = random_antihermitian(6, rng)
        gen = OperatorMatrix(SpaceLayout((6,)), (0,), h)
        left = matrix_exp(gen, scale=t).matrix @ matrix_exp(gen, scale=s).matrix
        right = matrix_exp(gen, scale=t + s).matrix
        assert np.abs(left - right).max() < 1e-10

    @settings(max_examples=30)
    @given(st.integers(0, 2**31 - 1))
    def test_exponent_commutes_with_dagger(self, seed: int):
        rng = np.random.default_rng(seed)
        gen = OperatorMatrix(SpaceLayout((8,)), (0,), random_antihermitian(8, rng))
        a = matrix_exp(gen).matrix.conj().T
        b = matrix_exp(gen, scale=-1.0).matrix
        assert np.abs(a - b).max() < 1e-10


class TestEmbedding:
    @settings(max_examples=30)
    @given(st.integers(0, 2**31 - 1))
    def test_disjoint_factors_commute(self, seed: int):
        rng = np.random.default_rng(seed)
        layout = SpaceLayout((3, 4, 2))
        a = embed(OperatorMatrix(layout, (0,), random_antihermitian(3, rng))).matrix
        b = embed(OperatorMatrix(layout, (2,), random_antihermitian(2, rng))).matrix
        assert np.abs(a @ b - b @ a).max() < 1e-12

    @settings(max_examples=30)
    @given(st.integers(0, 2**31 - 1))
    def test_same_factor_composes(self, seed: int):
        rng = np.random.default_rng(seed)
        layout = SpaceLayout((4, 3))
        ma = random_antihermitian(3, rng)
        mb = random_antihermitian(3, rng)
        lift = lambda m: OperatorMatrix(layout, (1,), m)
        left = embed(lift(ma)).matrix @ embed(lift(mb)).matrix
        right = embed(lift(ma @ mb)).matrix
        assert np.abs(left - right).max() < 1e-12

    @settings(max_examples=30)
    @given(st.integers(0, 2**31 - 1))
    def test_apply_agrees_with_embedded_matrix(self, seed: int):
        rng = np.random.default_rng(seed)
        layout = SpaceLayout((3, 2, 4))
        op = OperatorMatrix(layout, (0, 2), random_antihermitian(12, rng))
        psi = random_state(layout, rng)
        fast = apply(op, psi).amps
        slow = embed(op).matrix @ psi.amps
        assert np.abs(fast - slow).max() < 1e-12


class TestStateContracts:
    @settings(max_examples=40)
    @given(st.integers(0, 2**31 - 1))
    def test_fidelity_bounds_and_symmetry(self, seed: int):
        rng = np.random.default_rng(seed)
        layout = SpaceLayout((12,))
        a, b = random_state(layout, rng), random_state(layout, rng)
        f = state_fidelity(a, b)
        assert 0.0 <= f <= 1.0 + 1e-12
        assert state_fidelity(b, a) == pytest.approx(f, abs=1e-12)
        assert state_fidelity(a, a) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=40)
    @given(st.integers(0, 2**31 - 1))
    def test_reduced_state_is_density(self, seed: int):
        rng = np.random.default_rng(seed)
        psi = random_state(SpaceLayout((4, 5)), rng)
        red = partial_trace(psi, (0,))
        m = red.matrix
        assert np.trace(red.matrix) == pytest.approx(1.0, abs=1e-12)
        assert np.abs(m - m.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(m).min() > -1e-12

    @settings(max_examples=30)
    @given(st.integers(0, 2**31 - 1))
    def test_unitary_apply_preserves_inner_products(self, seed: int):
        rng = np.random.default_rng(seed)
        layout = SpaceLayout((10,))
        u = matrix_exp(OperatorMatrix(layout, (0,), random_antihermitian(10, rng)))
        a, b = random_state(layout, rng), random_state(layout, rng)
        before = np.vdot(a.amps, b.amps)
        after = np.vdot(apply(u, a).amps, apply(u, b).amps)
        assert abs(before - after) < 1e-12


class TestBosonicGrading:
    @settings(max_examples=50)
    @given(
        st.floats(0.3, 4.0, allow_nan=False),
        st.sampled_from(["+", "-"]),
    )
    def test_cat_states_are_parity_eigenstates(self, alpha: float, sign: str):
        mode = mode_for(alpha, leak_tol=1e-8)
        state = cat(alpha, sign, mode)
        want = 1.0 if sign == "+" else -1.0
        got = expectation(parity_op(mode), state).real
        assert got == pytest.approx(want, abs=1e-12)

    @settings(max_examples=40)
    @given(
        st.floats(0.2, 3.0, allow_nan=False),
        st.floats(0.2, 3.0, allow_nan=False),
    )
    def test_required_cutoff_monotone(self, a1: float, a2: float):
        lo, hi = sorted((a1, a2))
        assert required_cutoff(lo, 1e-10) <= required_cutoff(hi, 1e-10)

    def test_truncation_leak_shrinks_with_cutoff(self):
        # tail mass of |alpha=2> is strictly decreasing in the cutoff
        alpha = 2.0
        leaks = []
        for cutoff in range(15, 31):
            amps = np.exp(-abs(alpha) ** 2 / 2) * np.array(
                [alpha**n / np.sqrt(float(factorial(n))) for n in range(cutoff)]
            )
            leaks.append(1.0 - float(np.vdot(amps, amps).real))
        assert all(b < a for a, b in zip(leaks, leaks[1:]))
        assert leaks[-1] < 1e-10

    @settings(max_examples=40)
    @given(
        st.floats(-0.8, 0.8, allow_nan=False),
        st.floats(-0.8, 0.8, allow_nan=False),
    )
    def test_displacement_unitary_and_invertible(self, re: float, im: float):
        mode = ModeParams(24)
        d = displacement(re + 1j * im, mode)
        assert unitarity_residual(d.matrix) < 1e-10
        back = displacement(-(re + 1j * im), mode)
        assert np.abs(d.matrix @ back.matrix - np.eye(24)).max() < 1e-10


class TestEncodingInvariants:
    @settings(max_examples=25)
    @given(
        st.floats(0.5, 4.0, allow_nan=False),
        st.floats(0.5, 4.0, allow_nan=False),
    )
    def test_logical_gram_orthonormal(self, alpha: float, beta: float):
        params = EncodingParams.for_amplitudes(alpha, beta, leak_tol=1e-8)
        for side in ("a", "b"):
            basis = logical_basis(side, params)
            vecs = [basis.zero, basis.one, *fourier_pair(basis)]
            gram = np.array([[np.vdot(u.amps, v.amps) for v in vecs[:2]]
                             for u in vecs[:2]])
            assert np.abs(gram - np.eye(2)).max() < 1e-10
            # the Fourier pair is an orthonormal basis of the same plane
            dg = np.array([[np.vdot(u.amps, v.amps) for v in vecs[2:]]
                           for u in vecs[2:]])
            assert np.abs(dg - np.eye(2)).max() < 1e-10

    @settings(max_examples=40)
    @given(
        st.floats(-2.0 * np.pi, 2.0 * np.pi, allow_nan=False),
        st.floats(-2.0 * np.pi, 2.0 * np.pi, allow_nan=False),
    )
    def test_rotation_group_law(self, t1: float, t2: float):
        left = rx_matrix(t1) @ rx_matrix(t2)
        assert np.abs(left - rx_matrix(t1 + t2)).max() < 1e-12


class TestRotationClosedForm:
    @settings(max_examples=20)
    @given(st.floats(0.3, 8.0), st.floats(0.0, 1.0))
    # the ends of the range: the smallest cat under its largest kick, and
    # the largest cat
    @example(0.3, 1.0)
    @example(8.0, 1.0)
    def test_rotate_rows_match_the_fock_oracle(self, alpha: float, eps_frac: float):
        # rotate's closed form against reference.displacement_elements on
        # reference.cat_amplitudes, 60 levels above the default cutoff:
        # there the cats, and the code-space overlaps of their kicks, are
        # exact to rounding at every kick up to eps = pi / alpha
        eps = eps_frac * np.pi / alpha
        row = rotation_fidelity(eps, EncodingParams.for_amplitudes(alpha))
        dim = default_cutoff(alpha) + 60
        even, odd = (cat_amplitudes(alpha, sign, dim) for sign in (1, -1))
        kick = displacement_elements(1j * eps, dim)
        c, s = np.cos(row["theta"]), 1j * np.sin(row["theta"])
        f_zero = abs(np.vdot(c * even + s * odd, kick @ even)) ** 2
        f_one = abs(np.vdot(s * even + c * odd, kick @ odd)) ** 2
        assert abs(row["f_zero"] - f_zero) <= 1e-14
        assert abs(row["f_one"] - f_one) <= 1e-14


class TestCoherentOverlap:
    @settings(max_examples=200)
    @given(st.floats(1e-3, 20.0), st.floats(-1.0, 1.0),
           st.sampled_from(PARITY_PAIRS))
    @example(20.0, 1.0, (-1, -1))
    @example(1e-3, -1.0, (1, -1))
    def test_overlap_is_the_sum_of_four_coherent_overlaps(
            self, alpha: float, eta_frac: float, parities: tuple):
        # M(eta, s, t) = <E_s|D(i eta)|E_t>, E_s = (|a> + s|-a>) / 2, and
        # D(i eta)|g> = e^{i eta g}|g + i eta>: the four products of
        # reference.coherent_overlap, with no cutoff.  Over 3000 draws of
        # (alpha, eta) and the four parity pairs, the engine's closed form
        # held to 2.2e-16 of a 40-digit mpmath evaluation and the oracle's
        # sum to 2.3e-16, and the two to 1.7e-16 of each other
        s, t = parities
        eta = eta_frac * np.pi / alpha
        want = sum(su * tv * np.exp(1j * eta * v) * coherent_overlap(u, v + 1j * eta)
                   for su, u in ((1, alpha), (s, -alpha))
                   for tv, v in ((1, alpha), (t, -alpha))) / 4.0
        got = Mode(alpha, 0.0).overlap(eta, s, t)
        assert abs(got - want) <= 1e-14


def oracle_pair_matrices(alpha: float, eps: float, dim: int) -> dict:
    """swap-report's five steps as 2 dim x 2 dim pair matrices, mode factor
    slowest, from catbell.reference's ingredients alone, and the code basis
    [even cat, odd cat] of reference.cat_amplitudes."""
    code = np.column_stack([cat_amplitudes(alpha, sign, dim) for sign in (1, -1)])
    n = np.arange(dim)
    eye, p0, p1 = np.eye(dim), np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    ve_ideal = (np.kron(np.diag((n + 1) % 2), np.eye(2))
                + np.kron(np.diag(n % 2), np.array([[0.0, 1.0], [1.0, 0.0]])))
    phase = np.kron(eye, np.diag([1.0, np.exp(-1j * np.pi / 2.0)]))
    rx = eye - code @ code.T + code @ np.array([[0.0, 1j], [1j, 0.0]]) @ code.T
    ev_ideal = (np.kron(eye, p0) + np.kron(rx, p1)) @ phase
    return {"u_ve[ideal]": ve_ideal,
            "u_ve[literal]": u_ve_literal_oracle(dim),
            "u_ev[displacement]": (np.kron(eye, p0) + np.kron(
                displacement_elements(1j * eps, dim), p1)) @ phase,
            "u_swap[ideal,ideal]": ve_ideal @ ev_ideal @ ve_ideal,
            "u_swap[ideal,displacement]": exchange_matrix_oracle(dim, eps)}, code


class TestGateRowsAgainstOracles:
    @settings(max_examples=20)
    @given(st.floats(0.75, 8.0), st.floats(0.0, 1.0))
    @example(0.75, 1.0)
    @example(8.0, 1.0)
    def test_swap_report_rows_match_the_oracles(self, alpha: float, eps_frac: float):
        # swap-report's rows, which read no cutoff, against the dense
        # oracles 40 levels above the default cutoff, where the cats are
        # exact to rounding.  The Laguerre elements are the exact <m|D|n>,
        # so the truncation drops only what the targets do not hold
        eps = eps_frac * np.pi / alpha
        enc = EncodingParams.for_amplitudes(alpha, epsilon=eps)
        dim = default_cutoff(alpha) + 40
        matrices, code = oracle_pair_matrices(alpha, eps, dim)
        ion = np.eye(2)
        pair = {label: np.kron(code[:, int(label[0])], ion[int(label[3])])
                for label in PAIR_LABELS}
        reports = (report_u_ve("ideal", "a", enc) + report_u_ve("literal", "a", enc)
                   + report_u_ev("a", enc)
                   + report_u_swap("a", enc, "ideal", "ideal")
                   + report_u_swap("a", enc, "ideal", "displacement"))
        truth = swap_truth_oracle(alpha, dim, eps)["rows"]
        for row in reports:
            u = matrices[row["gate"]]
            want = abs(np.vdot(pair[row["target"]], u @ pair[row["input"]])) ** 2
            assert abs(row["fidelity"] - want) <= 1e-12, row
            if row["gate"] == "u_swap[ideal,displacement]":
                key = row["input"][0] + row["input"][3]
                assert abs(row["fidelity"] - truth[key]) <= 1e-12, row


class TestGateUnitarity:
    @pytest.mark.parametrize("ve", VE_VARIANTS)
    @pytest.mark.parametrize("ev", EV_VARIANTS)
    def test_swap_variants_unitary(self, ve: str, ev: str):
        params = EncodingParams.for_amplitudes(1.5)
        gate = exchange_op("a", params, ve, ev)
        assert unitarity_residual(gate.matrix) < 1e-9


class TestNoiseFlow:
    @settings(max_examples=25)
    @given(
        st.floats(1e-4, 0.05, allow_nan=False),
        st.floats(0.2, 2.0, allow_nan=False),
    )
    def test_trace_and_occupation_flow(self, gamma: float, duration: float):
        # cutoff 20 keeps the boundary population (which bends the growth
        # law) below 1e-8 over this whole parameter box
        mode = ModeParams(20)
        rho = cat(1.5, "+", mode).to_density()
        heated = propagate(rho, HeatingParams(gamma, duration)).matrix
        assert abs(np.trace(heated).real - 1.0) < 1e-8
        # the two balanced reservoirs pump occupation at exactly gamma
        growth = readouts(heated)[0] - readouts(rho.matrix)[0]
        assert growth == pytest.approx(gamma * duration, abs=1e-8)
        assert abs(readouts(heated)[2]) <= 1.0 + 1e-9

    @settings(max_examples=50)
    @given(st.floats(0.0, 1.0, allow_nan=False))
    def test_parity_mixture_is_density(self, delta: float):
        rho = mixed_bell(delta)
        m = rho.matrix
        assert np.trace(rho.matrix) == pytest.approx(1.0, abs=1e-12)
        assert np.abs(m - m.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(m).min() > -1e-12
        zz = np.diag([1.0, -1.0, -1.0, 1.0])
        corr = float(np.trace(m @ zz).real)
        assert corr == pytest.approx(1.0 - 2.0 * delta, abs=1e-12)


class TestBellBounds:
    def test_quantum_ceiling_random_states_and_angles(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            state = random_state(PAIR, rng)
            t = rng.uniform(0.0, 2.0 * np.pi, size=4)
            angles = BellAngles(t[0], t[1], t[2], t[3])
            assert chsh(state.to_density(), angles).b_value <= TSIRELSON + 1e-6

    @settings(max_examples=40)
    @given(st.lists(st.floats(0.0, 2.0 * np.pi, allow_nan=False),
                    min_size=4, max_size=4))
    def test_correlators_bounded(self, thetas: list[float]):
        out = chsh(electronic_bell("phi_plus").to_density(), BellAngles(*thetas))
        assert np.abs(out.correlations).max() <= 1.0 + 1e-12

    @settings(max_examples=25)
    @given(st.integers(0, 2**32 - 1))
    def test_sampled_correlation_deterministic_in_seed(self, seed: int):
        angles = BellAngles(0.3, 1.0, 0.7, -0.2)
        p = _populations(*_readings(
            correlation_tensor(electronic_bell("phi_plus").to_density()), angles))
        a = _draw(p, 500, np.random.default_rng(seed))
        b = _draw(p, 500, np.random.default_rng(seed))
        assert a == b

    @settings(max_examples=25)
    @given(st.integers(0, 2**31 - 1))
    def test_sampled_chsh_reproducible(self, seed: int):
        state = electronic_bell("phi_plus").to_density()
        a = chsh(state, DEFAULT_ANGLES, method="sampled", shots=800, seed=seed)
        b = chsh(state, DEFAULT_ANGLES, method="sampled", shots=800, seed=seed)
        assert a.correlations == b.correlations
        assert a.b_value == b.b_value


CORRELATORS = ("e_ab", "e_ab_prime", "e_a_prime_b", "e_a_prime_b_prime")
# amplitudes whose register fits the default size cap, builds and weights
PIPELINE_POINTS = (st.floats(1e-9, 4.0), st.floats(0.0, 1.0),
                   st.sampled_from(VE_VARIANTS), st.sampled_from(EV_VARIANTS))


class TestPipelineRelations:
    """Metamorphic relations of the full-pipeline readout, each checked
    without an oracle (ROADMAP item 29)."""

    @settings(max_examples=40)
    @given(*PIPELINE_POINTS)
    def test_exact_correlators_are_affine_in_delta(self, alpha, delta, ve, ev):
        # the readout is linear in the mixed state, so E(delta) =
        # (1 - delta) E(0) + delta E(1) up to rounding
        enc = EncodingParams.for_amplitudes(alpha)

        def correlators(d: float) -> np.ndarray:
            results = run_pipeline(enc, d, DEFAULT_ANGLES, "exact",
                                   ve_variant=ve, ev_variant=ev)
            return np.array([results[name] for name in CORRELATORS])

        want = (1.0 - delta) * correlators(0.0) + delta * correlators(1.0)
        assert np.abs(correlators(delta) - want).max() <= 1e-14

    @settings(max_examples=40)
    @given(*PIPELINE_POINTS, st.integers(0, 2**32 - 1))
    def test_sampled_b_is_the_exact_b_within_5_se(self, alpha, delta, ve, ev,
                                                  seed):
        enc = EncodingParams.for_amplitudes(alpha)
        exact = run_pipeline(enc, delta, DEFAULT_ANGLES, "exact",
                             ve_variant=ve, ev_variant=ev)
        sampled = run_pipeline(enc, delta, DEFAULT_ANGLES, "sampled", 4096,
                               seed, ve, ev)
        assert (abs(sampled["b_value"] - exact["b_value"])
                <= 5.0 * sampled["b_std_error"])

    @settings(max_examples=40)
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=11))
    def test_bell_scan_follows_the_linear_law(self, deltas):
        # the parity-flip mixture's exact B at the default angles is
        # 2 sqrt(2) (1 - delta), within criterion 07's 1e-8
        cfg = normalize_config({"protocol": "bell-scan",
                                "bell": {"deltas": deltas}})
        rows, _, _ = run_bell_scan(cfg)
        assert [row["delta"] for row in rows] == deltas
        for row in rows:
            assert abs(row["B"] - TSIRELSON * (1.0 - row["delta"])) <= 1e-8

    @settings(max_examples=25)
    @given(st.floats(1e-9, 4.0))
    def test_swap_report_ideal_rows_have_fidelity_one(self, alpha):
        # the ideal builds act exactly on the code space, so each truth
        # table row lands on its target, within the 1e-10 that
        # test_swap_report_tables holds u_swap[ideal,ideal] to.  The ideal
        # reports are read directly: below alpha 0.75 the default cutoff
        # drops more of the kicked cats than leak_tol, and swap-report
        # refuses the run for its displacement rows
        enc = EncodingParams.for_amplitudes(alpha)
        ideal = (report_u_ve("ideal", "a", enc)
                 + report_u_swap("a", enc, "ideal", "ideal"))
        assert len(ideal) == 8
        for row in ideal:
            assert abs(row["fidelity"] - 1.0) <= 1e-10, row
