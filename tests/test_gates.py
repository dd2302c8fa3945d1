"""Mode-ion gate builds: truth tables, phases, and the exchange sequence."""

from __future__ import annotations

import functools
import math
import os
import sys
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import conftest
from catbell import gates
from catbell.bell import (
    DEFAULT_ANGLES,
    chsh,
    correlation_tensor,
)
from catbell.coherent import cat_form, preparation
from catbell.encoding import MODE_A, full_layout, logical_basis, qubit_state
from catbell.gates import (
    CNOT_EV_TABLE,
    CNOT_VE_TABLE,
    SWAP_TABLE,
    report_u_ev,
    report_u_swap,
    report_u_ve,
)
from catbell.hilbert import (
    SIGMA_X,
    SIGMA_Y,
    DensityMatrix,
    OperatorMatrix,
    SpaceLayout,
    StateVector,
    apply,
    tensor,
)
from catbell.params import (
    CHSH_METHODS,
    EV_VARIANTS,
    VE_VARIANTS,
    EncodingParams,
    ModeParams,
    cat_norm,
    default_cutoff,
)
from catbell.pipeline import _coherent_stages, run_pipeline
from catbell.reference import u_ve_literal_oracle
from conftest import (
    EXCITED,
    basis_state,
    dm_fidelity,
    entangled_target_cat_form,
    entangled_target_schmidt,
    exchange_op,
    flip_step,
    fock_stages,
    hadamard_matrix,
    lift_pair,
    matrix_exp,
    mixed_bell_fidelity,
    number_op,
    on_register,
    overlap,
    pair_layout,
    pair_matrix,
    parity_projectors,
    partial_trace,
    prepare_entangled_schmidt,
    reduced_electronic,
    reference_preparation,
    register_in_fock,
    rx_matrix,
    subspace_unitary,
    u_ev,
    u_swap,
    u_ve_ideal,
    u_ve_literal,
    unitarity_residual,
)

VARIANT_PAIRS = [(ve, ev) for ve in VE_VARIANTS for ev in EV_VARIANTS]


def conditional_kick(which: str, enc: EncodingParams,
                     kick: np.ndarray) -> OperatorMatrix:
    """Oracle: the phase exp(-i pi |1><1| / 2), then the d x d kick on the
    ion's |1> half."""
    eye = np.eye(kick.shape[0])
    cond = np.kron(eye, np.diag([1.0, 0.0])) + np.kron(kick, EXCITED)
    phase = np.diag([1.0, gates.EXCITED_PHASE])
    return OperatorMatrix(pair_layout(which, enc), (0, 1),
                          cond @ np.kron(eye, phase))


def u_ev_ideal(which: str, enc: EncodingParams) -> OperatorMatrix:
    """Oracle: u_ev with the exact code-space rx(pi/2) in place of D(i eps)."""
    kick = subspace_unitary(logical_basis(which, enc), rx_matrix(np.pi / 2.0))
    return conditional_kick(which, enc, kick.matrix)


def u_ev_expm(which: str, enc: EncodingParams) -> OperatorMatrix:
    """Oracle: u_ev with D(i eps) = exp(i eps (a + a+)) from scipy's
    scaling-and-squaring expm of the truncated generator, so the check does
    not run the eigenbasis action it is checking."""
    epsilon = enc.epsilon
    if epsilon is None:
        epsilon = np.pi / (4.0 * enc.amplitude(which))
    a = np.diag(np.sqrt(np.arange(1.0, enc.mode(which).cutoff)), 1)
    return conditional_kick(which, enc, scipy.linalg.expm(1j * epsilon * (a + a.T)))


def dense_exchange(which: str, enc: EncodingParams, ve: str, ev: str) -> np.ndarray:
    """Oracle: the exchange as the dense product of its three gate matrices."""
    v = (u_ve_ideal if ve == "ideal" else u_ve_literal)(which, enc).matrix
    if ev == "displacement":
        e = u_ev_expm(which, enc).matrix
    else:
        e = u_ev_ideal(which, enc).matrix
    return v @ e @ v


def pair_state(label: str, which: str, enc: EncodingParams) -> StateVector:
    basis = logical_basis(which, enc)
    code = {"0L": basis.zero, "1L": basis.one}[label[:2]]
    ion = qubit_state(int(label[3]))
    return tensor([code, ion])


class TestUveIdeal:
    def test_truth_table_exact(self, enc2):
        for row in report_u_ve("ideal", "a", enc2):
            assert abs(row["fidelity"] - 1.0) <= 1e-12, row

    def test_unitary(self, enc2):
        assert unitarity_residual(u_ve_ideal("a", enc2).matrix) < 1e-10

    def test_involution(self, enc2):
        u = u_ve_ideal("a", enc2).matrix
        assert np.abs(u @ u - np.eye(u.shape[0])).max() < 1e-10

    def test_preserves_mode_parity(self, enc2):
        # block-diagonal over phonon parity: the control never changes
        even, _ = parity_projectors(enc2.mode_a)
        p = np.kron(even.matrix, np.eye(2))
        u = u_ve_ideal("a", enc2).matrix
        assert np.abs(u @ p - p @ u).max() < 1e-12

    def test_flip_row_phase(self, enc2):
        out = apply(u_ve_ideal("a", enc2), pair_state("1L|0e", "a", enc2))
        flip = overlap(pair_state("1L|1e", "a", enc2), out)
        assert flip == pytest.approx(1.0, abs=1e-12)


class TestUveLiteral:
    def test_unitary(self, enc2):
        assert unitarity_residual(u_ve_literal("a", enc2).matrix) < 1e-10

    @pytest.mark.parametrize("alpha", [2.0, 4.0])
    def test_index_build_matches_the_as_written_oracle(self, alpha):
        # the Fock reference's build, flip_step on the odd rows, against
        # scipy's expm of the two generators, at cutoffs 26 and 50
        layout = pair_layout("a", EncodingParams.for_amplitudes(alpha))
        got = pair_matrix(layout, functools.partial(flip_step, literal=True))
        want = u_ve_literal_oracle(layout.dims[0])
        assert np.abs(got - want).max() <= 1e-12

    def test_first_factor_on_fock_one(self, enc2):
        # exp(-i pi n sigma_y) alone sends |n=1>|0e> to -|n=1>|0e>
        lay = pair_layout("a", enc2)
        n = number_op(enc2.mode_a).matrix
        gen = OperatorMatrix(lay, (0, 1), np.kron(n, SIGMA_Y))
        u = matrix_exp(gen, -1j * np.pi)
        psi = basis_state(lay, (1, 0))
        assert overlap(psi, apply(u, psi)) == pytest.approx(-1.0, abs=1e-12)

    def test_second_factor_on_odd_cat(self, enc2):
        # exp(i pi n |1><1|) phases every odd level of the excited branch
        lay = pair_layout("a", enc2)
        n = number_op(enc2.mode_a).matrix
        gen = OperatorMatrix(lay, (0, 1), np.kron(n, EXCITED))
        u = matrix_exp(gen, 1j * np.pi)
        psi = pair_state("1L|1e", "a", enc2)
        assert overlap(psi, apply(u, psi)) == pytest.approx(-1.0, abs=1e-10)

    def test_recorded_defect(self, enc2):
        # as written the two exponentials compose to a pure phase on the odd
        # branch: the claimed ion flips never happen
        rep = report_u_ve("literal", "a", enc2)
        rows = {r["input"]: r for r in rep}
        assert rows["1L|0e"]["fidelity"] < 1e-12
        assert rows["1L|1e"]["fidelity"] < 1e-12
        assert rows["0L|0e"]["fidelity"] > 1.0 - 1e-10
        u = u_ve_literal("a", enc2)
        stay = overlap(pair_state("1L|0e", "a", enc2),
                       apply(u, pair_state("1L|0e", "a", enc2)))
        assert stay == pytest.approx(-1.0, abs=1e-10)


class TestUev:
    def test_excited_phase(self):
        # exp(-i pi / 2) on the ion's |1>
        assert gates.EXCITED_PHASE == pytest.approx(-1j, abs=1e-15)

    def test_ground_rows_exact(self, enc2):
        rep = report_u_ev("a", enc2)
        rows = {r["input"]: r for r in rep}
        assert rows["0L|0e"]["fidelity"] > 1.0 - 1e-12
        assert rows["1L|0e"]["fidelity"] > 1.0 - 1e-12

    def test_default_epsilon_dictionary(self, enc2):
        # default scale pi/(4 alpha) realizes the quarter turn
        explicit = u_ev("a", EncodingParams.for_amplitudes(2.0, epsilon=np.pi / 8.0))
        assert np.abs(u_ev("a", enc2).matrix - explicit.matrix).max() < 1e-14

    def test_flip_rows_follow_quarter_scale_law(self):
        # excited-branch rows approach exp(-eps^2) with eps = pi/(4 alpha)
        for alpha in (3.0, 4.0, 6.0):
            enc = EncodingParams.for_amplitudes(alpha)
            rep = report_u_ev("a", enc)
            law = np.exp(-((np.pi / (4.0 * alpha)) ** 2))
            rows = {r["input"]: r for r in rep}
            assert abs(rows["0L|1e"]["fidelity"] - law) < 1e-3
            assert abs(rows["1L|1e"]["fidelity"] - law) < 1e-3

    def test_double_scale_overrotates(self, enc3):
        # eps = pi/(2 alpha) drives a half turn: the intended flip rows are
        # empty and the kicked branch returns to its input at exp(-eps^2)
        eps = np.pi / 6.0
        enc = EncodingParams.for_amplitudes(3.0, epsilon=eps)
        rep = report_u_ev("a", enc)
        rows = {r["input"]: r for r in rep}
        assert rows["0L|1e"]["fidelity"] < 1e-6
        assert rows["1L|1e"]["fidelity"] < 1e-6
        u = u_ev("a", enc)
        psi = pair_state("0L|1e", "a", enc3)
        back = abs(overlap(psi, apply(u, psi))) ** 2
        assert abs(back - np.exp(-eps * eps)) < 1e-3

    def test_unitary(self, enc2):
        assert unitarity_residual(u_ev("a", enc2).matrix) < 1e-10

    def test_matches_the_expm_oracle(self, enc2):
        for eps in (None, 0.0, 0.1, np.pi / 2.0):
            enc = EncodingParams.for_amplitudes(2.0, epsilon=eps)
            got = u_ev("a", enc).matrix
            assert np.abs(got - u_ev_expm("a", enc).matrix).max() <= 1e-13

    @pytest.mark.parametrize("eps", [float("nan"), float("inf")])
    def test_scale_that_is_not_finite_fails_the_build(self, eps):
        # the kick comes from EncodingParams alone, so a bad scale fails
        # before any gate is built, not when the exchange is first applied
        with pytest.raises(ValueError, match="epsilon must be finite"):
            u_swap("a", EncodingParams.for_amplitudes(2.0, epsilon=eps), "ideal",
                   "displacement")

    def test_params_epsilon_sets_the_kick(self, enc2):
        # params.epsilon, when set, replaces the pi/(4 alpha) default; set
        # to that default it builds the default's bits
        carried = EncodingParams.for_amplitudes(2.0, epsilon=0.1)
        assert np.array_equal(
            u_ev("a", EncodingParams.for_amplitudes(2.0, epsilon=np.pi / 8.0)).matrix,
            u_ev("a", enc2).matrix)
        assert np.abs(u_ev("a", carried).matrix - u_ev("a", enc2).matrix).max() > 0.01


class TestUevIdeal:
    def test_truth_table_with_phases(self, enc2):
        # the trailing ion phase cancels the i from rx(pi/2): amplitudes are
        # +1, not just fidelity 1
        u = u_ev_ideal("a", enc2)
        for in_label, tgt_label in CNOT_EV_TABLE:
            out = apply(u, pair_state(in_label, "a", enc2))
            amp = overlap(pair_state(tgt_label, "a", enc2), out)
            assert amp == pytest.approx(1.0, abs=1e-10), (in_label, tgt_label)

    def test_unitary(self, enc2):
        assert unitarity_residual(u_ev_ideal("a", enc2).matrix) < 1e-10


class TestUswap:
    def test_variant_validation(self, enc2):
        with pytest.raises(ValueError):
            u_swap("a", enc2, ve_variant="exact", ev_variant="displacement")
        with pytest.raises(ValueError):
            u_swap("a", enc2, ve_variant="ideal", ev_variant="exact")
        with pytest.raises(ValueError, match="mode must be 'a' or 'b', got 'c'"):
            u_swap("c", enc2, "ideal", "ideal")

    def test_surrogate_truth_table(self, enc2):
        rep = report_u_swap("a", enc2, ve_variant="ideal", ev_variant="ideal")
        assert min(r["fidelity"] for r in rep) >= 1.0 - 1e-10
        gate = exchange_op("a", enc2, "ideal", "ideal")
        for in_label, tgt_label in SWAP_TABLE:
            out = apply(gate, pair_state(in_label, "a", enc2))
            amp = overlap(pair_state(tgt_label, "a", enc2), out)
            assert amp == pytest.approx(1.0, abs=1e-8), (in_label, tgt_label)

    def test_surrogate_on_mode_b(self, enc2):
        rep = report_u_swap("b", enc2, ve_variant="ideal", ev_variant="ideal")
        assert min(r["fidelity"] for r in rep) >= 1.0 - 1e-10

    def test_table_is_an_exchange(self):
        assert SWAP_TABLE[1] == ("0L|1e", "1L|0e")
        assert SWAP_TABLE[2] == ("1L|0e", "0L|1e")

    @pytest.mark.parametrize("ve,ev", VARIANT_PAIRS)
    def test_exponentiates_nothing(self, monkeypatch, enc2, ve, ev):
        # u_ve is indexing and the kick comes from a tridiagonal solver, so
        # neither the build of the exchange nor its action forms a dense
        # pair matrix, and no module of the program holds an exponential
        def refuse(*args, **kwargs):
            raise AssertionError("the exchange formed its pair matrix")
        monkeypatch.setattr(conftest, "pair_matrix", refuse)
        modules = [m for n, m in sys.modules.items() if n.startswith("catbell.")
                   and n != "catbell.reference"]
        assert not [m for m in modules if hasattr(m, "matrix_exp")]
        for which in ("a", "b"):
            d = enc2.mode(which).cutoff
            u_swap(which, enc2, ve, ev).apply(np.ones((d, 2, 3)), 0, 1)

    def test_displacement_rows_match_frozen_alpha8(self, golden):
        rec = golden("swap_alpha8.json")["swap_rows"]
        enc = EncodingParams.for_amplitudes(8.0)
        rep = report_u_swap("a", enc, "ideal", "displacement")
        got = {r["input"][0] + r["input"][3]: r["fidelity"] for r in rep}
        for key, want in rec.value.items():
            assert abs(got[key] - want) < rec.tolerance, key

    def test_superposition_transfer_matches_frozen_alpha8(self, golden):
        rec = golden("swap_alpha8.json")["swap_superposition_transfer"]
        enc = EncodingParams.for_amplitudes(8.0)
        basis = logical_basis("a", enc)
        plus = StateVector(basis.zero.layout,
                           (basis.zero.amps + basis.one.amps) / np.sqrt(2.0))
        psi = tensor([plus, qubit_state(0)])
        out = apply(exchange_op("a", enc, "ideal", "displacement"), psi)
        ion_plus = StateVector(SpaceLayout((2,)), np.array([1, 1]) / np.sqrt(2.0))
        target = tensor([basis.zero, ion_plus])
        f = abs(overlap(target, out)) ** 2
        assert abs(f - rec.value) < rec.tolerance


class TestRegisterTransfer:
    def test_bell_state_onto_ions_alpha8(self, monkeypatch, golden):
        from conftest import electronic_bell
        from catbell.encoding import bell_target

        monkeypatch.setenv("CATBELL_MAX_DIM", "65536")
        rec = golden("swap_alpha8.json")["electronic_bell_fidelity"]
        enc = EncodingParams.for_amplitudes(8.0)
        psi = bell_target("phi_plus", enc)
        for which in ("a", "b"):
            psi = apply(lift_pair(exchange_op(which, enc, "ideal", "displacement"),
                                  which, enc), psi)
        red = partial_trace(psi, (2, 3))
        f = dm_fidelity(red, electronic_bell("phi_plus"))
        assert abs(f - rec.value) < rec.tolerance
        assert f > 0.98


class TestReports:
    def test_tables_cover_basis(self):
        for table in (CNOT_VE_TABLE, CNOT_EV_TABLE, SWAP_TABLE):
            assert sorted(t[0] for t in table) == ["0L|0e", "0L|1e", "1L|0e", "1L|1e"]

    def test_unknown_ve_variant_refused(self, enc2):
        with pytest.raises(ValueError, match="ve_variant must be one of"):
            report_u_ve("exact", "a", enc2)

    def test_gate_names(self, enc2):
        assert {r["gate"] for r in report_u_swap("a", enc2, "ideal", "ideal")} \
            == {"u_swap[ideal,ideal]"}
        assert {r["gate"] for r in report_u_ve("literal", "a", enc2)} \
            == {"u_ve[literal]"}


class TestExchangeAction:
    """u_swap's Exchange.apply against the dense product ve @ ev @ ve."""

    @pytest.mark.parametrize("which", ["a", "b"])
    @pytest.mark.parametrize("ve,ev", VARIANT_PAIRS)
    @settings(max_examples=12)
    @given(
        st.integers(4, 40),
        st.integers(4, 40),
        st.floats(0.5, 2.0, allow_nan=False),
        st.floats(0.0, 1.0, allow_nan=False),
        st.integers(0, 2**31 - 1),
    )
    # the ends of the kick range, tried whatever the derandomized draws are:
    # at this alpha, eps_frac 1.0 puts eps * alpha one rounding above pi
    @example(cut_a=12, cut_b=17, alpha=0.6414318430122907, eps_frac=1.0, seed=0)
    @example(cut_a=12, cut_b=17, alpha=0.6414318430122907, eps_frac=0.0, seed=0)
    def test_matches_dense_product(self, which, ve, ev, cut_a, cut_b, alpha,
                                   eps_frac, seed):
        # small cutoffs truncate the cats heavily; the algebra is exact
        # regardless, so the leak tolerance is opened wide
        eps = eps_frac * np.pi / alpha
        enc = EncodingParams(alpha, alpha, ModeParams(cut_a, 0.999),
                             ModeParams(cut_b, 0.999), epsilon=eps)
        dense = dense_exchange(which, enc, ve, ev)
        swap = exchange_op(which, enc, ve, ev).matrix
        assert np.abs(swap - dense).max() <= 1e-13

        rng = np.random.default_rng(seed)
        layout = full_layout(enc)
        amps = rng.standard_normal(layout.total_dim) \
            + 1j * rng.standard_normal(layout.total_dim)
        psi = StateVector(layout, amps / np.linalg.norm(amps))
        before = psi.amps.copy()
        axes = (0, 2) if which == "a" else (1, 3)
        got = u_swap(which, enc, ve, ev).apply(psi.as_tensor(), *axes)
        want = apply(lift_pair(OperatorMatrix(pair_layout(which, enc), (0, 1),
                                              dense), which, enc), psi)
        assert np.abs(got.reshape(-1) - want.amps).max() <= 1e-12
        assert np.array_equal(psi.amps, before)  # input left untouched

    def test_extra_axes_ride_along(self, enc2):
        # a batch of pair states as trailing columns, axes given in any order
        ex = u_swap("a", enc2, "ideal", "displacement")
        d = enc2.mode_a.cutoff
        rng = np.random.default_rng(3)
        cols = rng.standard_normal((2 * d, 5)) + 1j * rng.standard_normal((2 * d, 5))
        want = dense_exchange("a", enc2, "ideal", "displacement") @ cols
        got = ex.apply(cols.reshape(d, 2, 5), 0, 1).reshape(2 * d, 5)
        assert np.abs(got - want).max() <= 1e-12
        swapped = ex.apply(np.swapaxes(cols.reshape(d, 2, 5), 0, 1), 1, 0)
        assert np.abs(np.swapaxes(swapped, 0, 1).reshape(2 * d, 5) - want).max() <= 1e-12


def dense_electronic(enc: EncodingParams, delta: float, ve: str,
                     ev: str) -> DensityMatrix:
    """Oracle: run_pipeline's coherent stages on the 4 d_a d_b register, with
    lifted dense code-space rotations and exchange matrices."""
    code_a = logical_basis("a", enc)
    psi = reference_preparation(enc)
    psi = apply(on_register(subspace_unitary(code_a, hadamard_matrix()), MODE_A, enc), psi)
    flip = on_register(subspace_unitary(code_a, SIGMA_X), MODE_A, enc)
    rho = np.zeros((4, 4), dtype=np.complex128)
    for weight, branch in ((1.0 - delta, psi), (delta, apply(flip, psi))):
        for which in ("a", "b"):
            m = dense_exchange(which, enc, ve, ev)
            op = OperatorMatrix(pair_layout(which, enc), (0, 1), m)
            branch = apply(lift_pair(op, which, enc), branch)
        rho += weight * reduced_electronic(branch).matrix
    return DensityMatrix(SpaceLayout((2, 2)), rho)


def dense_pipeline(enc: EncodingParams, delta: float, ev: str,
                   ve: str = "ideal") -> dict:
    """run_pipeline's readout of the dense oracle.

    The fidelity line uses the same closed form as run_pipeline: this helper
    checks the state, not the fidelity formula (the Uhlmann route of
    conftest.dm_fidelity rounds to about 1e-8 against the rank-2 target).
    """
    electronic = dense_electronic(enc, delta, ve, ev)
    outcome = chsh(electronic, DEFAULT_ANGLES)
    out = dict(zip(("e_ab", "e_ab_prime", "e_a_prime_b", "e_a_prime_b_prime"),
                   outcome.correlations))
    out["electronic_fidelity"] = mixed_bell_fidelity(electronic, delta)
    out["b_value"] = outcome.b_value
    return out


def mixed_tensor(enc: EncodingParams, delta: float, ve: str,
                 ev: str) -> np.ndarray:
    """The correlation tensor that run_pipeline reads out: the memoized
    branches' tensors mixed with weights (1 - delta, delta)."""
    _, _, t_keep, t_flip = _coherent_stages(enc, ve, ev)
    return (1.0 - delta) * np.array(t_keep) + delta * np.array(t_flip)


def pair_of(t) -> DensityMatrix:
    """The two-qubit state whose correlation tensor is t: rho = sum_mn T_mn
    sigma_m (x) sigma_n / 4."""
    paulis = [np.eye(2), SIGMA_X, SIGMA_Y, np.diag([1.0, -1.0])]
    rho = sum(t[m][n] * np.kron(paulis[m], paulis[n])
              for m in range(4) for n in range(4)) / 4.0
    return DensityMatrix(SpaceLayout((2, 2)), rho.astype(np.complex128))


def branch_pairs(enc: EncodingParams, ve: str, ev: str) -> list[DensityMatrix]:
    """The kept and flipped electronic pairs of a cold run of the coherent
    stages, rebuilt from their correlation tensors."""
    _coherent_stages.cache_clear()
    return [pair_of(t) for t in _coherent_stages(enc, ve, ev)[2:]]


# the dense oracle runs this many levels above each mode's default cutoff,
# where the coherent states' dropped tail is far below rounding; at the
# default cutoffs the truncation itself moved T by up to 1.2e-10 (alpha 8),
# and the engine, which has no cutoff, is held to the oracle without it
ORACLE_MARGIN = 40


def oracle_encoding(enc: EncodingParams) -> EncodingParams:
    """enc with each mode's cutoff ORACLE_MARGIN levels above its default."""
    return EncodingParams(
        enc.alpha, enc.beta,
        ModeParams(default_cutoff(enc.alpha) + ORACLE_MARGIN, enc.mode_a.leak_tol),
        ModeParams(default_cutoff(enc.beta) + ORACLE_MARGIN, enc.mode_b.leak_tol),
        enc.epsilon)


AMPLITUDES = [(2.0, 2.0), (4.0, 4.0), (2.0, 3.0)]
# (ve, delta) beyond test_results_match's (ideal, 0.15)
MORE_CASES = [(ve, d) for ve in VE_VARIANTS for d in (0.0, 0.15, 1.0)
              if (ve, d) != ("ideal", 0.15)]


class TestEngineAgainstFock:
    """catbell.coherent against its Fock differential reference
    (conftest.fock_stages), the chain that full-pipeline ran before."""

    # TestPipelineAgainstDense's tolerance: at the cutoffs below, where the
    # dropped tail of every kicked state is far below leak_tol, T moved by
    # at most 5.1e-15 over 600 draws of this strategy and all four builds
    TOL = 1e-12

    @settings(max_examples=40)
    @given(st.floats(0.1, 4.0), st.floats(0.1, 4.0),
           st.none() | st.floats(0.0, 1.0), st.sampled_from(VARIANT_PAIRS),
           st.floats(0.0, 1.0))
    def test_tensors_match_the_fock_path(self, alpha, beta, eps_frac, builds,
                                         delta):
        ve, ev = builds
        eps = None if eps_frac is None else eps_frac * np.pi / max(alpha, beta)

        def cutoff(amp: float) -> int:
            # the default cutoffs hold the cats, not the kicked states
            # |amp +- i eps>: there T moved by up to 1.2e-6 at alpha 0.54,
            # eps pi / (4 alpha), and by 0.1 at alpha 0.2.  These hold
            # them, with a spare that grows with the kicked state's width:
            # a flat 20 levels left T off by 1.1e-10 at alpha 0.125, eps
            # pi / alpha (cutoff 820), and 60 by 2.4e-15
            kick = np.pi / (4.0 * amp) if eps is None else eps
            return default_cutoff(amp + kick) + 20 + 2 * math.ceil(amp + kick)

        enc = EncodingParams(alpha, beta, ModeParams(cutoff(alpha)),
                             ModeParams(cutoff(beta)), eps)
        _coherent_stages.cache_clear()
        cold = run_pipeline(enc, delta, DEFAULT_ANGLES, ve_variant=ve,
                            ev_variant=ev)
        prep, had, keep, flip = _coherent_stages(enc, ve, ev)
        with mock.patch.dict(os.environ, {"CATBELL_MAX_DIM": "8388608"}):
            f_prep, f_had, f_keep, f_flip = fock_stages(enc, ve, ev)
        assert abs(prep - f_prep) <= self.TOL and abs(had - f_had) <= self.TOL
        assert np.abs(np.array(keep) - f_keep).max() <= self.TOL
        assert np.abs(np.array(flip) - f_flip).max() <= self.TOL
        t = (1.0 - delta) * np.array(f_keep) + delta * np.array(f_flip)
        assert abs(cold["b_value"] - chsh(pair_of(t)).b_value) <= 4 * self.TOL
        # warm equals cold, bit for bit
        assert repr(run_pipeline(enc, delta, DEFAULT_ANGLES, ve_variant=ve,
                                 ev_variant=ev)) == repr(cold)

    @pytest.mark.parametrize("alpha,beta", [(2.0, 2.0), (0.7, 3.0), (3.0, 1.5)])
    def test_preparation_and_cat_forms_are_the_fock_paths(self, alpha, beta):
        # prepare's registers on Fock levels against the Schmidt-form
        # builders prepare once ran, at cutoffs that hold the cats
        enc = EncodingParams(alpha, beta, ModeParams(default_cutoff(alpha) + 20),
                             ModeParams(default_cutoff(beta) + 20))
        mode_a, mode_b, prepared, target = preparation(enc)
        pairs = [(prepared, prepare_entangled_schmidt(enc)),
                 (target, entangled_target_schmidt(enc))]
        pairs += [(cat_form(mode_a, mode_b, side),
                   entangled_target_cat_form(enc, side)) for side in ("a", "b")]
        for engine, fock in pairs:
            got = register_in_fock(mode_a, mode_b, engine, enc).amps
            assert np.abs(got - fock.to_state().amps).max() <= 1e-13

    @pytest.mark.parametrize("alpha,beta", [(2.0, 2.0), (0.7, 3.0), (6.0, 6.0)])
    def test_hadamard_keeps_its_physical_deficit(self, alpha, beta):
        # H acts on the cat code, but the prepared E_+- have norms 1/(2 N+-)
        # that differ, so the pair reaches phi+ only to
        # F = (u_a u_b / 8)^2, u = 1/N+ + 1/N- = sqrt(2 + 2 e^{-2 a^2}) +
        # sqrt(2 - 2 e^{-2 a^2})
        enc = EncodingParams.for_amplitudes(alpha, beta)
        got = run_pipeline(enc, 0.0, DEFAULT_ANGLES)["hadamard_fidelity"]
        u_a, u_b = (1.0 / cat_norm(x, "+") + 1.0 / cat_norm(x, "-")
                    for x in (alpha, beta))
        assert abs(got - (u_a * u_b / 8.0) ** 2) <= 1e-14
        if alpha == 2.0:
            assert 1.0 - got == pytest.approx(1.0 - 0.999999943732, abs=1e-12)


class TestDisplacementLaw:
    @pytest.mark.parametrize("delta", [0.0, 0.1, 0.3])
    @pytest.mark.parametrize("alpha", [3.0, 4.0])
    def test_b_follows_the_kick_overlap_law(self, alpha, delta):
        # each kick leaves its mode's two branches overlapping by
        # e^(-eps^2/2), eps = pi/(4 alpha), so the displacement build gives
        # B = 2 sqrt(2) (1 - delta) exp(-eps^2), up to the leak tolerance
        enc = EncodingParams.for_amplitudes(alpha)
        got = run_pipeline(enc, delta, DEFAULT_ANGLES, method="exact",
                           ev_variant="displacement")["b_value"]
        law = 2.0 * np.sqrt(2.0) * (1.0 - delta) * np.exp(-(np.pi / (4.0 * alpha)) ** 2)
        assert abs(got - law) <= 1e-9


class TestPipelineAgainstDense:
    """The coherent-state engine against the dense register oracle built
    ORACLE_MARGIN levels above the default cutoffs (oracle_encoding)."""

    @pytest.fixture(autouse=True)
    def raised_cap(self, monkeypatch):
        # 4 x 90 x 90 amplitudes at alpha 4
        monkeypatch.setenv("CATBELL_MAX_DIM", "65536")

    @pytest.mark.parametrize("ev", EV_VARIANTS)
    @pytest.mark.parametrize("alpha,beta", AMPLITUDES)
    def test_results_match(self, alpha, beta, ev):
        enc = EncodingParams.for_amplitudes(alpha, beta)
        got = run_pipeline(enc, 0.15, DEFAULT_ANGLES, ev_variant=ev)
        for name, want in dense_pipeline(oracle_encoding(enc), 0.15, ev).items():
            assert abs(got[name] - want) <= 1e-12, name

    @pytest.mark.parametrize("ev", EV_VARIANTS)
    @pytest.mark.parametrize("alpha,beta", AMPLITUDES)
    @pytest.mark.parametrize("ve,delta", MORE_CASES)
    def test_variants_and_edge_weights(self, ve, delta, alpha, beta, ev):
        enc = EncodingParams.for_amplitudes(alpha, beta)
        t = mixed_tensor(enc, delta, ve, ev)
        dense = dense_electronic(oracle_encoding(enc), delta, ve, ev)
        assert np.abs(t - correlation_tensor(dense)).max() <= 1e-13
        got = run_pipeline(enc, delta, DEFAULT_ANGLES, ve_variant=ve,
                           ev_variant=ev)
        for name, want in dense_pipeline(oracle_encoding(enc), delta, ev,
                                         ve).items():
            assert abs(got[name] - want) <= 1e-12, name

    @pytest.mark.parametrize("ve,ev", VARIANT_PAIRS)
    @pytest.mark.parametrize("alpha,beta", AMPLITUDES)
    def test_coordinates_read_as_the_mixed_pair(self, alpha, beta, ve, ev):
        # run_pipeline reads its mixed tensor; chsh and mixed_bell_fidelity
        # read the mixed pair, as run_pipeline once did
        enc = EncodingParams.for_amplitudes(alpha, beta)
        keep, flip = branch_pairs(enc, ve, ev)
        for delta in (0.0, 0.15, 1.0):
            rho = DensityMatrix(SpaceLayout((2, 2)),
                                (1.0 - delta) * keep.matrix + delta * flip.matrix)
            for method in CHSH_METHODS:
                got = run_pipeline(enc, delta, DEFAULT_ANGLES, method, 4096, 7,
                                   ve, ev)
                want = chsh(rho, DEFAULT_ANGLES, method, 4096, 7)
                assert abs(got["electronic_fidelity"]
                           - mixed_bell_fidelity(rho, delta)) <= 1e-15
                assert abs(got["b_value"] - want.b_value) <= 1e-15
                names = ("e_ab", "e_ab_prime", "e_a_prime_b", "e_a_prime_b_prime")
                for name, e in zip(names, want.correlations):
                    assert abs(got[name] - e) <= 1e-15, (name, delta, method)
                if method == "sampled":  # the same counts, bit for bit
                    assert [got[name] for name in names] == list(want.correlations)
                    assert got["b_std_error"] == want.std_error

    @pytest.mark.parametrize("ev", EV_VARIANTS)
    @pytest.mark.parametrize("alpha,beta", AMPLITUDES)
    def test_literal_build_transfers_nothing(self, alpha, beta, ev):
        # u_ve[literal] is diag((-1)^n, 1) on the ion, so the ions never leave
        # |0>|0>: every correlation on the equator is an exact zero
        enc = EncodingParams.for_amplitudes(alpha, beta)
        for delta in (0.0, 0.1):
            got = run_pipeline(enc, delta, DEFAULT_ANGLES, method="exact",
                               ve_variant="literal", ev_variant=ev)
            for name in ("e_ab", "e_ab_prime", "e_a_prime_b",
                         "e_a_prime_b_prime", "b_value"):
                assert got[name] == 0.0, (name, delta)

    @pytest.mark.parametrize("alpha,beta", AMPLITUDES)
    def test_schmidt_terms_rebuild_the_preparation(self, alpha, beta):
        enc = EncodingParams.for_amplitudes(alpha, beta)
        terms = prepare_entangled_schmidt(enc)
        assert terms.left.shape[-1] == 2
        rebuilt = np.einsum("aik,bjk->abij", terms.left, terms.right)
        want = reference_preparation(enc).as_tensor()
        assert np.abs(rebuilt - want).max() <= 1e-12
