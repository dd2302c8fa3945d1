"""Cat-code logical states, the entangling step, and logical rotations."""

from __future__ import annotations

import sys
from math import inf, isfinite, nextafter, sqrt

import numpy as np
import pytest

from catbell.bosonic import cat
from catbell.coherent import rotation_fidelity
from catbell.encoding import (
    BELL_KINDS,
    MODE_A,
    MODE_B,
    bell_target,
    full_layout,
    logical_basis,
    qubit_state,
)
from catbell.errors import CapacityError, ContractError
from catbell.hilbert import apply
from catbell.params import EVEN, ODD, EncodingParams, ModeParams
from conftest import (
    SchmidtState,
    bell_target_schmidt,
    code_rotate,
    coherent,
    entangled_target_cat_form,
    entangled_target_schmidt,
    expectation,
    fourier_pair,
    hadamard_matrix,
    norm,
    on_register,
    overlap,
    parity_op,
    partial_trace,
    prepare_entangled_schmidt,
    reference_preparation,
    rx_matrix,
    schmidt_fidelity,
    state_fidelity,
    subspace_unitary,
    unitarity_residual,
)


def prepared(enc: EncodingParams):
    """The library's chi_t = pi preparation as a register vector."""
    return prepare_entangled_schmidt(enc).to_state()


class TestParams:
    def test_beta_defaults_to_alpha(self):
        enc = EncodingParams.for_amplitudes(2.0)
        assert enc.beta == 2.0
        assert enc.mode("a") == enc.mode("b")

    def test_explicit_cutoff(self):
        enc = EncodingParams.for_amplitudes(2.0, cutoff=30)
        assert enc.mode_a.cutoff == 30

    def test_non_integral_cutoff_rejected(self):
        with pytest.raises(ValueError, match="cutoff must be an integer"):
            EncodingParams.for_amplitudes(1.0, cutoff=10.5)

    def test_nonpositive_amplitude_rejected(self):
        with pytest.raises(ValueError):
            EncodingParams.for_amplitudes(0.0)
        with pytest.raises(ValueError):
            EncodingParams.for_amplitudes(2.0, beta=-1.0)

    def test_amplitude_whose_square_underflows_rejected(self):
        EncodingParams.for_amplitudes(1e-9)
        with pytest.raises(ValueError, match="at least 1.49e-154"):
            EncodingParams.for_amplitudes(1e-200)
        with pytest.raises(ValueError, match="at least"):
            EncodingParams.for_amplitudes(2.0, beta=1e-200)

    def test_amplitude_bounds_sit_where_the_square_leaves_the_normals(self):
        # the smallest amplitude whose square is a normal double is accepted,
        # the one below it refused; the largest whose square is finite is
        # accepted, the one above it is a CapacityError
        low = sqrt(sys.float_info.min)
        while low * low < sys.float_info.min:
            low = nextafter(low, inf)
        high = sqrt(sys.float_info.max)
        while not isfinite(high * high):
            high = nextafter(high, 0.0)
        mode = ModeParams(30)
        for amp in (low, high):
            EncodingParams(amp, amp, mode, mode)
        with pytest.raises(ValueError, match="at least 1.49e-154"):
            EncodingParams(nextafter(low, 0.0), 1.0, mode, mode)
        above = nextafter(high, inf)
        for alpha, beta in ((above, 1.0), (1.0, above)):
            with pytest.raises(CapacityError, match="overflows"):
                EncodingParams(alpha, beta, mode, mode)

    @pytest.mark.parametrize("cutoff", [None, 30])
    def test_amplitude_whose_square_overflows_is_a_capacity_error(self, cutoff):
        for alpha, beta in ((1e200, None), (2.0, 1e200), (1.7e308, 1.7e308)):
            with pytest.raises(CapacityError, match=r"\|alpha\|\^2 overflows"):
                EncodingParams.for_amplitudes(alpha, beta, cutoff)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            EncodingParams(2.0, 2.0, ModeParams(26), ModeParams(26), epsilon=-0.1)

    def test_epsilon_alpha_window(self):
        EncodingParams(2.0, 2.0, ModeParams(26), ModeParams(26), epsilon=np.pi / 8)
        with pytest.raises(ValueError, match="epsilon\\*alpha"):
            EncodingParams(2.0, 2.0, ModeParams(26), ModeParams(26), epsilon=2.0)

    @pytest.mark.parametrize("alpha", [0.6414318430122907, 0.640625, 2.0])
    def test_window_edge_is_accepted(self, alpha):
        # epsilon = pi / alpha is a half turn; epsilon * alpha rounds above
        # pi at the first two amplitudes
        eps = np.pi / alpha
        enc = EncodingParams(alpha, alpha, ModeParams(8), ModeParams(8), epsilon=eps)
        assert enc.epsilon == eps
        with pytest.raises(ValueError, match="epsilon\\*alpha"):
            EncodingParams(alpha, alpha, ModeParams(8), ModeParams(8),
                           epsilon=float(np.nextafter(eps, np.inf)))

    @pytest.mark.parametrize("field", ["alpha", "beta", "epsilon"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_value_that_is_not_finite_rejected(self, field, value):
        # the error names the field before any arithmetic reads the value
        kwargs = {"alpha": 2.0, "beta": 2.0, "epsilon": None, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            EncodingParams(mode_a=ModeParams(26), mode_b=ModeParams(26), **kwargs)

    def test_accessors(self):
        enc = EncodingParams.for_amplitudes(2.0, beta=3.0)
        assert enc.amplitude("b") == 3.0
        with pytest.raises(ValueError, match="mode must be 'a' or 'b', got 'c'"):
            enc.mode("c")

    def test_unknown_mode_name_is_a_value_error(self, enc2):
        # not a bare KeyError from the mode table, wherever the name enters
        calls = (lambda: enc2.amplitude("c"), lambda: logical_basis("c", enc2),
                 lambda: rotation_fidelity(0.1, enc2, "c"))
        for call in calls:
            with pytest.raises(ValueError, match="mode must be 'a' or 'b', got 'c'"):
                call()

    def test_full_layout(self):
        enc = EncodingParams.for_amplitudes(2.0, cutoff=30)
        assert full_layout(enc).dims == (30, 30, 2, 2)


class TestLogicalBasis:
    def test_codewords_are_cats(self, enc2):
        basis = logical_basis("a", enc2)
        assert state_fidelity(basis.zero, cat(2.0, EVEN, enc2.mode_a)) == pytest.approx(1.0)
        assert state_fidelity(basis.one, cat(2.0, ODD, enc2.mode_a)) == pytest.approx(1.0)

    def test_codewords_orthogonal(self, enc2):
        basis = logical_basis("a", enc2)
        assert overlap(basis.zero, basis.one) == 0.0

    def test_parity_grading(self, enc2):
        p = parity_op(enc2.mode_a)
        basis = logical_basis("a", enc2)
        assert expectation(p, basis.zero).real == pytest.approx(1.0, abs=1e-10)
        assert expectation(p, basis.one).real == pytest.approx(-1.0, abs=1e-10)

    def test_gram_orthonormal(self):
        for alpha, beta in ((0.5, 0.5), (2.0, 3.0), (4.0, 1.0)):
            enc = EncodingParams.for_amplitudes(alpha, beta=beta)
            for which in ("a", "b"):
                basis = logical_basis(which, enc)
                dft_zero, dft_one = fourier_pair(basis)
                vecs = np.column_stack(
                    [basis.zero.amps, basis.one.amps, dft_zero.amps, dft_one.amps]
                )
                gram = vecs[:, :2].conj().T @ vecs[:, :2]
                assert np.abs(gram - np.eye(2)).max() < 1e-12

    def test_dft_states_near_coherent(self, enc3):
        dft_zero, dft_one = fourier_pair(logical_basis("a", enc3))
        f = state_fidelity(dft_zero, coherent(3.0, enc3.mode_a))
        assert f > 1.0 - 1e-7
        f = state_fidelity(dft_one, coherent(-3.0, enc3.mode_a))
        assert f > 1.0 - 1e-7

    def test_dft_orthogonal(self, enc3):
        dft_zero, dft_one = fourier_pair(logical_basis("a", enc3))
        assert abs(overlap(dft_zero, dft_one)) < 1e-10

    def test_dft_logical_overlap_half(self, enc3):
        basis = logical_basis("a", enc3)
        f = state_fidelity(fourier_pair(basis)[0], basis.zero)
        assert abs(f - 0.5) < 1e-6

    def test_projector_rank_two(self, enc2):
        # B B^dag with B = [zero, one]: rotate's code-space projector
        basis = logical_basis("a", enc2)
        b = np.column_stack([basis.zero.amps, basis.one.amps])
        proj = b @ b.conj().T
        w = np.linalg.eigvalsh(proj)
        assert np.sum(w > 0.5) == 2
        assert np.abs(proj @ proj - proj).max() < 1e-12

    def test_subspace_unitary_is_unitary(self, enc2):
        op = subspace_unitary(logical_basis("a", enc2), rx_matrix(0.3))
        assert unitarity_residual(op.matrix) < 1e-10

    def test_rotate_is_the_lifted_unitary(self, enc2):
        # (1 - B B^dag) + B m2 B^dag, built densely here; trailing axes of
        # the input ride along and the input is left untouched
        basis = logical_basis("a", enc2)
        b = np.column_stack([basis.zero.amps, basis.one.amps])
        m2 = rx_matrix(0.3) @ hadamard_matrix()
        dense = np.eye(b.shape[0]) - b @ b.conj().T + b @ m2 @ b.conj().T
        rng = np.random.default_rng(8)
        x = rng.standard_normal((b.shape[0], 2, 3)) + 1j * rng.standard_normal((b.shape[0], 2, 3))
        before = x.copy()
        got = code_rotate(basis, m2, x)
        want = np.einsum("mn,nik->mik", dense, x)
        assert got.shape == x.shape
        assert np.abs(got - want).max() < 1e-14
        assert np.array_equal(x, before)


class TestEntangledPreparation:
    def test_matches_direct_target(self):
        enc = EncodingParams.for_amplitudes(2.0, cutoff=30)
        psi = prepare_entangled_schmidt(enc)
        f = schmidt_fidelity(psi, entangled_target_schmidt(enc))
        assert f >= 1.0 - 1e-8
        assert state_fidelity(psi.to_state(), reference_preparation(enc)) >= 1.0 - 1e-12

    def test_cat_form_factorizations_agree(self, enc2):
        psi = prepare_entangled_schmidt(enc2)
        for side in ("a", "b"):
            form = entangled_target_cat_form(enc2, side=side)
            assert form.left.shape[-1] == 2
            assert schmidt_fidelity(psi, form) >= 1.0 - 1e-10
            assert state_fidelity(psi.to_state(), form.to_state()) >= 1.0 - 1e-10

    def test_bad_side(self, enc2):
        with pytest.raises(ValueError):
            entangled_target_cat_form(enc2, side="c")

    def test_amplitude_pattern(self, enc2, enc3):
        # the 2x2 projection table amp[x, y] = <x_dft, y_logical, 0, 0|psi>
        # is a balanced diagonal; off-balance decays with the coherent
        # branch overlap exp(-2 alpha^2)/(2 sqrt(2))
        def table(enc):
            a, b = logical_basis("a", enc), logical_basis("b", enc)
            xs = np.column_stack([x.amps for x in fourier_pair(a)])
            ys = np.column_stack([b.zero.amps, b.one.amps])
            grid = prepared(enc).as_tensor()[:, :, 0, 0]
            return np.abs(xs.conj().T @ grid @ ys.conj())

        amp2 = table(enc2)
        assert abs(amp2[0, 0] - 2 ** -0.5) < 2e-4
        assert abs(amp2[1, 1] - 2 ** -0.5) < 2e-4
        assert amp2[0, 1] < 2e-4 and amp2[1, 0] < 2e-4
        amp3 = table(enc3)
        assert abs(amp3[0, 0] - 2 ** -0.5) < 1e-6
        assert abs(amp3[1, 1] - 2 ** -0.5) < 1e-6
        assert amp3[0, 1] < 1e-6 and amp3[1, 0] < 1e-6

    def test_reduced_mode_maximally_mixed(self, enc3):
        red = partial_trace(prepared(enc3), (0,))
        w = np.sort(np.linalg.eigvalsh(red.matrix))[::-1]
        assert abs(w[0] - 0.5) < 1e-6
        assert abs(w[1] - 0.5) < 1e-6
        assert w[2] < 1e-8

    @pytest.mark.parametrize("alpha,beta", [(2.0, 2.0), (2.0, 3.0)])
    def test_target_is_the_four_term_sum(self, alpha, beta):
        # the coherent four-term form, summed here as outer products
        enc = EncodingParams.for_amplitudes(alpha, beta)
        ca = [coherent(s * alpha, enc.mode_a).amps for s in (1, -1)]
        cb = [coherent(s * beta, enc.mode_b).amps for s in (1, -1)]
        grid = 0.5 * (np.outer(ca[0], cb[0]) + np.outer(ca[1], cb[0])
                      + np.outer(ca[0], cb[1]) - np.outer(ca[1], cb[1]))
        grid /= np.linalg.norm(grid)
        got = entangled_target_schmidt(enc).to_state().as_tensor()
        assert np.abs(got[:, :, 0, 0] - grid).max() < 1e-15
        assert not got[:, :, 1:, :].any() and not got[:, :, :, 1:].any()

    @pytest.mark.parametrize("alpha,beta", [(2.0, 2.0), (2.0, 3.0)])
    def test_schmidt_preparation_matches_its_target(self, alpha, beta):
        enc = EncodingParams.for_amplitudes(alpha, beta)
        psi = prepare_entangled_schmidt(enc)
        target = entangled_target_schmidt(enc)
        want = state_fidelity(psi.to_state(), target.to_state())
        assert abs(schmidt_fidelity(psi, target) - want) < 1e-14
        assert want > 1.0 - 1e-12


class TestSchmidtState:
    def test_shapes_must_fit_the_layout(self, enc2):
        layout = full_layout(enc2)
        d = enc2.mode_a.cutoff
        ok = np.zeros((d, 2, 2))
        assert SchmidtState(layout, ok, ok).left.dtype == np.complex128
        with pytest.raises(ValueError, match="layout"):
            SchmidtState(layout, ok, np.zeros((d, 2, 3)))
        with pytest.raises(ValueError, match="layout"):
            SchmidtState(layout, np.zeros((d + 1, 2, 2)), ok)

    def test_fidelity_contract(self, enc2, enc3):
        phi = bell_target_schmidt("phi_plus", enc2)
        half = SchmidtState(phi.layout, 0.5 * phi.left, phi.right)
        with pytest.raises(ContractError, match="first state"):
            schmidt_fidelity(half, phi)
        with pytest.raises(ContractError, match="second state"):
            schmidt_fidelity(phi, half)
        with pytest.raises(ValueError, match="layouts"):
            schmidt_fidelity(phi, bell_target_schmidt("phi_plus", enc3))

    def test_inner_matches_the_register(self, enc2):
        rng = np.random.default_rng(4)
        layout = full_layout(enc2)
        d = enc2.mode_a.cutoff

        def state(k):
            f = [rng.standard_normal((d, 2, k)) + 1j * rng.standard_normal((d, 2, k))
                 for _ in range(2)]
            return SchmidtState(layout, *f)

        a, b = state(2), state(3)
        want = overlap(a.to_state(), b.to_state())
        assert abs(a.inner(b) - want) <= 1e-12 * abs(want)
        assert a.norm == pytest.approx(norm(a.to_state()), rel=1e-14)
        a = SchmidtState(layout, a.left / a.norm, a.right)
        b = SchmidtState(layout, b.left / b.norm, b.right)
        want = state_fidelity(a.to_state(), b.to_state())
        assert abs(schmidt_fidelity(a, b) - want) <= 1e-14


    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_register_has_the_einsum_bits(self, k):
        # to_state sums the broadcast products from zero in k order, as
        # einsum does: the same bits, signed zeros included
        rng = np.random.default_rng(40 + k)
        enc = EncodingParams(1.0, 1.0, ModeParams(5, 0.999), ModeParams(4, 0.999))

        def factor(d):
            f = rng.standard_normal((d, 2, k)) + 1j * rng.standard_normal((d, 2, k))
            for part in (f.real, f.imag):
                zero = rng.random(f.shape) < 0.3
                part[zero] = np.copysign(0.0, rng.standard_normal(zero.sum()))
            return f

        state = SchmidtState(full_layout(enc), factor(5), factor(4))
        want = np.einsum("aik,bjk->abij", state.left, state.right).reshape(-1)
        got = state.to_state().amps
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        if k == 1:
            # the products alone keep a -0.0 that the sum from zero drops,
            # so the signed-zero rule is exercised
            plain = (state.left[:, None, :, None, 0]
                     * state.right[None, :, None, :, 0]).reshape(-1)
            assert not np.array_equal(plain.view(np.uint64), want.view(np.uint64))


class TestBellTargets:
    def test_kinds(self, enc2):
        with pytest.raises(ValueError):
            bell_target("phi_minus", enc2)
        assert BELL_KINDS == ("phi_plus", "psi_plus")

    @pytest.mark.parametrize("kind", BELL_KINDS)
    def test_is_the_logical_pair_sum(self, kind, enc2):
        a = logical_basis("a", enc2)
        b = logical_basis("b", enc2)
        pairs = [(a.zero, b.zero), (a.one, b.one)] if kind == "phi_plus" \
            else [(a.zero, b.one), (a.one, b.zero)]
        grid = sum(np.outer(x.amps, y.amps) for x, y in pairs) / np.sqrt(2.0)
        got = bell_target(kind, enc2).as_tensor()
        assert np.abs(got[:, :, 0, 0] - grid).max() < 1e-15
        assert not got[:, :, 1:, :].any() and not got[:, :, :, 1:].any()

    def test_orthogonal_pair(self, enc2):
        phi = bell_target("phi_plus", enc2)
        psi = bell_target("psi_plus", enc2)
        assert abs(overlap(phi, psi)) < 1e-12

    def test_parity_correlation(self, enc2):
        pa = on_register(parity_op(enc2.mode_a), MODE_A, enc2)
        pb = on_register(parity_op(enc2.mode_b), MODE_B, enc2)
        for kind, sign in (("phi_plus", 1.0), ("psi_plus", -1.0)):
            state = bell_target(kind, enc2)
            corr = overlap(apply(pa, state), apply(pb, state)).real
            assert abs(corr - sign) < 1e-10

    def test_hadamard_turns_preparation_into_phi_plus(self, enc2, enc3):
        for enc, floor in ((enc2, 1e-7), (enc3, 1e-8)):
            h = subspace_unitary(logical_basis("a", enc), hadamard_matrix())
            rotated = apply(on_register(h, MODE_A, enc), prepared(enc))
            assert state_fidelity(bell_target("phi_plus", enc), rotated) >= 1.0 - floor

    def test_mode_entropy_one_bit(self, enc2):
        red = partial_trace(bell_target("phi_plus", enc2), (0,))
        w = np.linalg.eigvalsh(red.matrix)
        w = w[w > 1e-12]
        entropy = float(-(w * np.log2(w)).sum())
        assert abs(entropy - 1.0) < 1e-6


class TestRotations:
    """Exact code-space rotations, lifted with conftest.subspace_unitary."""

    def test_rx_zero_is_identity(self, enc2):
        op = subspace_unitary(logical_basis("a", enc2), rx_matrix(0.0))
        assert np.abs(op.matrix - np.eye(enc2.mode_a.cutoff)).max() < 1e-12

    def test_hadamard_squares_to_identity(self, enc2):
        basis = logical_basis("a", enc2)
        h = subspace_unitary(basis, hadamard_matrix())
        zero = basis.zero
        assert state_fidelity(apply(h, apply(h, zero)), zero) > 1.0 - 1e-12

    def test_rx_half_turn_flips_with_phase(self, enc2):
        basis = logical_basis("a", enc2)
        out = apply(subspace_unitary(basis, rx_matrix(np.pi / 2)), basis.zero)
        assert overlap(basis.one, out) == pytest.approx(1j, abs=1e-12)

    def test_hadamard_matrix_involution(self):
        h = hadamard_matrix()
        assert np.abs(h @ h - np.eye(2)).max() < 1e-15


class TestDisplacementRotation:
    def test_angle_dictionary(self, enc2):
        # rotation_fidelity kicks by eps and turns by theta = 2 alpha eps,
        # alpha the named mode's amplitude
        enc = EncodingParams.for_amplitudes(2.0, beta=3.0)
        rep = rotation_fidelity(np.pi / 8, enc2)
        assert (rep["epsilon"], rep["theta"]) == (np.pi / 8, np.pi / 2)
        rep = rotation_fidelity(np.pi / 12, enc, "b")
        assert (rep["epsilon"], rep["theta"]) == (np.pi / 12, 2.0 * 3.0 * (np.pi / 12))
        assert rep["theta"] == pytest.approx(np.pi / 2, abs=1e-15)

    def test_overflowing_angle_is_a_value_error(self, enc2):
        with pytest.raises(ValueError, match="epsilon = 1e[+]308 makes the angle"):
            rotation_fidelity(1e308, enc2)

    @pytest.mark.parametrize("eps,law", [(0.1, 0.990050), (0.2, 0.960789)])
    def test_branch_fidelity_law(self, enc3, eps, law):
        rep = rotation_fidelity(eps, enc3)
        assert abs(rep["f_zero"] - law) < 1e-5
        assert abs(rep["f_one"] - law) < 1e-5
        assert rep["analytic"] == pytest.approx(np.exp(-eps * eps), abs=1e-12)

    def test_zero_angle_perfect(self, enc2):
        rep = rotation_fidelity(0.0, enc2)
        assert rep["f_zero"] == pytest.approx(1.0, abs=1e-12)

    def test_law_sharpens_with_alpha(self):
        # finite-alpha correction to exp(-eps^2) decays like exp(-2 alpha^2);
        # the 1e-10 floor is the basis truncation tail, which dominates once
        # the physical correction drops below it
        for alpha in (2.0, 3.0, 4.0):
            enc = EncodingParams.for_amplitudes(alpha)
            rep = rotation_fidelity(np.pi / (8.0 * alpha), enc)
            bound = max(1e-10, 5.0 * np.exp(-2.0 * alpha * alpha))
            assert abs(rep["f_zero"] - rep["analytic"]) <= bound
            assert abs(rep["f_one"] - rep["analytic"]) <= bound


def test_qubit_state_basis():
    np.testing.assert_array_equal(qubit_state(1).amps, [0, 1])
