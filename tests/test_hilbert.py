"""Tensor-space plumbing: layouts, embedding, traces, fidelities."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

from catbell.bosonic import ModeParams, coherent, mode_for, number_op
from catbell.errors import CapacityError, ContractError
from catbell.hilbert import (
    DEFAULT_MAX_DIM,
    DensityMatrix,
    OperatorMatrix,
    SpaceLayout,
    StateVector,
    apply,
    dm_fidelity,
    embed,
    expectation,
    matrix_exp,
    max_total_dim,
    on_layout,
    overlap,
    partial_trace,
    state_fidelity,
    tensor,
    unitarity_residual,
)
from conftest import basis_state

SX = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SY = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SZ = np.array([[1, 0], [0, -1]], dtype=np.complex128)


def qubit_layout(n: int) -> SpaceLayout:
    return SpaceLayout((2,) * n)


class TestLayout:
    def test_total_dim_and_nsites(self):
        lay = SpaceLayout((30, 30, 2, 2))
        assert lay.total_dim == 3600
        assert lay.nsites == 4
        assert lay.dims_of((0, 2)) == (30, 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SpaceLayout(())

    def test_small_factor_rejected(self):
        with pytest.raises(ValueError):
            SpaceLayout((2, 1))

    def test_default_cap(self):
        assert max_total_dim() == DEFAULT_MAX_DIM
        with pytest.raises(CapacityError):
            SpaceLayout((129, 128))

    def test_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("CATBELL_MAX_DIM", "65536")
        assert max_total_dim() == 65536
        lay = SpaceLayout((256, 256))
        assert lay.total_dim == 65536

    def test_cap_env_invalid(self, monkeypatch):
        monkeypatch.setenv("CATBELL_MAX_DIM", "lots")
        with pytest.raises(CapacityError):
            SpaceLayout((2, 2))
        monkeypatch.setenv("CATBELL_MAX_DIM", "1")
        with pytest.raises(CapacityError):
            SpaceLayout((2, 2))


class TestStates:
    def test_basis_state(self):
        # the tensor of unit vectors is the product basis vector
        psi = basis_state(qubit_layout(2), (0, 0))
        assert psi.layout == qubit_layout(2)
        np.testing.assert_array_equal(psi.amps, [1, 0, 0, 0])

    def test_basis_state_ordering(self):
        # tensor puts the first factor slowest: |0,1> sits at flat index 1
        psi = basis_state(qubit_layout(2), (0, 1))
        np.testing.assert_array_equal(psi.amps, [0, 1, 0, 0])
        np.testing.assert_array_equal(psi.as_tensor()[0, 1], 1)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            StateVector(qubit_layout(2), np.zeros(3))

    def test_norm_and_normalized(self):
        psi = StateVector(SpaceLayout((2,)), [3.0, 4.0])
        assert psi.norm == pytest.approx(5.0)
        assert StateVector(psi.layout, psi.amps / psi.norm).norm == pytest.approx(1.0)

    def test_to_density_trace(self):
        psi = basis_state(qubit_layout(2), (1, 0))
        rho = psi.to_density()
        assert rho.trace == pytest.approx(1.0)
        assert rho.matrix[2, 2] == pytest.approx(1.0)

    def test_density_shape_mismatch(self):
        with pytest.raises(ValueError):
            DensityMatrix(qubit_layout(2), np.eye(3))


class TestTensorAndEmbed:
    def test_tensor_states(self):
        a = StateVector(SpaceLayout((2,)), [1, 0])
        b = StateVector(SpaceLayout((3,)), [0, 1, 0])
        ab = tensor([a, b])
        assert ab.layout.dims == (2, 3)
        np.testing.assert_array_equal(ab.amps, [0, 1, 0, 0, 0, 0])

    def test_tensor_coherent_pair_normalized(self):
        mode = ModeParams(30)
        ab = tensor([coherent(2.0, mode), coherent(2.0, mode)])
        assert abs(ab.norm - 1.0) < 1e-10

    def test_embed_sigma_z_first_qubit(self):
        lay = qubit_layout(2)
        op = OperatorMatrix(lay, (0,), SZ)
        full = embed(op)
        np.testing.assert_allclose(full.matrix, np.diag([1, 1, -1, -1]), atol=1e-15)

    def test_embed_identity_is_identity(self):
        lay = SpaceLayout((3, 2))
        op = OperatorMatrix(lay, (1,), np.eye(2))
        np.testing.assert_allclose(embed(op).matrix, np.eye(6), atol=1e-15)

    def test_embed_homomorphism(self):
        # embed(AB) = embed(A) embed(B) for ops on the same factor subset
        rng = np.random.default_rng(7)
        lay = SpaceLayout((3, 2, 2))
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        b = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        op_a = OperatorMatrix(lay, (0, 2), a)
        op_b = OperatorMatrix(lay, (0, 2), b)
        lhs = embed(OperatorMatrix(lay, (0, 2), a @ b)).matrix
        rhs = embed(op_a).matrix @ embed(op_b).matrix
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_on_layout_retargets(self):
        small = SpaceLayout((2,))
        big = SpaceLayout((3, 2, 2))
        op = OperatorMatrix(small, (0,), SX)
        moved = on_layout(op, big, (2,))
        assert moved.acts_on == (2,)
        assert moved.sub_dims == (2,)

    def test_on_layout_dim_mismatch(self):
        op = OperatorMatrix(SpaceLayout((2,)), (0,), SX)
        with pytest.raises(ValueError):
            on_layout(op, SpaceLayout((3, 2)), (0,))

    def test_acts_on_must_increase(self):
        lay = qubit_layout(2)
        with pytest.raises(ValueError):
            OperatorMatrix(lay, (1, 0), np.eye(4))


class TestApply:
    def test_apply_matches_embed(self):
        rng = np.random.default_rng(11)
        lay = SpaceLayout((3, 2, 2))
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        op = OperatorMatrix(lay, (0, 2), m)
        amps = rng.normal(size=12) + 1j * rng.normal(size=12)
        psi = StateVector(lay, amps)
        out = apply(op, psi)
        want = embed(op).matrix @ psi.amps
        assert np.abs(out.amps - want).max() < 1e-12

    def test_apply_layout_mismatch(self):
        op = OperatorMatrix(qubit_layout(2), (0,), SX)
        psi = basis_state(qubit_layout(3), (0, 0, 0))
        with pytest.raises(ValueError):
            apply(op, psi)

    def test_unitary_preserves_norm(self):
        lay = SpaceLayout((4, 2))
        gen = OperatorMatrix(lay, (0,), np.diag([0.0, 1.0, 2.0, 3.0]))
        u = matrix_exp(gen, -1j * 0.7)
        psi = StateVector(lay, np.full(8, np.sqrt(1 / 8)))
        assert abs(apply(u, psi).norm - 1.0) < 1e-12

    def test_expectation_number(self):
        mode = mode_for(2.0)
        n_mean = expectation(number_op(mode), coherent(2.0, mode))
        assert abs(n_mean.real - 4.0) < 1e-9
        assert abs(n_mean.imag) < 1e-12

    def test_expectation_density_agrees(self):
        mode = mode_for(1.5)
        psi = coherent(1.5, mode)
        op = number_op(mode)
        assert expectation(op, psi.to_density()).real == pytest.approx(
            expectation(op, psi).real, abs=1e-12
        )



class TestPartialTrace:
    def test_bell_reduction_maximally_mixed(self):
        lay = qubit_layout(2)
        psi = StateVector(lay, np.array([1, 0, 0, 1]) / np.sqrt(2))
        red = partial_trace(psi, (0,))
        np.testing.assert_allclose(red.matrix, np.eye(2) / 2, atol=1e-12)

    def test_trace_preserved(self):
        rng = np.random.default_rng(3)
        lay = SpaceLayout((3, 2, 2))
        m = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        rho = DensityMatrix(lay, m @ m.conj().T / np.trace(m @ m.conj().T).real)
        red = partial_trace(rho, (0, 2))
        assert abs(red.trace - rho.trace) < 1e-12

    def test_pure_and_density_paths_agree(self):
        rng = np.random.default_rng(5)
        lay = SpaceLayout((4, 3))
        amps = rng.normal(size=12) + 1j * rng.normal(size=12)
        psi = StateVector(lay, amps / np.linalg.norm(amps))
        a = partial_trace(psi, (1,)).matrix
        b = partial_trace(psi.to_density(), (1,)).matrix
        assert np.abs(a - b).max() < 1e-12

    def test_keep_all_is_identity_map(self):
        lay = qubit_layout(2)
        psi = StateVector(lay, np.array([1, 1, 1, 1]) / 2.0)
        red = partial_trace(psi, (0, 1))
        assert np.abs(red.matrix - psi.to_density().matrix).max() < 1e-14

    def test_keep_out_of_range(self):
        psi = basis_state(qubit_layout(2), (0, 0))
        with pytest.raises(ValueError):
            partial_trace(psi, (2,))


class TestMatrixExp:
    def test_pauli_rotation(self):
        op = OperatorMatrix(qubit_layout(1), (0,), SY)
        u = matrix_exp(op, -1j * np.pi / 2)
        np.testing.assert_allclose(u.matrix, -1j * SY, atol=1e-12)

    def test_anti_hermitian_unitarity_large(self):
        rng = np.random.default_rng(19)
        d = 60
        h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = (h + h.conj().T) / 2
        op = OperatorMatrix(SpaceLayout((d,)), (0,), h)
        u = matrix_exp(op, -1j)
        assert unitarity_residual(u) < 1e-10

    def test_generic_matches_scipy(self):
        rng = np.random.default_rng(23)
        m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        op = OperatorMatrix(SpaceLayout((5,)), (0,), m)
        got = matrix_exp(op, 0.3).matrix
        want = scipy.linalg.expm(0.3 * m)
        assert np.abs(got - want).max() < 1e-10

    def test_scale_zero_identity(self):
        op = OperatorMatrix(qubit_layout(1), (0,), SX)
        np.testing.assert_allclose(matrix_exp(op, 0.0).matrix, np.eye(2), atol=1e-15)


class TestFidelity:
    def test_self_fidelity(self):
        psi = basis_state(qubit_layout(2), (1, 1))
        assert state_fidelity(psi, psi) == pytest.approx(1.0)

    def test_coherent_pair_overlap(self):
        mode = mode_for(2.0)
        f = state_fidelity(coherent(2.0, mode), coherent(-2.0, mode))
        assert abs(f - np.exp(-16.0)) < 1e-10

    def test_unnormalized_rejected(self):
        lay = SpaceLayout((2,))
        bad = StateVector(lay, [1.0, 1.0])
        good = basis_state(lay, (0,))
        with pytest.raises(ContractError):
            state_fidelity(bad, good)

    def test_layout_mismatch(self):
        a = basis_state(qubit_layout(1), (0,))
        b = basis_state(SpaceLayout((3,)), (0,))
        with pytest.raises(ValueError):
            state_fidelity(a, b)

    def test_dm_fidelity_mixed_vs_pure(self):
        lay = qubit_layout(2)
        rho = DensityMatrix(lay, np.eye(4) / 4.0)
        psi = StateVector(lay, np.array([1, 0, 0, 1]) / np.sqrt(2))
        assert dm_fidelity(rho, psi) == pytest.approx(0.25, abs=1e-12)

    def test_dm_fidelity_pure_pure_matches_state_fidelity(self):
        rng = np.random.default_rng(31)
        lay = qubit_layout(2)
        a = rng.normal(size=4) + 1j * rng.normal(size=4)
        b = rng.normal(size=4) + 1j * rng.normal(size=4)
        sa = StateVector(lay, a / np.linalg.norm(a))
        sb = StateVector(lay, b / np.linalg.norm(b))
        # pure fast path is exact; the double-density route goes through a
        # psd sqrt whose clipped near-zero eigenvalues cost ~sqrt(eps)
        assert dm_fidelity(sa.to_density(), sb) == pytest.approx(
            state_fidelity(sa, sb), abs=1e-12
        )
        assert dm_fidelity(sa.to_density(), sb.to_density()) == pytest.approx(
            state_fidelity(sa, sb), abs=1e-7
        )

    def test_overlap_keeps_phase(self):
        lay = SpaceLayout((2,))
        a = basis_state(lay, (0,))
        b = StateVector(lay, [1j, 0.0])
        assert overlap(a, b) == pytest.approx(1j)


def test_unitarity_residual_flags_nonunitary():
    op = OperatorMatrix(SpaceLayout((2,)), (0,), 2.0 * np.eye(2))
    assert unitarity_residual(op) == pytest.approx(3.0)
