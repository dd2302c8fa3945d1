"""Tensor-space plumbing: layouts, embedding, traces, fidelities."""

from __future__ import annotations

import dataclasses
from math import prod

import numpy as np
import pytest

from catbell.errors import CapacityError, ContractError
from catbell.hilbert import (
    DensityMatrix,
    OperatorMatrix,
    SpaceLayout,
    StateVector,
    apply,
    band_eigh,
    tensor,
)
from catbell.params import (
    DEFAULT_MAX_DIM,
    ModeParams,
    max_total_dim,
    mode_for,
)
from conftest import (
    basis_state,
    coherent,
    dm_fidelity,
    embed,
    expectation,
    matrix_exp,
    norm,
    number_op,
    overlap,
    partial_trace,
    state_fidelity,
    unitarity_residual,
)

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

    @pytest.mark.parametrize("dims", [(2,), (3, 5), (30, 30, 2, 2), (7, 2, 11)])
    def test_kept_total_dim_leaves_identity_to_dims(self, dims):
        # total_dim is kept from the cap check, not a field: it is the
        # product, and equality, hash and repr read dims alone
        lay = SpaceLayout(dims)
        assert lay.total_dim == prod(dims)
        assert [f.name for f in dataclasses.fields(lay)] == ["dims"]
        assert repr(lay) == f"SpaceLayout(dims={dims!r})"
        twin = SpaceLayout(list(dims))
        assert twin == lay and hash(twin) == hash(lay)
        assert SpaceLayout(dims + (2,)) != lay
        with pytest.raises(dataclasses.FrozenInstanceError):
            lay.total_dim = 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SpaceLayout(())

    def test_small_factor_rejected(self):
        with pytest.raises(ValueError):
            SpaceLayout((2, 1))

    @pytest.mark.parametrize("dims", [(2.7, 3), (3, 4.0), (True, 3),
                                      (2, np.float64(3.0)), ("3", 2)])
    def test_non_integral_factor_rejected(self, dims):
        # a float, bool or string dimension is named, never truncated
        with pytest.raises(ValueError, match="a factor dimension must be an integer"):
            SpaceLayout(dims)

    def test_numpy_integer_factors_accepted(self):
        lay = SpaceLayout((np.int64(3), np.uint8(2)))
        assert lay.dims == (3, 2) and all(type(d) is int for d in lay.dims)

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

    @pytest.mark.parametrize("dims,shown", [
        ((129, 128), "16512"),
        ((999999999999999,), "999999999999999"),
        ((10 ** 15,), "1e+15"),
        ((2, 10 ** 15 - 1), "2e+15"),
        ((99999 * 10 ** 300,), "1e+305"),
        ((123456, 10 ** 400), "1.23e+405"),
        ((10 ** 2000, 10 ** 2000, 2, 2), "4e+4000"),
    ])
    def test_cap_message_shows_a_huge_total_compactly(self, monkeypatch, dims,
                                                      shown):
        # up to 15 digits in full, beyond that 3 significant digits
        monkeypatch.delenv("CATBELL_MAX_DIM", raising=False)
        with pytest.raises(CapacityError) as err:
            SpaceLayout(dims)
        assert str(err.value).startswith(
            f"total dimension {shown} exceeds the cap {DEFAULT_MAX_DIM}; ")


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

    def test_amps_become_a_flat_complex_array(self):
        # strided, big-endian, complex64, real, list and multi-axis input
        # each become a flat, C-contiguous complex128 ndarray of equal values
        layout = SpaceLayout((2, 3))
        flat = np.arange(6, dtype=np.complex128)
        strided = np.arange(12, dtype=np.complex128)[::2]
        big_endian = flat.astype(">c16")
        for other in (flat, flat.reshape(2, 3), strided, flat.real, big_endian,
                      list(flat), flat.astype(np.complex64),
                      flat.reshape(3, 2).T):
            amps = StateVector(layout, other).amps
            assert type(amps) is np.ndarray and amps.dtype == np.complex128
            assert amps.shape == (6,) and amps.flags.c_contiguous
            np.testing.assert_array_equal(amps, np.asarray(other).reshape(-1))

    def test_norm_and_normalized(self):
        psi = StateVector(SpaceLayout((2,)), [3.0, 4.0])
        assert norm(psi) == pytest.approx(5.0)
        assert norm(StateVector(psi.layout, psi.amps / norm(psi))) == pytest.approx(1.0)

    def test_to_density_trace(self):
        psi = basis_state(qubit_layout(2), (1, 0))
        rho = psi.to_density()
        assert np.trace(rho.matrix) == pytest.approx(1.0)
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

    # factor dimensions per case; "signed" is the factor of every signed
    # zero.  Cases 1-4 follow the first factor with shorter ones, which are
    # written a column at a time; 5 and 6 also put a factor longer than the
    # product so far after the first, which is one outer product
    KRON_CASES = {1: (5,), 2: (5, 4), 3: (5, 4, 2), 4: (5, 4, 2, 3),
                  5: (3, 7, 2, 50), 6: ("signed", 2, "signed", 150)}
    SIGNED = np.array([complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0),
                       complex(-0.0, -0.0), complex(1.5, -0.0), complex(-0.0, -2.5)])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_tensor_has_the_kron_bits(self, n):
        # each step is the flattened outer product: the bits of the np.kron
        # chain from ones(1), signed zeros included
        rng = np.random.default_rng(60 + n)
        parts = []
        for d in self.KRON_CASES[n]:
            if d == "signed":
                parts.append(StateVector(SpaceLayout((self.SIGNED.size,)), self.SIGNED))
                continue
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            for part in (v.real, v.imag):
                zero = rng.random(d) < 0.4
                part[zero] = np.copysign(0.0, rng.standard_normal(zero.sum()))
            parts.append(StateVector(SpaceLayout((d,)), v))
        want = np.ones(1, dtype=np.complex128)
        for p in parts:
            want = np.kron(want, p.amps)
        got = tensor(parts)
        assert got.layout.dims == tuple(p.layout.dims[0] for p in parts)
        assert np.array_equal(got.amps.view(np.uint64), want.view(np.uint64))

    def test_tensor_refuses_operators(self):
        op = OperatorMatrix(SpaceLayout((2,)), (0,), SX)
        with pytest.raises(TypeError):
            tensor([op, op])
        with pytest.raises(TypeError):
            tensor([StateVector(SpaceLayout((2,)), [1, 0]), op])

    def test_tensor_coherent_pair_normalized(self):
        mode = ModeParams(30)
        ab = tensor([coherent(2.0, mode), coherent(2.0, mode)])
        assert abs(norm(ab) - 1.0) < 1e-10

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
        assert abs(norm(apply(u, psi)) - 1.0) < 1e-12

    def test_expectation_number(self):
        mode = mode_for(2.0)
        n_mean = expectation(number_op(mode), coherent(2.0, mode))
        assert abs(n_mean.real - 4.0) < 1e-9
        assert abs(n_mean.imag) < 1e-12


class TestPartialTrace:
    def test_bell_reduction_maximally_mixed(self):
        lay = qubit_layout(2)
        psi = StateVector(lay, np.array([1, 0, 0, 1]) / np.sqrt(2))
        red = partial_trace(psi, (0,))
        np.testing.assert_allclose(red.matrix, np.eye(2) / 2, atol=1e-12)

    def test_matches_the_traced_outer_product(self):
        # the contraction against tr_0 |psi><psi|, summed index by index
        rng = np.random.default_rng(5)
        lay = SpaceLayout((4, 3))
        amps = rng.normal(size=12) + 1j * rng.normal(size=12)
        psi = StateVector(lay, amps / np.linalg.norm(amps))
        grid = psi.as_tensor()
        want = np.einsum("ai,aj->ij", grid, grid.conj())
        assert np.abs(partial_trace(psi, (1,)).matrix - want).max() < 1e-12

    def test_refuses_a_density_matrix(self):
        rho = basis_state(qubit_layout(2), (0, 1)).to_density()
        with pytest.raises(TypeError):
            partial_trace(rho, (0,))

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
        assert unitarity_residual(u.matrix) < 1e-10

    def test_rejects_hermitian_exponent(self):
        # the unitary branch is the only one: a Hermitian exponent is refused
        op = OperatorMatrix(qubit_layout(1), (0,), SX)
        with pytest.raises(ValueError, match="anti-Hermitian"):
            matrix_exp(op, 0.3)

    def test_scale_zero_identity(self):
        op = OperatorMatrix(qubit_layout(1), (0,), SX)
        np.testing.assert_allclose(matrix_exp(op, 0.0).matrix, np.eye(2), atol=1e-15)


class TestBandEigh:
    @pytest.mark.parametrize("dim", [2, 3, 17, 64])
    def test_decomposes_the_band(self, dim):
        rng = np.random.default_rng(dim)
        diagonal, off = rng.normal(size=dim), rng.normal(size=dim - 1)
        band = np.diag(diagonal) + np.diag(off, 1) + np.diag(off, -1)
        w, v = band_eigh(diagonal, off)
        assert np.all(np.diff(w) >= 0.0)
        assert np.abs(v.T @ v - np.eye(dim)).max() <= 1e-14 * dim
        assert np.abs(band @ v - v * w).max() <= 1e-13 * dim
        assert v.flags.f_contiguous


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
    assert unitarity_residual(2.0 * np.eye(2)) == pytest.approx(3.0)
