"""Truncated single-mode states and operators."""

from __future__ import annotations

import re
import sys
from functools import partial
from math import inf, isinf, nextafter, pi

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catbell.bosonic import cat
from catbell.errors import CapacityError
from catbell.gates import report_u_ev, report_u_swap
from catbell.hilbert import OperatorMatrix, SpaceLayout, StateVector, apply, band_eigh
from catbell.params import (
    EVEN,
    ODD,
    EncodingParams,
    ModeParams,
    cat_norm,
    default_cutoff,
    even_cat_populations,
    mode_for,
    required_cutoff,
)
from catbell.reference import cat_amplitudes, coherent_amplitudes
from conftest import (
    _position_eigenbasis,
    coherent,
    displacement,
    displacement_action,
    expectation,
    fock_report,
    kick_action,
    norm,
    number_op,
    overlap,
    parity_op,
    parity_projectors,
    phase_kick,
    prepare_entangled_schmidt,
    state_fidelity,
    u_swap,
    unitarity_residual,
)


class TestModeParams:
    def test_layout(self):
        # a mode's Fock states live on the one factor of its cutoff
        assert cat(0.5, EVEN, ModeParams(12)).layout == SpaceLayout((12,))

    def test_cutoff_too_small(self):
        with pytest.raises(ValueError):
            ModeParams(1)

    @pytest.mark.parametrize("cutoff", [10.5, 10.0, True, np.float64(12.0)])
    def test_non_integral_cutoff_rejected(self, cutoff):
        # refused where it is made, not later inside coherent
        with pytest.raises(ValueError, match="cutoff must be an integer"):
            ModeParams(cutoff)

    def test_numpy_integer_cutoff_accepted(self):
        assert coherent(1.0, ModeParams(np.int64(20))).amps.size == 20

    def test_leak_tol_bounds(self):
        with pytest.raises(ValueError):
            ModeParams(12, leak_tol=0.0)
        with pytest.raises(ValueError):
            ModeParams(12, leak_tol=2.0)

    def test_default_cutoff_scaling(self):
        assert default_cutoff(2.0) == 26
        assert default_cutoff(8.0) == 122

    @pytest.mark.parametrize("alpha", [1.35e154, 1e200, 1.7e308, 1e200j])
    def test_default_cutoff_of_an_overflowing_square(self, alpha):
        with pytest.raises(CapacityError, match=r"\|alpha\|\^2 overflows"):
            default_cutoff(alpha)

    @pytest.mark.parametrize("alpha", [inf, -inf, float("nan"), complex(0, inf)])
    def test_default_cutoff_of_a_non_finite_amplitude(self, alpha):
        with pytest.raises(ValueError, match="amplitude must be finite"):
            default_cutoff(alpha)

    def test_required_cutoff_is_tight(self):
        need = required_cutoff(2.0, 1e-10)
        coherent(2.0, ModeParams(need))
        with pytest.raises(CapacityError):
            coherent(2.0, ModeParams(need - 1))


class TestCoherent:
    def test_vacuum(self):
        psi = coherent(0.0, ModeParams(5))
        np.testing.assert_array_equal(psi.amps, [1, 0, 0, 0, 0])

    def test_mean_occupation(self):
        mode = mode_for(2.0)
        n = expectation(number_op(mode), coherent(2.0, mode)).real
        assert abs(n - 4.0) < 1e-9

    def test_opposite_phase_overlap(self):
        mode = mode_for(2.0)
        ov = overlap(coherent(2.0, mode), coherent(-2.0, mode))
        assert abs(ov - np.exp(-8.0)) < 1e-10

    def test_leak_guard_message(self):
        with pytest.raises(CapacityError, match="need cutoff >="):
            coherent(2.0, ModeParams(20))

    def test_matches_reference_series(self):
        mode = mode_for(1.7)
        ref = coherent_amplitudes(1.7, mode.cutoff)
        got = coherent(1.7, mode).amps
        assert np.abs(got - ref / np.linalg.norm(ref)).max() < 1e-12


class TestCat:
    def test_norm_constant(self):
        assert cat_norm(3.0, EVEN) == pytest.approx(1.0 / np.sqrt(2 + 2 * np.exp(-18.0)), abs=1e-15)
        assert cat_norm(3.0, ODD) == pytest.approx(1.0 / np.sqrt(2 - 2 * np.exp(-18.0)), abs=1e-15)

    def test_odd_norm_keeps_its_digits_at_small_alpha(self):
        # 2 - 2 exp(-2 alpha^2) cancels to 0 at alpha = 1e-9; the odd cat
        # norm^2 is 4 alpha^2 (1 - alpha^2 + ...)
        assert cat_norm(1e-9, ODD) == pytest.approx(0.5e9, rel=1e-12)
        assert np.abs(cat(1e-9, ODD, ModeParams(4)).amps
                      - np.array([0.0, 1.0, 0.0, 0.0])).max() < 1e-15

    def test_odd_norm_undefined_where_alpha_squared_underflows(self):
        for alpha in (0.0, 1e-200):
            with pytest.raises(ValueError, match="odd cat state is undefined"):
                cat_norm(alpha, ODD)

    def test_bad_parity_label(self):
        with pytest.raises(ValueError):
            cat_norm(2.0, "x")
        with pytest.raises(ValueError):
            cat(2.0, "x", mode_for(2.0))

    def test_even_cat_parity_eigenstate(self):
        mode = mode_for(2.0)
        psi = cat(2.0, EVEN, mode)
        assert abs(expectation(parity_op(mode), psi).real - 1.0) < 1e-10
        # suppressed-parity amplitudes are exact zeros
        assert np.all(psi.amps[1::2] == 0.0)

    def test_odd_cat_parity_eigenstate(self):
        mode = mode_for(2.0)
        psi = cat(2.0, ODD, mode)
        assert abs(expectation(parity_op(mode), psi).real + 1.0) < 1e-10
        assert np.all(psi.amps[0::2] == 0.0)

    def test_odd_cat_occupation(self):
        # <n> = alpha^2 (1 + u) / (1 - u), u = exp(-2 alpha^2)
        mode = mode_for(2.0)
        n = expectation(number_op(mode), cat(2.0, ODD, mode)).real
        u = np.exp(-8.0)
        assert abs(n - 4.0 * (1 + u) / (1 - u)) < 1e-8

    def test_alpha_zero_even_is_vacuum(self):
        psi = cat(0.0, EVEN, ModeParams(4))
        np.testing.assert_allclose(psi.amps, [1, 0, 0, 0], atol=1e-15)

    def test_alpha_zero_odd_undefined(self):
        with pytest.raises(ValueError):
            cat(0.0, ODD, ModeParams(4))

    def test_matches_reference_series(self):
        mode = mode_for(2.0)
        for sign, parity in ((+1, EVEN), (-1, ODD)):
            ref = cat_amplitudes(2.0, sign, mode.cutoff)
            got = cat(2.0, parity, mode).amps
            assert np.abs(got - ref / np.linalg.norm(ref)).max() < 1e-12


class TestEvenCatPopulations:
    """params.even_cat_populations, heat-sweep's cat in Python floats,
    against the populations of bosonic.cat."""

    @pytest.mark.parametrize("alpha", [1e-3, 0.5, 2.0, 3.0, 4.0, 6.0, 8.0])
    def test_matches_the_array_cat(self, alpha):
        # the same recurrence and steps; numpy divides by multiplying with
        # the reciprocal and sums the norm in its own order, so each
        # population may differ by a few ulps (measured up to 9.2 at
        # alpha = 8), and the odd levels are exact zeros in both
        mode = mode_for(alpha)
        amps = cat(alpha, EVEN, mode).amps
        want = (amps.conj() * amps).real
        got = np.array(even_cat_populations(alpha, mode))
        assert np.all(got[1::2] == 0.0) and np.all(want[1::2] == 0.0)
        assert np.all(np.abs(got - want) <= 64 * np.finfo(float).eps * want)

    @pytest.mark.parametrize("alpha,cutoff", [(2.0, 10), (40.0, 2000),
                                              (2.0, 10 ** 9)],
                             ids=["leak", "underflow", "cap"])
    def test_refuses_what_the_array_cat_refuses(self, alpha, cutoff):
        # a short cutoff, a cat whose every amplitude underflows to 0 (the
        # leak check runs before the division by its norm), and a cutoff
        # past the size cap are the same CapacityError in both
        mode = ModeParams(cutoff)
        with pytest.raises(CapacityError) as array_cat:
            cat(alpha, EVEN, mode)
        with pytest.raises(CapacityError) as float_cat:
            even_cat_populations(alpha, mode)
        assert str(float_cat.value) == str(array_cat.value)


class _NoNumpy:
    """Stands in for numpy in the module under test: any use is an error."""

    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} used before the size cap check")


@pytest.mark.parametrize("build", [
    lambda mode: coherent(2.0, mode),
    lambda mode: cat(2.0, EVEN, mode),
])
def test_size_cap_checked_before_allocation(build, monkeypatch):
    # a cutoff of 1e9 would allocate gigabytes before the layout refused it
    import catbell.bosonic
    monkeypatch.setattr(catbell.bosonic, "np", _NoNumpy())
    with pytest.raises(CapacityError, match="exceeds the cap"):
        build(ModeParams(10 ** 9))


def lowering(mode: ModeParams) -> OperatorMatrix:
    """The truncated ladder a, a|k> = sqrt(k)|k-1>."""
    m = np.diag(np.sqrt(np.arange(1, mode.cutoff, dtype=np.float64)), 1)
    return OperatorMatrix(SpaceLayout((mode.cutoff,)), (0,), m)


class TestLadderOperators:
    def test_number_from_ladder(self):
        mode = ModeParams(8)
        a = lowering(mode).matrix
        np.testing.assert_allclose(a.T @ a, number_op(mode).matrix, atol=1e-14)

    def test_annihilation_flips_cat_parity(self):
        mode = mode_for(2.0)
        kicked = apply(lowering(mode), cat(2.0, EVEN, mode))
        kicked = StateVector(kicked.layout, kicked.amps / norm(kicked))
        assert np.all(kicked.amps[0::2] == 0.0)
        assert state_fidelity(kicked, cat(2.0, ODD, mode)) > 1.0 - 1e-11

    def test_projectors_sum_to_identity(self):
        mode = ModeParams(9)
        even, odd = parity_projectors(mode)
        np.testing.assert_array_equal(even.matrix + odd.matrix, np.eye(9))

    def test_odd_projector_kills_even_cat(self):
        mode = mode_for(2.0)
        _, odd = parity_projectors(mode)
        assert norm(apply(odd, cat(2.0, EVEN, mode))) < 1e-12


class TestDisplacement:
    def test_zero_is_identity(self):
        mode = ModeParams(10)
        np.testing.assert_allclose(displacement(0.0, mode).matrix, np.eye(10), atol=1e-14)

    def test_unitary_at_any_cutoff(self):
        for cutoff in (4, 12, 40):
            u = displacement(0.7 + 0.3j, ModeParams(cutoff))
            assert unitarity_residual(u.matrix) < 1e-10

    def test_inverse(self):
        mode = ModeParams(40)
        d = displacement(0.7 + 0.3j, mode)
        dinv = displacement(-0.7 - 0.3j, mode)
        assert np.abs(d.matrix @ dinv.matrix - np.eye(40)).max() < 1e-10

    def test_moves_coherent_state(self):
        # D(i eps)|alpha> = exp(i alpha eps)|alpha + i eps> up to truncation
        mode = mode_for(3.0)
        eps = 0.1
        moved = apply(displacement(1j * eps, mode), coherent(3.0, mode))
        target = coherent(3.0 + 1j * eps, mode)
        ov = overlap(target, moved)
        assert abs(abs(ov) - 1.0) < 1e-8
        assert abs(np.angle(ov) - 3.0 * eps) < 1e-6

    def test_composition_phase(self):
        # D(b1) D(b2) = exp(i Im(b1 conj(b2))) D(b1 + b2); holds on the bulk
        # block only, since boundary elements couple through cut levels
        mode = ModeParams(40)
        b1, b2 = 0.4 + 0.2j, -0.3 + 0.5j
        lhs = displacement(b1, mode).matrix @ displacement(b2, mode).matrix
        rhs = np.exp(1j * np.imag(b1 * np.conj(b2))) * displacement(b1 + b2, mode).matrix
        assert np.abs(lhs - rhs)[:25, :25].max() < 1e-8

    @pytest.mark.parametrize("cutoff", [2, 3, 5, 26, 50, 82, 122])
    def test_matches_expm_at_the_cutoff_edge(self, cutoff):
        # every element, the truncated edge included, and the action on a
        # random (d, 2, 2) factor of unit-norm columns, against a dense
        # scaling-and-squaring exponential of the truncated generator
        a = np.diag(np.sqrt(np.arange(1.0, cutoff)), 1)
        rng = np.random.default_rng(cutoff)
        x = rng.standard_normal((cutoff, 2, 2)) + 1j * rng.standard_normal((cutoff, 2, 2))
        x /= np.linalg.norm(x, axis=0)
        for beta in (0.0, 0.3j, 0.7, -0.4 + 0.9j, 2.5 - 1.5j, 1j * np.pi / 8.0, 5j):
            want = scipy.linalg.expm(beta * a.T - np.conj(beta) * a)
            got = displacement(beta, ModeParams(cutoff)).matrix
            assert np.abs(got - want).max() <= 1e-13, beta
            moved = displacement_action(beta, ModeParams(cutoff))(x)
            assert moved.shape == x.shape
            assert np.abs(moved - np.tensordot(want, x, axes=1)).max() <= 1e-13, beta

    @pytest.mark.parametrize("beta", [complex("nan"), complex("inf"),
                                      complex(1.0, float("nan")),
                                      float("-inf")])
    def test_rejects_a_beta_that_is_not_finite(self, beta):
        with pytest.raises(ValueError, match="beta must be finite"):
            displacement(beta, ModeParams(6))
        with pytest.raises(ValueError, match="beta must be finite"):
            displacement_action(beta, ModeParams(6))

    @pytest.mark.parametrize("cutoff", [3, 14, 122])
    def test_refuses_exactly_the_kicks_whose_phases_overflow(self, cutoff):
        # the largest |beta| with |beta| max|w| finite still builds, and
        # the next float up is an OverflowError; neither warns
        w, _ = _position_eigenbasis(cutoff)
        w_max = float(max(w[-1], -w[0]))
        size = sys.float_info.max / w_max
        while isinf(size * w_max):
            size = nextafter(size, 0.0)
        while not isinf(nextafter(size, inf) * w_max):
            size = nextafter(size, inf)
        mode = ModeParams(cutoff)
        x = np.eye(cutoff, dtype=complex)
        for unit in (1j, -1.0):
            kicked = displacement_action(unit * size, mode)(x)
            assert np.isfinite(kicked).all()
            with pytest.raises(OverflowError, match="overflow at cutoff"):
                displacement_action(unit * nextafter(size, inf), mode)


class TestNamedCutoff:
    """A cutoff that drops more than leak_tol of the cat is a CapacityError
    that names one that holds it (params._check_leak): the Poisson tail of
    |alpha> at leak_tol / (4 N^2), since no level of the cat holds more than
    4 N^2 times that of |alpha>."""

    GRID = [(k / 20.0, tol) for k in range(1, 400) for tol in (1e-10, 1e-6)]

    def named(self, alpha: float, leak_tol: float, cutoff: int) -> int:
        with pytest.raises(CapacityError) as err:
            even_cat_populations(alpha, ModeParams(cutoff, leak_tol))
        found = re.fullmatch(
            rf"cutoff {cutoff} drops \S+ of the '\+' cat state for alpha = "
            rf"{alpha}; need cutoff >= (\d+)", str(err.value))
        return int(found[1])

    def test_every_named_cutoff_on_the_grid_holds_the_cat(self):
        # alpha 0.05 to 19.95 at both tolerances: 158 of these 798 named
        # cutoffs failed their own check when the tail was sized at
        # leak_tol itself
        for alpha, tol in self.GRID:
            even_cat_populations(alpha, ModeParams(self.named(alpha, tol, 2), tol))

    @settings(max_examples=100)
    @given(st.floats(0.05, 20.0), st.sampled_from([1e-10, 1e-6]),
           st.integers(2, 200))
    @example(alpha=0.9, leak_tol=1e-10, cutoff=12)
    # |alpha|^2 = 900 > 745, where exp(-|alpha|^2) underflows to 0
    @example(alpha=30.0, leak_tol=1e-10, cutoff=100)
    def test_the_named_cutoff_holds_the_cat(self, alpha, leak_tol, cutoff):
        try:
            even_cat_populations(alpha, ModeParams(cutoff, leak_tol))
        except CapacityError:
            need = self.named(alpha, leak_tol, cutoff)
            assert need > cutoff
            even_cat_populations(alpha, ModeParams(need, leak_tol))


class TestKickedCats:
    """The cats kicked by D(i eps) at the default cutoffs, where
    swap-report's rows once ran on the Fock path: the engine's rows, which
    have no cutoff, match that path's there within leak_tol."""

    def kicked_leak(self, alpha: float, eps: float, sign: int, cutoff: int) -> float:
        """What the cutoff drops of D(i eps)(|alpha> + sign |-alpha>), from
        the oracle's series amplitudes of an ample basis."""
        dim = cutoff + 80
        v = (np.exp(1j * eps * alpha) * coherent_amplitudes(complex(alpha, eps), dim)
             + sign * np.exp(-1j * eps * alpha)
             * coherent_amplitudes(complex(-alpha, eps), dim))
        mass = np.abs(v) ** 2
        return float(mass[cutoff:].sum() / mass.sum())

    @pytest.mark.parametrize("alpha", [0.75, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0])
    def test_default_cutoffs_hold_the_default_kick(self, alpha):
        enc = EncodingParams.for_amplitudes(alpha)
        mode, eps = enc.mode_a, pi / (4.0 * alpha)
        assert max(self.kicked_leak(alpha, eps, sign, mode.cutoff)
                   for sign in (1, -1)) <= mode.leak_tol
        kick = partial(phase_kick, kick=kick_action("a", enc, "displacement"))
        swap = u_swap("a", enc, "ideal", "displacement")
        pairs = [(report_u_ev("a", enc), kick),
                 (report_u_swap("a", enc, "ideal", "displacement"),
                  partial(swap.apply, mode_axis=0, ion_axis=1))]
        for rows, step in pairs:
            table = [(r["input"], r["target"]) for r in rows]
            fock = fock_report(step, "a", enc, table)
            assert max(abs(r["fidelity"] - f) for r, f in zip(rows, fock)) \
                <= mode.leak_tol

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.7, 9.0])
    def test_a_leaky_cutoff_names_one_that_holds_both(self, alpha):
        # the default kick at the default cutoff: alpha = 0.2, 0.5 and 0.7
        # drop 0.85, 1.1e-6 and 1.9e-9 of a kicked cat, alpha = 9 1.09e-10,
        # and there the Fock path's rows were off.  The cutoff that the
        # Fock path's guard named holds both kicked cats: no level of one
        # holds more than 4 N-^2 times that of |alpha + i eps>.  On it the
        # Fock rows meet the engine's, which read no cutoff, within leak_tol
        eps, tol = pi / (4.0 * alpha), 1e-10
        leaky = mode_for(alpha).cutoff
        assert max(self.kicked_leak(alpha, eps, sign, leaky)
                   for sign in (1, -1)) > tol
        need = required_cutoff(complex(alpha, eps),
                               tol / (4.0 * cat_norm(alpha, ODD) ** 2))
        assert max(self.kicked_leak(alpha, eps, sign, need)
                   for sign in (1, -1)) <= tol
        enc = EncodingParams.for_amplitudes(alpha, cutoff=need, leak_tol=tol)
        rows = report_u_ev("a", EncodingParams.for_amplitudes(alpha))
        kick = partial(phase_kick, kick=kick_action("a", enc, "displacement"))
        fock = fock_report(kick, "a", enc, [(r["input"], r["target"]) for r in rows])
        assert max(abs(r["fidelity"] - f) for r, f in zip(rows, fock)) <= tol


class TestPositionEigenbasis:
    """(w, V) of X = a + a+ are decomposed once per cutoff and reused."""

    @pytest.mark.parametrize("dim", [2, 3, 12, 26, 37, 50, 82, 122])
    def test_cached_equals_a_fresh_decomposition(self, dim):
        _position_eigenbasis.cache_clear()
        fresh = band_eigh(np.zeros(dim), np.sqrt(np.arange(1, dim)))
        for _ in range(2):  # the cold call, then the hit
            for got, want in zip(_position_eigenbasis(dim), fresh):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("dim", [2, 3, 12, 26, 37, 50, 82, 122])
    def test_matches_an_independent_tridiagonal_solver(self, dim):
        # scipy's eigh_tridiagonal as the oracle: the spectrum of X is simple,
        # so each eigenvector is fixed up to its sign
        off = np.sqrt(np.arange(1, dim))
        w_raw, v_raw = scipy.linalg.eigh_tridiagonal(np.zeros(dim), off)
        w, v = _position_eigenbasis(dim)
        assert np.abs(w - w_raw).max() <= 1e-13
        signs = np.sign(np.sum(v * v_raw, axis=0))
        assert np.abs(v * signs - v_raw).max() <= 1e-13
        x = np.diag(off, 1) + np.diag(off, -1)
        assert np.abs(x @ v - v * w).max() <= 1e-12 * dim

    def test_arrays_are_read_only(self):
        for cached in _position_eigenbasis(12):
            with pytest.raises(ValueError, match="read-only"):
                cached[0] = 1.0

    def test_cold_call_equals_warm_call(self):
        betas = (0.0, 0.3j, -0.4 + 0.9j, 1j * np.pi / 8.0)
        cutoffs = (2, 26, 50)

        def build(cold: bool) -> list:
            out = []
            for dim in cutoffs:
                for beta in betas:
                    if cold:
                        _position_eigenbasis.cache_clear()
                    out.append(displacement(beta, ModeParams(dim)).matrix)
            return out

        _position_eigenbasis.cache_clear()
        build(cold=False)
        warm = build(cold=False)
        assert _position_eigenbasis.cache_info().misses == len(cutoffs)
        cold = build(cold=True)
        assert all((got == want).all() for got, want in zip(cold, warm))


class TestCrossKerr:
    """exp(-i pi n_a n_b) on |alpha>|beta>, as prepare_entangled_schmidt
    applies it."""

    def test_diagonal_unitary(self):
        # the phase is diagonal in the Fock pairs and unimodular: the grid
        # keeps the moduli of the product state exactly
        for alpha, beta in ((1.5, 1.5), (2.0, 3.0)):
            enc = EncodingParams.for_amplitudes(alpha, beta)
            grid = prepare_entangled_schmidt(enc).to_state().as_tensor()
            product = np.outer(coherent(alpha, enc.mode_a).amps,
                               coherent(beta, enc.mode_b).amps)
            assert np.array_equal(np.abs(grid[:, :, 0, 0]), np.abs(product))
            assert not grid[:, :, 1:, :].any() and not grid[:, :, :, 1:].any()

    def test_phase_on_fock_pair(self):
        # |n_a, n_b> takes exp(-i pi n_a n_b) = (-1)^(n_a n_b)
        enc = EncodingParams.for_amplitudes(1.5, 2.0)
        grid = prepare_entangled_schmidt(enc).to_state().as_tensor()[:, :, 0, 0]
        product = np.outer(coherent(1.5, enc.mode_a).amps,
                           coherent(2.0, enc.mode_b).amps)
        na, nb = np.indices(product.shape)
        assert np.array_equal(grid, product * (-1.0) ** (na * nb))
        assert grid[2, 3] == pytest.approx(np.exp(-1j * np.pi * 6) * product[2, 3],
                                           abs=1e-15)
