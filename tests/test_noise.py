"""Heating channel: its exact law, the Fock-space propagator and jump
trajectories."""

from __future__ import annotations

import warnings
from math import exp, lgamma, log, log1p, prod, tanh

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from catbell.bell import mixed_bell
from catbell.bosonic import cat, coherent
from catbell.cli import normalize_config
from catbell.encoding import MODE_A, MODE_B, bell_target
from catbell.errors import ContractError
from catbell.hilbert import DensityMatrix, StateVector
import catbell.noise
from catbell.noise import (
    HeatingParams,
    _SEED_BLOCK,
    _Node,
    _diagonal_block,
    _mode_view,
    _place,
    propagate,
    sample_trajectory,
    trajectory_rng,
)
from catbell.params import (
    EVEN,
    EncodingParams,
    ModeParams,
    SpaceLayout,
    heated_moments,
    mode_for,
)
from catbell.pipeline import run_full_pipeline
from catbell.reference import liouvillian_expm, liouvillian_matrix
from conftest import (
    basis_state,
    dm_fidelity,
    expectation,
    on_register,
    parity_op,
    readouts,
)


def random_density(dim: int, seed: int) -> DensityMatrix:
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return DensityMatrix(SpaceLayout((dim,)), rho / np.trace(rho).real)


def random_matrix(dim: int, kind: str, seed: int) -> DensityMatrix:
    """A unit-trace Hermitian or general complex matrix over one mode."""
    if kind == "hermitian":
        return random_density(dim, seed)
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m /= np.linalg.norm(m)
    m += (1.0 - np.trace(m)) / dim * np.eye(dim)
    return DensityMatrix(SpaceLayout((dim,)), m)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            HeatingParams(-0.1, 1.0)
        with pytest.raises(ValueError):
            HeatingParams(0.1, -1.0)
        with pytest.raises(ValueError):
            HeatingParams(0.1, 1.0, steps=0)

    @pytest.mark.parametrize("steps", [2.5, 1e7, 3.0, True, False, "4",
                                       np.float64(5.0)])
    def test_non_integer_steps_refused(self, steps):
        # a float would reach np.linspace as a TypeError, or print as
        # "10000000.0 recorded steps"; a bool is not a count either
        with pytest.raises(ValueError, match="steps must be an integer"):
            HeatingParams(0.01, 1.0, steps=steps)

    @pytest.mark.parametrize("steps", [1, 7, np.int64(3), 10 ** 15])
    def test_integer_steps_accepted(self, steps):
        assert HeatingParams(0.01, 1.0, steps=steps).steps == steps

    def test_constant_rate_is_false_alone(self):
        # the sampler has one law; False stays accepted, as the fourth
        # positional argument too, and anything else, truthy or not, is
        # refused by name
        assert HeatingParams(1e-3, 2.0, None, False).constant_rate is False
        for value in (True, 1, 0, "no", "", None, np.bool_(False)):
            with pytest.raises(ValueError, match="constant_rate must be False"):
                HeatingParams(1e-3, 2.0, None, value)

    # a non-finite rate or duration would leave sample_trajectory drawing
    # jump times forever, so the parameters themselves must refuse it
    @pytest.mark.parametrize("gamma,duration", [
        (float("nan"), 1.0), (float("inf"), 1.0),
        (0.1, float("inf")), (0.1, float("nan")),
    ])
    def test_non_finite_rejected(self, gamma, duration):
        with pytest.raises(ValueError, match="finite"):
            HeatingParams(gamma, duration)


def block_generator(rho: np.ndarray, gamma: float) -> np.ndarray:
    """The heating generator applied to rho from the per-diagonal blocks.

    Diagonals m and -m of rho each go through gamma V diag(w) V^T of
    _diagonal_block(d, m); every other entry of the result is zero.
    """
    dim = rho.shape[0]
    out = np.zeros_like(rho)
    for m in range(dim):
        w, v = _diagonal_block(dim, m)
        block = gamma * (v * w) @ v.T
        rows, cols = np.arange(dim - m), np.arange(m, dim)
        out[rows, cols] = block @ np.diagonal(rho, m)
        out[cols, rows] = block @ np.diagonal(rho, -m)
    return out


def oracle_generator(rho: np.ndarray, gamma: float) -> np.ndarray:
    dim = rho.shape[0]
    return (liouvillian_matrix(gamma, dim) @ rho.reshape(-1)).reshape(dim, dim)


class TestRhs:
    """The generator's right-hand side, as the diagonal blocks state it,
    against the superoperator of reference.liouvillian_matrix."""

    def test_vacuum_heats_at_gamma(self):
        rho = np.zeros((12, 12), dtype=np.complex128)
        rho[0, 0] = 1.0
        dn = np.trace(np.diag(np.arange(12.0)) @ block_generator(rho, 0.3)).real
        assert abs(dn - 0.3) < 1e-10

    def test_traceless(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        assert abs(np.trace(block_generator(rho, 0.2))) < 1e-12

    def test_coherent_amplitude_stationary(self):
        mode = mode_for(2.0)
        rho = coherent(2.0, mode).to_density().matrix
        a = np.diag(np.sqrt(np.arange(1, mode.cutoff, dtype=np.float64)), 1)
        da = np.trace(a @ block_generator(rho, 0.01))
        assert abs(da) < 1e-9

    @given(dim=st.integers(1, 12),
           kind=st.sampled_from(["hermitian", "general", "top_level"]),
           gamma=st.floats(0.0, 2.0),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_superoperator_oracle(self, dim, kind, gamma, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        if kind == "hermitian":
            m = m + m.conj().T
        elif kind == "top_level":  # weight only on the truncation edge
            m[:-1, :-1] = 0.0
        m /= np.linalg.norm(m)
        got = block_generator(m, gamma)
        assert np.abs(got - oracle_generator(m, gamma)).max() <= 1e-12

    @pytest.mark.parametrize("gamma", [0.3, 2.0])
    @pytest.mark.parametrize("dim", range(1, 13))
    def test_diagonal_blocks_are_the_generator(self, dim, gamma):
        # the oracle keeps a rho supported on diagonals +-m there, and on
        # each of them acts as gamma V diag(w) V^T of _diagonal_block
        rng = np.random.default_rng(dim)
        for m in range(dim):
            w, v = _diagonal_block(dim, m)
            assert np.abs(v.T @ v - np.eye(dim - m)).max() <= 1e-14
            block = gamma * (v * w) @ v.T
            upper, lower = rng.normal(size=(2, dim - m)) + 1j * rng.normal(size=(2, dim - m))
            upper, lower = upper / np.linalg.norm(upper), lower / np.linalg.norm(lower)
            rho = np.diag(upper, m) + (np.diag(lower, -m) if m else 0.0)
            want = oracle_generator(rho, gamma)
            off = np.abs(np.subtract.outer(np.arange(dim), np.arange(dim))) != m
            assert np.all(want[off] == 0.0)
            assert np.abs(np.diagonal(want, m) - block @ upper).max() <= 1e-13
            if m:
                assert np.abs(np.diagonal(want, -m) - block @ lower).max() <= 1e-13


class TestEvolve:
    """noise.propagate: rho under the truncated channel, exactly, against
    the superoperator exponential of reference.liouvillian_expm."""

    def test_zero_gamma_identity(self):
        mode = mode_for(1.5)
        rho0 = cat(1.5, EVEN, mode).to_density()
        got = propagate(rho0, HeatingParams(0.0, 1.0, steps=50))
        assert np.array_equal(got.matrix, rho0.matrix)

    @pytest.mark.parametrize("kind", ["hermitian", "general"])
    @pytest.mark.parametrize("gamma", [0.3, 2.0])
    @pytest.mark.parametrize("dim", [2, 3, 5, 12])
    def test_matches_superoperator_exponential(self, dim, gamma, kind):
        # a one-mode layout has d >= 2, so d = 1 is covered by the block test
        rho0 = random_matrix(dim, kind, seed=10 * dim + int(gamma))
        for duration in (0.35, 0.7):
            want = liouvillian_expm(rho0.matrix, gamma, duration)
            got = propagate(rho0, HeatingParams(gamma, duration)).matrix
            assert np.abs(got - want).max() <= 1e-13
            for x, y in zip(readouts(got), readouts(want)):
                assert abs(x - y) <= 1e-13

    def test_stiff_top_level_is_exact(self):
        # h gamma (2d) = 0.5 on the top level for two steps: there the old
        # fixed-step RK4 integrator was more than 1e-4 off
        dim, duration = 12, 1.0
        gamma = 0.5 / (2 * dim * duration / 2)
        rho0 = basis_state(SpaceLayout((dim,)), (dim - 1,)).to_density()
        got = propagate(rho0, HeatingParams(gamma, duration)).matrix
        want = liouvillian_expm(rho0.matrix, gamma, duration)
        assert np.abs(got - want).max() <= 1e-13
        assert abs(readouts(got)[0] - readouts(want)[0]) <= 1e-13

    def test_input_untouched_and_results_unshared(self):
        rho0 = random_density(6, seed=11)
        before = rho0.matrix.copy()
        final = propagate(rho0, HeatingParams(0.05, 1.0))
        assert np.array_equal(rho0.matrix, before)
        assert not np.shares_memory(final.matrix, rho0.matrix)

    def test_occupation_growth(self):
        mode = mode_for(2.0)
        rho0 = coherent(2.0, mode).to_density()
        n0 = readouts(rho0.matrix)[0]
        n1 = readouts(propagate(rho0, HeatingParams(0.01, 1.0)).matrix)[0]
        assert abs(n1 - 4.01) < 1e-4
        assert abs(n0 - 4.0) < 1e-8

    def test_amplitude_conserved(self):
        mode = mode_for(2.0)
        rho0 = coherent(2.0, mode).to_density()
        a1 = readouts(propagate(rho0, HeatingParams(0.01, 1.0)).matrix)[1]
        assert abs(a1 - readouts(rho0.matrix)[1]) < 1e-9

    def test_matches_exponentiated_generator(self):
        mode = ModeParams(12, leak_tol=1e-2)
        rho0 = cat(2.0, EVEN, mode).to_density()
        got = propagate(rho0, HeatingParams(0.01, 1.0))
        want = liouvillian_expm(rho0.matrix, 0.01, 1.0)
        assert np.abs(got.matrix - want).max() < 1e-6

    def test_parity_matches_frozen(self, golden):
        # the d = 12 truncated model, as reference.py froze it
        rec = golden("heating_parity.json")["cat_parity_after_heating"]
        mode = ModeParams(12, leak_tol=1e-5)
        rho0 = cat(1.5, EVEN, mode).to_density()
        rho = propagate(rho0, HeatingParams(0.02, 1.0)).matrix
        assert abs(readouts(rho)[2] - rec.value) < rec.tolerance

    def test_long_time_is_the_uniform_steady_state(self):
        # gamma t = 1e3 is far past every decay time of the truncated ladder;
        # the balanced channel leaves the levels equally filled
        dim = 12
        rho0 = basis_state(SpaceLayout((dim,)), (0,)).to_density()
        rho = propagate(rho0, HeatingParams(1e3, 1.0)).matrix
        assert np.abs(rho - np.eye(dim) / dim).max() <= 1e-12
        n, _, parity = readouts(rho)
        assert abs(n - (dim - 1) / 2) <= 1e-9
        assert abs(parity) <= 1e-9

    @pytest.mark.parametrize("rate", [1e3, 1e9])
    def test_steady_state_holds_its_trace_at_any_rate(self, rate):
        # the w = 0 pair of block 0 is exact, so the trace does not drift
        # linearly in gamma t (2.8e-12 at 1e3 and an error at 1e9 when the
        # solver's rounded eigenvalue, about 1e-15, was used)
        dim = 26
        rho0 = cat(2.0, EVEN, mode_for(2.0)).to_density()
        assert rho0.matrix.shape[0] == dim
        rho = propagate(rho0, HeatingParams(1.0, rate)).matrix
        assert abs(np.trace(rho).real - 1.0) <= 1e-12
        assert abs(readouts(rho)[0] - (dim - 1) / 2) <= 1e-12

    def test_infinite_rate_is_a_named_error(self):
        # an infinite gamma t leaves exp(gamma t w) undefined on the steady
        # state and ends in the named error without a numpy warning, in
        # propagate and in the law; a huge finite one is the uniform steady
        # state, and the law's untruncated mode heats without bound
        rho0 = DensityMatrix(SpaceLayout((12,)), np.diag([1.0] + [0.0] * 11))
        populations = rho0.matrix.diagonal().real
        for gamma, duration in [(1e-3, 1e300), (1e300, 1e10), (1e3, 1e15)]:
            params = HeatingParams(gamma, duration)
            rate = gamma * duration
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                if np.isfinite(rate):
                    assert np.abs(propagate(rho0, params).matrix
                                  - np.eye(12) / 12).max() <= 1e-12
                    assert heated_moments(populations, rate)[0] == rate
                    continue
                with pytest.raises(ContractError,
                                   match=r"at gamma\*duration = inf"):
                    propagate(rho0, params)
                with pytest.raises(ContractError,
                                   match=r"at gamma\*duration = inf"):
                    heated_moments(populations, rate)

    def test_propagate_result_is_private(self):
        # at gamma t = 0 too, where the result is a copy of the input
        for gamma in (0.0, 0.05):
            rho0 = random_density(6, seed=12)
            params = HeatingParams(gamma, 1.0, steps=3)
            want = propagate(rho0, params).matrix
            got = propagate(rho0, params)
            rho0.matrix[...] = 0.0
            assert np.array_equal(got.matrix, want)
            for x in (rho0.matrix, want):
                assert not np.shares_memory(got.matrix, x)

    def test_propagate_takes_traceless_operators(self):
        # the channel is linear, so it maps |k><l| and a traceless diagonal
        # as it maps any rho
        dim, gamma, duration = 8, 0.3, 0.7
        layout = SpaceLayout((dim,))
        for k, l in [(0, 3), (5, 2), (7, 7)]:
            op = np.zeros((dim, dim), dtype=np.complex128)
            op[k, l] = 1.0
            if k == l:
                op[0, 0] = -1.0
            rho0 = DensityMatrix(layout, op)
            got = propagate(rho0, HeatingParams(gamma, duration))
            want = liouvillian_expm(op, gamma, duration)
            assert np.abs(got.matrix - want).max() <= 1e-13
            assert np.array_equal(rho0.matrix, op)

    def test_single_mode_only(self):
        rho0 = basis_state(SpaceLayout((4, 4)), (0, 0)).to_density()
        with pytest.raises(ValueError):
            propagate(rho0, HeatingParams(0.01, 1.0))


def even_cat_populations(alpha: float, levels: np.ndarray) -> np.ndarray:
    """The untruncated even cat's populations at the given levels:
    2 e^{-alpha^2} alpha^{2k} / k! / (1 + e^{-2 alpha^2}) at even k, 0 at
    odd k, in logs so that no factor overflows."""
    a2 = alpha * alpha
    log_p = (log(2.0) - a2 + levels * log(a2)
             - np.array([lgamma(k + 1.0) for k in levels]) - log1p(exp(-2.0 * a2)))
    return np.where(levels % 2 == 0, np.exp(log_p), 0.0)


def closed_forms(alpha: float, s: float) -> tuple[float, float]:
    """<n> and parity of the untruncated even cat after the channel at
    gamma t = s: alpha^2 tanh alpha^2 + s, and
    [e^{-2 alpha^2 / (1 + 2s)} + e^{-4 alpha^2 s / (1 + 2s)}]
    / ((1 + 2s)(1 + e^{-2 alpha^2}))."""
    a2 = alpha * alpha
    parity = ((exp(-2.0 * a2 / (1.0 + 2.0 * s)) + exp(-4.0 * a2 * s / (1.0 + 2.0 * s)))
              / ((1.0 + 2.0 * s) * (1.0 + exp(-2.0 * a2))))
    return a2 * tanh(a2) + s, parity


class TestChannelLaw:
    """heated_moments, the channel's exact law on a state's populations,
    against the untruncated even cat's closed forms and the Fock-space
    propagation of states whose top levels are empty."""

    RATES = (0.0, 1e-3, 0.05, 0.2, 6.0)

    @pytest.mark.parametrize("alpha,cutoffs", [
        (2.0, (12, 16, 20, 26)), (3.0, (16, 20, 26, 30, 37))])
    def test_closed_forms_within_the_dropped_tail(self, alpha, cutoffs):
        # the program's cat is the untruncated one, q_k, renormalized on the
        # kept levels: p_k = q_k / (1 - eps), eps = sum_{k >= d} q_k.  So
        # |<n> gap| <= eps / (1 - eps) <n>_0 + sum_{k >= d} k q_k and
        # |parity gap| <= 2 eps, and both shrink with the cutoff
        gaps = []
        for d in cutoffs:
            populations = cat(alpha, EVEN, ModeParams(d, leak_tol=0.5)).amps
            populations = (populations.conj() * populations).real
            tail = np.arange(d, d + 400, dtype=np.float64)
            q = even_cat_populations(alpha, tail)
            eps = float(q.sum())
            n_bound = eps / (1.0 - eps) * alpha ** 2 + float(tail @ q) + 1e-13
            worst = [0.0, 0.0]
            for s in self.RATES:
                n, parity = heated_moments(populations, s)
                want_n, want_parity = closed_forms(alpha, s)
                assert abs(n - want_n) <= n_bound
                assert abs(parity - want_parity) <= 2.0 * eps + 1e-13
                worst = [max(worst[0], abs(n - want_n)),
                         max(worst[1], abs(parity - want_parity))]
            gaps.append(worst)
        for coarse, fine in zip(gaps, gaps[1:]):
            assert fine[0] < coarse[0] and fine[1] < coarse[1]

    @pytest.mark.parametrize("alpha", [2.0, 3.0])
    def test_default_cutoff_parity_is_the_closed_form(self, alpha):
        populations = cat(alpha, EVEN, mode_for(alpha)).amps
        populations = (populations.conj() * populations).real
        for s in self.RATES:
            assert abs(heated_moments(populations, s)[1]
                       - closed_forms(alpha, s)[1]) <= 1e-12

    @pytest.mark.parametrize("dim,alpha", [(60, 2.0), (80, 3.0)])
    def test_matches_propagate_at_large_cutoffs(self, dim, alpha):
        # no state reaches the top levels by gamma t = 0.2: its truncated
        # and untruncated channels agree to rounding.  The even cat's <a> is
        # 0, the others' is not
        mode = ModeParams(dim)
        low = np.zeros((dim, dim), dtype=np.complex128)
        low[:6, :6] = random_density(6, seed=dim).matrix
        for rho0 in (cat(alpha, EVEN, mode).to_density().matrix,
                     coherent(alpha, mode).to_density().matrix, low):
            a0 = readouts(rho0)[1]
            for s in (1e-3, 0.05, 0.2):
                rho = propagate(DensityMatrix(mode.layout, rho0),
                                HeatingParams(s, 1.0)).matrix
                n, a, parity = readouts(rho)
                law_n, law_parity = heated_moments(rho0.diagonal().real, s)
                assert abs(n - law_n) <= 1e-12
                assert abs(parity - law_parity) <= 1e-12
                assert abs(a - a0) <= 1e-12

    @pytest.mark.parametrize("dim", [10, 12])
    def test_matches_the_superoperator_oracle(self, dim):
        # weight on levels 0..3 alone needs d - 4 up-steps to reach the top
        # level, at most about (gamma t)^6 of it by gamma t = 1e-2
        for seed in range(3):
            rho0 = np.zeros((dim, dim), dtype=np.complex128)
            rho0[:4, :4] = random_density(4, seed=seed).matrix
            for s in (1e-4, 1e-3, 1e-2):
                n, a, parity = readouts(liouvillian_expm(rho0, s, 1.0))
                law_n, law_parity = heated_moments(rho0.diagonal().real, s)
                assert abs(n - law_n) <= 1e-12
                assert abs(parity - law_parity) <= 1e-12
                assert abs(a - readouts(rho0)[1]) <= 1e-12

    def test_zero_rate_reads_the_state(self):
        rho0 = random_density(9, seed=4).matrix
        n, _, parity = readouts(rho0)
        law_n, law_parity = heated_moments(rho0.diagonal().real, 0.0)
        assert abs(law_n - n) <= 1e-15 and abs(law_parity - parity) <= 1e-15

    def test_vacuum_heats_to_a_thermal_state(self):
        # the vacuum displaced by a Gaussian of variance s is the thermal
        # state of mean s, whose parity is 1 / (1 + 2s); by gamma t = 0.2 its
        # weight on level 59 is under 1e-45, so propagate agrees at d = 60
        dim = 60
        populations = np.zeros(dim)
        populations[0] = 1.0
        rho0 = DensityMatrix(SpaceLayout((dim,)), np.diag(populations + 0j))
        for s in self.RATES:
            assert heated_moments(populations, s) == (s, 1.0 / (1.0 + 2.0 * s))
            if s <= 0.2:
                n, a, parity = readouts(
                    propagate(rho0, HeatingParams(s, 1.0)).matrix)
                assert abs(n - s) <= 1e-12 and abs(a) <= 1e-15
                assert abs(parity - 1.0 / (1.0 + 2.0 * s)) <= 1e-12

    def test_half_quantum_reads_the_vacuum_weight(self):
        # at s = 1/2, x = 0: the parity is p_0 / 2, whatever the rest
        for seed in range(3):
            populations = random_density(9, seed=seed).matrix.diagonal().real
            assert heated_moments(populations, 0.5)[1] == populations[0] / 2.0

    @settings(max_examples=60, deadline=None)
    @given(weights=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40)
           .filter(lambda w: sum(w) > 1e-3),
           s=st.floats(0.0, 1e6))
    def test_heats_by_the_rate_and_bounds_the_parity(self, weights, s):
        # <n> grows by exactly s, and |sum p_k x^k| <= 1 with |x| <= 1 holds
        # the parity to 1 / (1 + 2s)
        populations = np.array(weights) / sum(weights)
        n0 = heated_moments(populations, 0.0)[0]
        n, parity = heated_moments(populations, s)
        assert n == n0 + s
        assert abs(parity) <= (1.0 + 1e-12) / (1.0 + 2.0 * s)

    def test_input_left_alone(self):
        # the heat-sweep memo hands the law a read-only array
        populations = random_density(9, seed=2).matrix.diagonal().real.copy()
        before = populations.copy()
        populations.flags.writeable = False
        for s in self.RATES:
            heated_moments(populations, s)
        assert np.array_equal(populations, before)

    @pytest.mark.parametrize("rate", [1e200, 1e308, 1.7976931348623157e308])
    def test_huge_finite_rate_heats_the_untruncated_mode(self, rate):
        # where 2s overflows to inf, x stays 1 and the parity is 0, with no
        # numpy warning; <n> is n0 + s at every finite rate
        populations = random_density(9, seed=3).matrix.diagonal().real
        n0 = heated_moments(populations, 0.0)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            n, parity = heated_moments(populations, rate)
        assert n == n0 + rate
        assert 0.0 <= parity <= (1.0 + 1e-12) / (2.0 * rate + 1.0)


class TestDiagonalBlock:
    """Block 0 carries the generator's steady state."""

    @pytest.mark.parametrize("dim", [2, 3, 12, 26, 82, 122])
    def test_block_zero_deflation(self, dim):
        # the steady-state pair is exact; the rest is the solver's
        # decomposition with that vector projected off
        s = 2.0 * np.arange(dim) + 1.0
        s[-1] = dim - 1.0
        w_raw, v_raw = scipy.linalg.eigh_tridiagonal(-s, np.arange(1.0, dim))
        w, v = _diagonal_block(dim, 0)
        assert w[-1] == 0.0 and np.all(v[:, -1] == 1.0 / np.sqrt(dim))
        assert np.array_equal(w[:-1], w_raw[:-1])
        assert np.abs(v[:, :-1] - v_raw[:, :-1]).max() <= 1e-13
        assert np.abs(v.T @ v - np.eye(dim)).max() <= 1e-14
        block = np.diag(-s) + np.diag(np.arange(1.0, dim), 1) \
            + np.diag(np.arange(1.0, dim), -1)
        assert np.abs(block @ v - v * w).max() <= 1e-12 * dim


def default_delta(gamma: float, alpha: float, duration: float) -> float:
    """The delta that full-pipeline reports with noise.delta null."""
    cfg = normalize_config({"protocol": "full-pipeline",
                            "encoding": {"alpha": alpha},
                            "noise": {"gamma": gamma, "duration": duration}})
    return run_full_pipeline(cfg)[1]["delta"]


class TestScales:
    """full-pipeline's default delta, the single-jump scale gamma alpha^2 t,
    against the exact channel's flip probability."""

    def test_default_delta(self):
        assert default_delta(1e-3, 2.0, 10.0) == pytest.approx(0.04, abs=1e-15)
        assert default_delta(0.0, 3.0, 5.0) == 0.0

    def test_threshold_inversion(self):
        # gamma t = (1 - 1/sqrt(2)) / alpha^2 puts delta exactly at threshold
        alpha = 2.0
        gt = (1.0 - 2 ** -0.5) / alpha**2
        assert abs(default_delta(gt, alpha, 1.0) - (1.0 - 2 ** -0.5)) < 1e-12

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    def test_single_jump_scale_undercounts_flips(self, alpha):
        # the exact channel flips an even cat's parity with probability
        # (1 - parity) / 2, gamma (2 nbar + 1) t for small gamma t with nbar
        # the cat's own <n>; the default delta misses that law by the factor
        # (2 nbar + 1) / alpha^2
        gamma, duration = 1e-4, 1.0
        amps = cat(alpha, EVEN, mode_for(alpha)).amps
        populations = (amps.conj() * amps).real
        n0, parity0 = heated_moments(populations, 0.0)
        assert parity0 == pytest.approx(1.0, abs=1e-15)
        flip = (1.0 - heated_moments(populations, gamma * duration)[1]) / 2.0
        law = gamma * (2.0 * n0 + 1.0) * duration
        assert flip / law == pytest.approx(1.0, abs=1e-2)
        assert flip / default_delta(gamma, alpha, duration) > 2.0


class TestTrajectories:
    def test_zero_gamma_no_jumps(self):
        mode = mode_for(2.0)
        psi = cat(2.0, EVEN, mode)
        res = sample_trajectory(psi, HeatingParams(0.0, 10.0), 0)
        assert res.n_jumps == 0
        assert not res.parity_flipped
        np.testing.assert_array_equal(res.final.amps, psi.amps)
        assert not np.shares_memory(res.final.amps, psi.amps)

    def test_deterministic_for_seed(self):
        mode = mode_for(2.0)
        psi = cat(2.0, EVEN, mode)
        params = HeatingParams(5e-3, 10.0)
        a = sample_trajectory(psi, params, 123)
        b = sample_trajectory(psi, params, 123)
        assert a.jumps == b.jumps
        np.testing.assert_array_equal(a.final.amps, b.final.amps)

    def test_single_down_jump_flips_parity(self):
        mode = mode_for(2.0)
        psi = cat(2.0, EVEN, mode)
        params = HeatingParams(1e-3, 10.0)
        p = parity_op(mode)
        seen = 0
        for seed in range(400):
            res = sample_trajectory(psi, params, seed)
            if res.n_jumps == 1 and res.jumps[0][1] == "-":
                seen += 1
                assert res.parity_flipped
                assert abs(expectation(p, res.final).real + 1.0) < 1e-10
        assert seen > 0

    def test_single_up_jump_flips_parity(self):
        mode = mode_for(2.0)
        psi = cat(2.0, EVEN, mode)
        params = HeatingParams(1e-3, 10.0)
        p = parity_op(mode)
        for seed in range(400):
            res = sample_trajectory(psi, params, seed)
            if res.n_jumps == 1 and res.jumps[0][1] == "+":
                assert abs(expectation(p, res.final).real + 1.0) < 1e-10
                break
        else:
            pytest.fail("no single up-jump trajectory in 400 seeds")

    def test_jump_support_is_exact(self):
        # a and a+ move even support to odd support with exact zeros behind
        mode = mode_for(2.0)
        psi = cat(2.0, EVEN, mode)
        for seed in range(400):
            res = sample_trajectory(psi, HeatingParams(1e-3, 10.0), seed)
            if res.n_jumps == 1:
                assert np.all(res.final.amps[0::2] == 0.0)
                break

    def test_parity_flag_counts_mod_two(self):
        # deliberately deep in gamma*t so multi-jump records occur
        mode = mode_for(2.0)
        psi = cat(2.0, EVEN, mode)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for seed in range(200):
                res = sample_trajectory(psi, HeatingParams(2e-2, 10.0), seed)
                assert res.parity_flipped == (res.n_jumps % 2 == 1)

    def test_rng_instance_accepted(self):
        mode = mode_for(2.0)
        psi = cat(2.0, EVEN, mode)
        params = HeatingParams(5e-3, 10.0)
        a = sample_trajectory(psi, params, trajectory_rng(7, 3))
        b = sample_trajectory(psi, params, trajectory_rng(7, 3))
        assert a.jumps == b.jumps

    def test_stream_independence(self):
        mode = mode_for(2.0)
        psi = cat(2.0, EVEN, mode)
        params = HeatingParams(5e-2, 10.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            a = sample_trajectory(psi, params, trajectory_rng(7, 1))
            b = sample_trajectory(psi, params, trajectory_rng(7, 2))
        assert a.jumps != b.jumps

    def test_depth_warning(self):
        mode = mode_for(2.0)
        psi = cat(2.0, EVEN, mode)
        with pytest.warns(UserWarning, match="not small"):
            sample_trajectory(psi, HeatingParams(0.05, 10.0), 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sample_trajectory(psi, HeatingParams(1e-3, 10.0), 0)

    def test_depth_warning_follows_the_occupancy_not_its_bound(self):
        # in 8 levels the bound 7 ||psi||^2 on <n> is past
        # 0.5 / (gamma t) = 5.  <n> = 1 of |1> is not, so no call may warn;
        # <n> = 7 of |7> is, so every call warns, those with no jump too
        lay = SpaceLayout((8,))
        params = HeatingParams(0.01, 10.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed in range(40):
                sample_trajectory(basis_state(lay, (1,)), params, seed)
        empty = 0
        for seed in range(40):
            with pytest.warns(UserWarning, match="not small"):
                res = sample_trajectory(basis_state(lay, (7,)), params, seed)
            empty += res.n_jumps == 0
        assert empty > 0

    def test_immutable_register_pays_one_occupancy(self, enc2, monkeypatch):
        # at gamma t = 1e-9 no trajectory of these seeds jumps.  The
        # read-only phi+ cat keeps its level weights and <n> per heated
        # mode: one pass for all 40 seeds, one more per other mode, and
        # every final is the state itself.  A writable copy pays a pass per
        # call and is copied.  The register is a fresh read-only copy:
        # bell_target's is shared, and earlier calls may have paid its passes
        shared = bell_target("phi_plus", enc2)
        psi = _read_only(StateVector(shared.layout, shared.amps.copy()))
        passes = []
        weights = catbell.noise._level_weights

        def counted(*args):
            passes.append(args)
            return weights(*args)

        monkeypatch.setattr(catbell.noise, "_level_weights", counted)
        params = HeatingParams(1e-9, 1.0)
        for mode_index in range(psi.layout.nsites):
            for seed in range(40):
                res = sample_trajectory(psi, params, seed, mode_index=mode_index)
                assert res.jumps == [] and not res.parity_flipped
                assert res.final is psi
            assert len(passes) == mode_index + 1
        writable = StateVector(psi.layout, psi.amps.copy())
        for seed in range(40):
            res = sample_trajectory(writable, params, seed)
            assert res.jumps == []
            assert np.array_equal(res.final.amps, writable.amps)
            assert not np.shares_memory(res.final.amps, writable.amps)
        assert len(passes) == psi.layout.nsites + 40

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")],
                             ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("read_only", [False, True], ids=["writable", "read-only"])
    @pytest.mark.parametrize("part", [1.0, 1j], ids=["real", "imag"])
    def test_non_finite_amplitude_refused_before_any_draw(self, bad, read_only, part):
        # a NaN or infinite <n> would make every wait NaN, and t would never
        # reach the duration; each call is refused with the generator and
        # the register untouched, a read-only register's second call too
        layout = SpaceLayout((4, 3))
        amps = basis_state(layout, (1, 2)).amps.copy()
        amps[5] += bad * part
        before = amps.tobytes()
        psi = StateVector(layout, amps)
        if read_only:
            psi = _read_only(psi)
        for mode_index in (0, 1, 0):
            rng = trajectory_rng(3, mode_index)
            state = rng.bit_generator.state
            with pytest.raises(ContractError, match="non-finite amplitude"):
                sample_trajectory(psi, HeatingParams(0.1, 1.0), rng,
                                  mode_index=mode_index)
            assert rng.bit_generator.state == state
            assert psi.amps.tobytes() == before

    def test_exponential_is_scaled_standard_exponential(self):
        # the sampler draws E with standard_exponential() and waits
        # (1 / total) E, which is exactly what exponential(1 / total)
        # returns; the oracle chain (_reference_jumps) draws the latter, so
        # the bit-for-bit comparisons with it rest on this
        scales = [0.0, 5e-324, 1e-300, 1e-9, 0.37, 1.0, 3.5, 1e6, 1e300]
        scales += list(1.0 / np.random.default_rng(0).uniform(1e-4, 1e2, size=40))
        for seed in range(200):
            a, b = trajectory_rng(seed, 0), trajectory_rng(seed, 0)
            for s in scales:
                assert a.exponential(s) == s * b.standard_exponential()
            assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("mode_index", [-3, -1, 4, 5])
    def test_mode_index_out_of_range(self, enc2, mode_index):
        # the register has four factors: mode a, mode b and the two ions
        psi = bell_target("phi_plus", enc2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="mode_index"):
                sample_trajectory(psi, HeatingParams(1e-3, 10.0), 0,
                                  mode_index=mode_index)

    def test_embedded_mode_jump(self, enc2):
        # a jump on mode a of the register flips that mode's parity only
        psi = bell_target("phi_plus", enc2)
        pa = on_register(parity_op(enc2.mode_a), MODE_A, enc2)
        pb = on_register(parity_op(enc2.mode_b), MODE_B, enc2)
        for seed in range(300):
            res = sample_trajectory(psi, HeatingParams(1e-3, 10.0), seed, mode_index=0)
            if res.n_jumps == 1:
                corr_a = expectation(pa, res.final).real
                corr_b = expectation(pb, res.final).real
                # phi+ has no definite single-mode parity; the joint
                # correlation flips sign instead
                from catbell.hilbert import apply
                from conftest import overlap

                kicked_b = apply(pb, res.final)
                joint = overlap(apply(pa, res.final),
                                StateVector(kicked_b.layout, kicked_b.amps / kicked_b.norm))
                assert joint.real < -0.99
                assert abs(corr_a) < 0.1 and abs(corr_b) < 0.1
                break
        else:
            pytest.fail("no single-jump register trajectory in 300 seeds")

    def test_ensemble_matches_master_equation_parity(self):
        # 10^4 trajectories against the exact master equation.  Parity only
        # changes through jumps and the jump intensity is exact to first
        # order, so the ensemble tracks the master equation within noise.
        # Occupation does not: between jumps the state is held fixed, so the
        # reweighting that an exact unraveling applies to jump-free
        # trajectories is missing and every jump pushes <n> upward.  The bias
        # is first order in the merged intensity; assert its sign and
        # envelope rather than pretending it vanishes.
        mode = ModeParams(12, leak_tol=1e-5)
        psi = cat(1.5, EVEN, mode)
        gamma, t = 2e-3, 10.0
        params = HeatingParams(gamma, t)
        n_traj = 10_000
        p_diag = (-1.0) ** np.arange(12)
        n_diag = np.arange(12.0)
        n_vals = np.empty(n_traj)
        p_vals = np.empty(n_traj)
        for i in range(n_traj):
            res = sample_trajectory(psi, params, trajectory_rng(2024, i))
            w = np.abs(res.final.amps) ** 2
            n_vals[i] = float((n_diag * w).sum())
            p_vals[i] = float((p_diag * w).sum())
        ref_n, _, ref_parity = readouts(propagate(psi.to_density(), params).matrix)
        p_se = p_vals.std(ddof=1) / np.sqrt(n_traj)
        assert abs(p_vals.mean() - ref_parity) < 3.0 * p_se
        n_se = n_vals.std(ddof=1) / np.sqrt(n_traj)
        n0 = float((n_diag * np.abs(psi.amps) ** 2).sum())
        bias = n_vals.mean() - ref_n
        assert bias > 3.0 * n_se
        assert bias < 2.0 * gamma * t * (2.0 * n0 + 2.0)


def _lifted_lowering(dims: list | tuple, mode_index: int) -> np.ndarray:
    """Dense a on factor mode_index, identity on every other factor."""
    d = dims[mode_index]
    return np.kron(np.kron(np.eye(prod(dims[:mode_index])),
                           np.diag(np.sqrt(np.arange(1.0, d)), 1)),
                   np.eye(prod(dims[mode_index + 1:])))


def _reference_jumps(psi: StateVector, params: HeatingParams, rng,
                     mode_index: int, skipped: list | None = None) -> list:
    """The jump record drawn the direct way: <n> from the |amplitude|^2
    marginal summed over every other axis and evaluated before every draw,
    and each jump a dense ladder matrix lifted to the whole register.  The
    times of events that annihilate the state go to skipped, if given."""
    dims = psi.layout.dims
    d = dims[mode_index]
    lower = _lifted_lowering(dims, mode_index)
    others = tuple(i for i in range(len(dims)) if i != mode_index)

    def occupancy(amps):
        marg = (np.abs(amps.reshape(dims)) ** 2).sum(axis=others)
        return float((np.arange(d) * marg).sum())

    amps = psi.amps
    jumps: list = []
    t = 0.0
    while True:
        n = occupancy(amps)
        r_up, r_down = params.gamma * (n + 1.0), params.gamma * n
        total = r_up + r_down
        if total <= 0.0:
            break
        t += rng.exponential(1.0 / total)
        if t >= params.duration:
            break
        up = rng.random() < r_up / total
        kicked = (lower.T if up else lower) @ amps
        nrm = np.linalg.norm(kicked)
        if nrm == 0.0:
            if skipped is not None:
                skipped.append(t)
            continue
        amps = kicked / nrm
        jumps.append((t, "+" if up else "-"))
    return jumps


def _read_only(state: StateVector) -> StateVector:
    """state with its amplitudes and their .base chain made read-only."""
    amps = state.amps
    while amps is not None:
        amps.flags.writeable = False
        amps = amps.base
    return state


def _kept_nodes(entry) -> list:
    """Every _Node that a kept entry reaches, through containers, node
    slots and the attributes of kept finals, each once."""
    seen, todo, nodes = set(), [entry], []
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, _Node):
            nodes.append(obj)
            todo.extend(getattr(obj, name, None) for name in _Node.__slots__)
        elif isinstance(obj, (tuple, list)):
            todo.extend(obj)
        elif isinstance(obj, dict):
            todo.extend(obj.values())
        elif isinstance(obj, StateVector):
            todo.extend(vars(obj).values())
    return nodes


def _traced_run(state: StateVector, params: HeatingParams, seed: int,
                mode_index: int) -> tuple:
    """A trajectory's generator end state, record, warning messages and
    final bytes, from trajectory_rng(seed, mode_index)."""
    rng = trajectory_rng(seed, mode_index)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = sample_trajectory(state, params, rng, mode_index=mode_index)
    return (rng.bit_generator.state, res.jumps,
            [str(w.message) for w in caught], res.final.amps.tobytes())


class TestTrajectoryOracle:
    @settings(max_examples=40)
    @given(dims=st.lists(st.integers(2, 5), min_size=2, max_size=4),
           duration=st.floats(0.5, 2.0),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_dense_ladder_chain(self, dims, duration, seed):
        # gamma t is deep enough that most records hold several jumps, and
        # two-level modes see up-jumps resampled against the truncation edge
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=prod(dims)) + 1j * rng.normal(size=prod(dims))
        psi = StateVector(SpaceLayout(tuple(dims)), amps / np.linalg.norm(amps))
        before = psi.amps.copy()
        params = HeatingParams(2.0, duration)
        for mode_index in range(len(dims)):
            lower = _lifted_lowering(dims, mode_index)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                res = sample_trajectory(psi, params, trajectory_rng(seed, mode_index),
                                        mode_index=mode_index)
                want = _reference_jumps(psi, params,
                                        trajectory_rng(seed, mode_index), mode_index)
            assert [k for _, k in res.jumps] == [k for _, k in want]
            for (t_got, _), (t_want, _) in zip(res.jumps, want):
                assert abs(t_got - t_want) <= 1e-12 * t_want
            chain = psi.amps
            for _, kind in want:
                chain = (lower.T if kind == "+" else lower) @ chain
            chain = chain / np.linalg.norm(chain)
            assert np.abs(res.final.amps - chain).max() <= 1e-12
            assert np.array_equal(psi.amps, before)
            assert not np.shares_memory(res.final.amps, psi.amps)

    @settings(max_examples=40)
    @given(dims=st.lists(st.integers(2, 5), min_size=1, max_size=3),
           scale=st.floats(0.25, 2.0),
           duration=st.floats(1e-3, 2e-2),
           seed=st.integers(0, 2**32 - 1))
    def test_no_jump_exit_keeps_the_record_and_the_draws(self, dims, scale,
                                                         duration, seed):
        # at small gamma t most records are empty after one draw, and the
        # rest jump; either way a shared generator must end where the
        # oracle's does.  ||psi||^2 = scale^2, so unnormalized registers are
        # included
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=prod(dims)) + 1j * rng.normal(size=prod(dims))
        psi = StateVector(SpaceLayout(tuple(dims)), scale * amps / np.linalg.norm(amps))
        params = HeatingParams(1.0, duration)
        for mode_index in range(len(dims)):
            lower = _lifted_lowering(dims, mode_index)
            for index in range(8):
                got_rng = trajectory_rng(seed, 8 * mode_index + index)
                want_rng = trajectory_rng(seed, 8 * mode_index + index)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    res = sample_trajectory(psi, params, got_rng, mode_index=mode_index)
                want = _reference_jumps(psi, params, want_rng, mode_index)
                assert got_rng.bit_generator.state == want_rng.bit_generator.state
                assert [k for _, k in res.jumps] == [k for _, k in want]
                for (t_got, _), (t_want, _) in zip(res.jumps, want):
                    assert abs(t_got - t_want) <= 1e-12 * t_want
                if not want:
                    assert np.array_equal(res.final.amps, psi.amps)
                    continue
                chain = psi.amps
                for _, kind in want:
                    chain = (lower.T if kind == "+" else lower) @ chain
                chain = chain / np.linalg.norm(chain)
                assert np.abs(res.final.amps - chain).max() <= 1e-12

    @settings(max_examples=40)
    @given(dims=st.lists(st.integers(2, 5), min_size=1, max_size=3),
           scale=st.floats(0.25, 2.0),
           duration=st.floats(1e-3, 2.0),
           seed=st.integers(0, 2**32 - 1))
    def test_immutable_register_keeps_the_bits(self, dims, scale, duration,
                                              seed):
        # a read-only register, its second call, and a writable copy of it
        # end their generators alike and give the same records, warnings
        # and final bytes, short and deep in gamma t alike
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=prod(dims)) + 1j * rng.normal(size=prod(dims))
        layout = SpaceLayout(tuple(dims))
        amps = scale * amps / np.linalg.norm(amps)
        frozen = _read_only(StateVector(layout, amps.copy()))
        params = HeatingParams(1.0, duration)
        for mode_index in range(len(dims)):
            runs = [_traced_run(state, params, seed, mode_index)
                    for state in (StateVector(layout, amps.copy()),
                                  frozen, frozen)]
            for run in runs[1:]:
                assert run == runs[0]
        # a new array in state.amps, read-only too, is never served the old
        # <n>; it samples what a writable copy of it samples
        other = rng.normal(size=prod(dims)) + 1j * rng.normal(size=prod(dims))
        other = 3.0 * scale * other / np.linalg.norm(other)
        frozen.amps = _read_only(StateVector(layout, other.copy())).amps
        for mode_index in range(len(dims)):
            assert (_traced_run(frozen, params, seed, mode_index)
                    == _traced_run(StateVector(layout, other.copy()), params,
                                   seed, mode_index))

    @settings(max_examples=40)
    @given(dims=st.lists(st.integers(2, 5), min_size=1, max_size=3),
           scale=st.floats(0.25, 2.0),
           calls=st.lists(st.tuples(st.integers(0, 2),
                                    st.sampled_from([0.0, 0.02, 0.3, 1.5]),
                                    st.integers(0, 5)),
                          min_size=1, max_size=30),
           seed=st.integers(0, 2**32 - 1))
    def test_jump_tree_keeps_every_call_bits(self, dims, scale, calls, seed):
        # one read-only register, its kept entry cold at the first call and
        # warm after, heated in mixed order: modes, gammas and streams.
        # Each call ends its generator where the same call on a writable
        # copy does, with the same record, warnings and final bytes.  A
        # one-jump final is kept: read-only, the same object for every call
        # that ends on its word, and apart from the input; a writable input
        # keeps nothing and shares nothing
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=prod(dims)) + 1j * rng.normal(size=prod(dims))
        layout = SpaceLayout(tuple(dims))
        amps = scale * amps / np.linalg.norm(amps)
        frozen = _read_only(StateVector(layout, amps.copy()))
        kept_finals: dict = {}
        for mode, gamma, index in calls:
            mode_index = mode % len(dims)
            params = HeatingParams(gamma, 1.0)
            writable = StateVector(layout, amps.copy())
            runs, results = [], []
            for state in (frozen, writable):
                stream = trajectory_rng(seed, index)
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    res = sample_trajectory(state, params, stream,
                                            mode_index=mode_index)
                runs.append((stream.bit_generator.state, res.jumps,
                             [str(w.message) for w in caught],
                             res.final.amps.tobytes()))
                results.append(res)
            assert runs[0] == runs[1]
            got, copy = results
            assert "_jump_chains" not in vars(writable)
            assert not np.shares_memory(copy.final.amps, writable.amps)
            if got.n_jumps == 0:
                assert got.final is frozen
                continue
            assert not np.shares_memory(got.final.amps, frozen.amps)
            if got.n_jumps == 1:
                assert not got.final.amps.flags.writeable
                word = (mode_index, got.jumps[0][1])
                assert kept_finals.setdefault(word, got.final) is got.final

    def test_deep_ensemble_keeps_a_bounded_tree(self):
        # gamma T <n> = 2 on the phi+ register at alpha = 2: 300 trajectories
        # per mode run words of up to a dozen jumps, yet each heated mode
        # keeps at most its root and the two one-jump nodes (3), and the
        # finals of the one-jump words (2); no node past one jump is kept
        shared = bell_target("phi_plus", EncodingParams.for_amplitudes(2.0))
        psi = _read_only(StateVector(shared.layout, shared.amps.copy()))
        params = HeatingParams(0.5, 1.0)
        longest = 0
        for mode_index in (MODE_A, MODE_B):
            for i in range(300):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)
                    res = sample_trajectory(psi, params, trajectory_rng(5, i),
                                            mode_index=mode_index)
                longest = max(longest, res.n_jumps)
        assert longest > 2
        chains = psi._jump_chains[1]
        assert len(chains) == 2
        for entry in chains.values():
            nodes = _kept_nodes(entry)
            assert len(nodes) <= 3
            assert sum(node.shift == 0 for node in nodes) == 1
            assert all(abs(node.shift) <= 1 for node in nodes)
            finals = [node.final for node in nodes if node.final is not None]
            assert len(finals) <= 2
            assert all(node.final is None for node in nodes if node.shift == 0)

    @pytest.mark.parametrize("register,duration", [
        ("random", 5.0), ("even", 5.0), ("vacuum", 30.0)])
    def test_long_chain_stays_on_the_dense_chain(self, register, duration):
        # hundreds of jumps on 122 levels, out to the truncation edge: the
        # renormalized column stays finite, on levels of weight 0 (the odd
        # levels of an even register, all but one of the vacuum's) too,
        # where no norm bounds it; for the vacuum an unbounded column
        # overflows on this stream.  The record is the oracle's and the
        # final the dense chain's, renormalized at every jump
        dim = 122
        rng = np.random.default_rng(122)
        amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        if register == "vacuum":
            amps = np.eye(dim)[0].astype(complex)
        elif register == "even":
            amps[1::2] = 0.0
        psi = StateVector(SpaceLayout((dim,)), amps / np.linalg.norm(amps))
        params = HeatingParams(1.0, duration)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            res = sample_trajectory(psi, params, trajectory_rng(11, 0))
        want = _reference_jumps(psi, params, trajectory_rng(11, 0), 0)
        assert len(res.jumps) >= 500
        assert [k for _, k in res.jumps] == [k for _, k in want]
        for (t_got, _), (t_want, _) in zip(res.jumps, want):
            assert abs(t_got - t_want) <= 1e-12 * t_want
        lower = _lifted_lowering((dim,), 0)
        chain = psi.amps
        for _, kind in want:
            chain = (lower.T if kind == "+" else lower) @ chain
            chain = chain / np.linalg.norm(chain)
        assert np.all(np.isfinite(res.final.amps))
        assert np.abs(res.final.amps - chain).max() <= 1e-12

    @pytest.mark.parametrize("dims,occupations,gamma", [
        ((6, 3), (5, 2), 0.5),     # ups from the top level
        ((2, 3), (1, 0), 2.0),     # a two-level mode
    ])
    def test_annihilating_events_are_the_dense_chains(self, dims, occupations,
                                                     gamma):
        # an up kick from the top level maps the state to zero and is
        # skipped: the same events as the dense chain's nrm == 0.0, the same
        # records, generator end states and finals
        psi = basis_state(SpaceLayout(dims), occupations)
        lower = _lifted_lowering(dims, 0)
        params = HeatingParams(gamma, 4.0)
        skipped: list = []
        for seed in range(30):
            got_rng, want_rng = trajectory_rng(seed, 0), trajectory_rng(seed, 0)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                res = sample_trajectory(psi, params, got_rng)
            want = _reference_jumps(psi, params, want_rng, 0, skipped)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state
            assert res.jumps == want
            chain = psi.amps
            for _, kind in want:
                chain = (lower.T if kind == "+" else lower) @ chain
                chain = chain / np.linalg.norm(chain)
            assert np.abs(res.final.amps - chain).max() <= 1e-12
        assert len(skipped) > 0

    def test_read_only_view_of_a_writable_base_is_mutable(self):
        # the base can be written through, so nothing is kept on the state
        # and the final is a copy; a write to the base is seen next call
        lay = SpaceLayout((6, 3))
        base = basis_state(lay, (1, 0)).amps.copy()
        view = base.view()
        view.flags.writeable = False
        psi = StateVector(lay, view)
        params = HeatingParams(1e-9, 1.0)
        res = sample_trajectory(psi, params, 0)
        assert res.jumps == [] and "_jump_chains" not in vars(psi)
        assert not np.shares_memory(res.final.amps, base)
        # |5, 0> has <n> = 5: at gamma t = 0.2 the depth warning must fire
        base[:] = basis_state(lay, (5, 0)).amps
        params = HeatingParams(0.2, 1.0)
        with pytest.warns(UserWarning, match="= 1 is not small"):
            sample_trajectory(psi, params, 0)

    def test_no_draw_where_no_wait_is_drawn(self):
        # at gamma = 0 every rate is 0: the sampler must leave the generator
        # untouched
        psi = basis_state(SpaceLayout((6, 3)), (3, 1))
        for seed in range(10):
            rng = trajectory_rng(seed, 0)
            before = rng.bit_generator.state
            res = sample_trajectory(psi, HeatingParams(0.0, 2.0), rng)
            assert rng.bit_generator.state == before
            assert res.jumps == []
            assert np.array_equal(res.final.amps, psi.amps)
            assert not np.shares_memory(res.final.amps, psi.amps)


def _complex_place(psi: np.ndarray, col: np.ndarray, shift: int) -> np.ndarray:
    """_place as complex arithmetic: input level k times col_k cast to
    complex, on level k + shift of a zeroed register."""
    dim = psi.shape[1]
    out = np.zeros_like(psi)
    for k in range(max(0, -shift), min(dim, dim - shift)):
        out[:, k + shift] = psi[:, k] * complex(col[k])
    return out


def _ladder_column(dim: int, kinds) -> tuple[np.ndarray, int]:
    """The column and shift of a ladder word (True for a+), renormalized
    against unit level weights at each letter; None when it annihilates."""
    col, shift = np.ones(dim), 0
    for up in kinds:
        target = np.arange(dim) + shift + up
        col = col * np.where((target >= 0) & (target < dim),
                             np.sqrt(np.clip(target, 0, None)), 0.0)
        col /= np.linalg.norm(col)
        shift += 1 if up else -1
    return col, shift


class TestJumpKernel:
    """_place writes the register of a real column and a shift in one
    multiply of the float view, with the bits of complex multiplication
    by the column."""

    @pytest.mark.parametrize("alpha", [2.0, 3.0, 4.0])
    def test_phi_plus_jump_chains_keep_their_bytes(self, alpha):
        psi0 = bell_target("phi_plus", EncodingParams.for_amplitudes(alpha))
        for mode_index in (MODE_A, MODE_B):
            shape = _mode_view(psi0.layout.dims, mode_index)[0]
            psi = psi0.amps.reshape(shape)
            for kinds in ((True,), (False,), (True, True, False),
                          (False, True, False), (False, False, False)):
                col, shift = _ladder_column(shape[1], kinds)
                got = _place(psi, col, shift)
                assert got.tobytes() == _complex_place(psi, col, shift).tobytes()
                assert got.shape == shape and not np.shares_memory(got, psi)

    def test_signed_zeros_keep_their_values(self):
        # a -0.0 amplitude or column entry may leave a zero of the other
        # sign; every value, and the bits of every nonzero one, are the
        # complex arithmetic's, at every shift the level count allows
        rng = np.random.default_rng(7)
        for _ in range(200):
            dims = tuple(int(d) for d in rng.integers(2, 7, size=rng.integers(1, 4)))
            mode_index = int(rng.integers(len(dims)))
            shape = _mode_view(dims, mode_index)[0]
            f = rng.normal(size=2 * prod(dims))
            f[rng.random(f.size) < 0.4] = 0.0
            f[rng.random(f.size) < 0.5] *= -1.0
            psi = f.view(np.complex128).reshape(shape)
            col = rng.uniform(0.1, 3.0, size=shape[1])
            col[rng.random(col.size) < 0.3] = 0.0
            col[rng.random(col.size) < 0.3] *= -1.0
            before = psi.copy()
            for shift in range(1 - shape[1], shape[1]):
                got = _place(psi, col, shift).view(np.float64)
                want = _complex_place(psi, col, shift).view(np.float64)
                assert np.array_equal(got, want)
                assert got[got != 0].tobytes() == want[want != 0].tobytes()
                assert not np.shares_memory(got, psi)
            assert psi.tobytes() == before.tobytes()


class TestTrajectoryStreams:
    """trajectory_rng(m, i) is np.random.default_rng([m, i]), bit for bit,
    without building a SeedSequence."""

    # index words change at 2^32 and 2^64; blocks are _SEED_BLOCK long
    EDGE_INDICES = [0, 1, _SEED_BLOCK - 1, _SEED_BLOCK, _SEED_BLOCK + 1,
                    2 * _SEED_BLOCK - 1, 2 ** 32 - _SEED_BLOCK, 2 ** 32 - 1,
                    2 ** 32, 2 ** 32 + _SEED_BLOCK, 2 ** 64 - 1, 2 ** 64,
                    2 ** 64 + _SEED_BLOCK - 1]
    EDGE_SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 64 + 7,
                  2 ** 96, 2 ** 128 - 1]

    @staticmethod
    def assert_same_stream(master_seed, index):
        got = trajectory_rng(master_seed, index)
        want = np.random.default_rng([master_seed, index])
        assert got.bit_generator.state == want.bit_generator.state
        assert np.array_equal(got.random(8), want.random(8))
        assert got.bit_generator.state == want.bit_generator.state

    @settings(max_examples=200)
    @given(master_seed=st.integers(0, 2 ** 128 - 1),
           index=st.one_of(
               st.integers(0, 4 * _SEED_BLOCK),
               st.builds(lambda block, offset: block * _SEED_BLOCK + offset,
                         st.integers(0, 2 ** 64 // _SEED_BLOCK + 1),
                         st.sampled_from([0, 1, _SEED_BLOCK - 2, _SEED_BLOCK - 1])),
               st.sampled_from(EDGE_INDICES),
               st.integers(0, 2 ** 70)))
    def test_matches_default_rng(self, master_seed, index):
        self.assert_same_stream(master_seed, index)

    @pytest.mark.parametrize("master_seed", EDGE_SEEDS)
    def test_edge_keys(self, master_seed):
        for index in self.EDGE_INDICES:
            self.assert_same_stream(master_seed, index)

    def test_integer_types(self):
        # numpy integers and bools are integer keys, as they are to numpy
        for m, i in [(np.int64(5), np.int32(3)), (np.uint64(2 ** 64 - 1), 7),
                     (True, np.uint8(255)), (3, False)]:
            got = trajectory_rng(m, i)
            want = np.random.default_rng([m, i])
            assert got.bit_generator.state == want.bit_generator.state

    def test_generators_of_one_key_are_separate(self):
        a, b = trajectory_rng(11, 700), trajectory_rng(11, 700)
        assert a is not b and a.bit_generator is not b.bit_generator
        before = b.bit_generator.state
        a.random(100)
        a.standard_exponential(5)
        assert b.bit_generator.state == before
        assert np.array_equal(b.random(8), np.random.default_rng([11, 700]).random(8))

    def test_builds_no_seed_sequence(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("SeedSequence built")

        catbell.noise._seed_block.cache_clear()
        monkeypatch.setattr(np.random, "SeedSequence", refuse)
        monkeypatch.setattr(np.random.bit_generator, "SeedSequence", refuse)
        monkeypatch.setattr(np.random, "default_rng", refuse)
        rngs = [trajectory_rng(2 ** 40 + 3, i) for i in (0, 1, 2 * _SEED_BLOCK + 5)]
        monkeypatch.undo()
        for rng, i in zip(rngs, (0, 1, 2 * _SEED_BLOCK + 5)):
            assert not isinstance(rng.bit_generator.seed_seq, np.random.SeedSequence)
            want = np.random.default_rng([2 ** 40 + 3, i])
            assert rng.bit_generator.state == want.bit_generator.state
        with pytest.raises(TypeError):
            rngs[0].spawn(2)

    def test_block_is_read_only(self):
        words = catbell.noise._seed_block(5, 0)
        assert words.shape == (_SEED_BLOCK, 4) and words.dtype == np.uint64
        assert not words.flags.writeable

    @pytest.mark.parametrize("key", [(-1, 0), (0, -1), (-(2 ** 70), 3)])
    def test_negative_key_raises_value_error(self, key):
        with pytest.raises(ValueError):
            np.random.default_rng(list(key))
        with pytest.raises(ValueError):
            trajectory_rng(*key)

    @pytest.mark.parametrize("key", [(1.5, 0), (0, 2.0), (np.float64(3.0), 1)])
    def test_float_key_raises_type_error(self, key):
        with pytest.raises(TypeError):
            np.random.default_rng(list(key))
        with pytest.raises(TypeError):
            trajectory_rng(*key)

    def test_string_key_raises_type_error(self):
        # numpy would parse "5" as 5; trajectory keys are integers only
        with pytest.raises(TypeError):
            trajectory_rng("5", 0)


class TestMixtures:
    def test_weights(self):
        rho = mixed_bell(0.2)
        w = np.sort(np.linalg.eigvalsh(rho.matrix))[::-1]
        np.testing.assert_allclose(w, [0.8, 0.2, 0.0, 0.0], atol=1e-12)
        assert np.trace(rho.matrix) == pytest.approx(1.0, abs=1e-12)

    def test_pure_endpoints(self):
        from conftest import electronic_bell

        assert dm_fidelity(mixed_bell(0.0), electronic_bell("phi_plus")) == pytest.approx(
            1.0, abs=1e-12
        )
        assert dm_fidelity(mixed_bell(1.0), electronic_bell("psi_plus")) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_range_checked(self):
        with pytest.raises(ValueError):
            mixed_bell(-0.01)
        with pytest.raises(ValueError):
            mixed_bell(1.01)
