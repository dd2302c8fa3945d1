"""Heating channel: exact master-equation solution and jump trajectories."""

from __future__ import annotations

import re
import tracemalloc
import warnings
from math import prod

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from catbell.bell import mixed_bell
from catbell.bosonic import EVEN, ODD, ModeParams, cat, coherent, mode_for
from catbell.encoding import MODE_A, MODE_B, EncodingParams, bell_target
from catbell.errors import CapacityError, ContractError
from catbell.hilbert import (
    DensityMatrix,
    SpaceLayout,
    StateVector,
    band_eigh,
    dm_fidelity,
    expectation,
)
import catbell.noise
from catbell.noise import (
    MAX_STEPS,
    HeatingParams,
    _SEED_BLOCK,
    _diagonal_block,
    _jump,
    _mode_view,
    delta_of,
    evaluate_traces,
    evolve_lindblad,
    parity_flip_probability,
    propagate,
    sample_trajectory,
    trace_coefficients,
    trajectory_rng,
)
from catbell.reference import liouvillian_expm, liouvillian_matrix, poisson_jump_stats
from conftest import basis_state, on_register, parity_op


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


def readouts(rho: np.ndarray) -> tuple[float, complex, float]:
    """<n>, <a> and parity of rho, read directly off its diagonals."""
    k = np.arange(rho.shape[0])
    diag = np.diagonal(rho).real
    return (float((k * diag).sum()),
            complex((np.sqrt(k[1:]) * np.diagonal(rho, -1)).sum()),
            float(((-1.0) ** k * diag).sum()))


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            HeatingParams(-0.1, 1.0)
        with pytest.raises(ValueError):
            HeatingParams(0.1, -1.0)
        with pytest.raises(ValueError):
            HeatingParams(0.1, 1.0, steps=0)

    # a non-finite rate or duration would leave sample_trajectory drawing
    # jump times forever, so the parameters themselves must refuse it
    @pytest.mark.parametrize("gamma,duration", [
        (float("nan"), 1.0), (float("inf"), 1.0),
        (0.1, float("inf")), (0.1, float("nan")),
    ])
    def test_non_finite_rejected(self, gamma, duration):
        with pytest.raises(ValueError, match="finite"):
            HeatingParams(gamma, duration)

    @pytest.mark.parametrize("params", [
        HeatingParams(0.01, 1.0, steps=MAX_STEPS + 1),
        HeatingParams(0.01, 1.0, steps=10 ** 15),
    ], ids=["given-past-limit", "given-huge"])
    def test_step_limit_refused_before_allocating(self, params, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("record arrays allocated past the step limit")
        monkeypatch.setattr(catbell.noise.np, "linspace", refuse)
        rho0 = basis_state(SpaceLayout((8,)), (0,)).to_density()
        with pytest.raises(CapacityError, match="recorded steps exceed the limit"):
            evolve_lindblad(rho0, params)

    def test_step_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(catbell.noise, "MAX_STEPS", 150)
        rho0 = basis_state(SpaceLayout((4,)), (0,)).to_density()
        assert evolve_lindblad(rho0, HeatingParams(1e-3, 1.0, steps=150)).times.size == 151
        with pytest.raises(CapacityError, match="151 recorded steps"):
            evolve_lindblad(rho0, HeatingParams(1e-3, 1.0, steps=151))
        # the count is printed in full, not rounded to 1e+06
        monkeypatch.undo()
        with pytest.raises(CapacityError, match=re.escape(
                f"{MAX_STEPS + 1} recorded steps exceed the limit {MAX_STEPS};")):
            evolve_lindblad(rho0, HeatingParams(1e-3, 1.0, steps=MAX_STEPS + 1))


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
        duration = 0.7
        params = HeatingParams(gamma, duration, steps=2)
        res = evolve_lindblad(rho0, params)
        assert np.abs(propagate(rho0, params).matrix
                      - liouvillian_expm(rho0.matrix, gamma, duration)).max() <= 1e-13
        for i, t in enumerate(res.times):
            n, a, p = readouts(liouvillian_expm(rho0.matrix, gamma, t))
            assert abs(res.n_trace[i] - n) <= 1e-13
            assert abs(res.a_trace[i] - a) <= 1e-13
            assert abs(res.parity_trace[i] - p) <= 1e-13

    def test_stiff_top_level_is_exact(self):
        # h gamma (2d) = 0.5 on the top level for two steps: there the old
        # fixed-step RK4 integrator was more than 1e-4 off
        dim, duration = 12, 1.0
        gamma = 0.5 / (2 * dim * duration / 2)
        rho0 = basis_state(SpaceLayout((dim,)), (dim - 1,)).to_density()
        params = HeatingParams(gamma, duration, steps=2)
        res = evolve_lindblad(rho0, params)
        want = liouvillian_expm(rho0.matrix, gamma, duration)
        assert np.abs(propagate(rho0, params).matrix - want).max() <= 1e-13
        assert abs(res.n_trace[-1] - readouts(want)[0]) <= 1e-13

    def test_trace_memory_is_linear_in_steps(self):
        # the four traces take 40 B a step; a (steps, d) float history of the
        # diagonal alone would add 8 d B a step, 320 B at d = 40
        dim, steps = 40, 50_000
        rho0 = basis_state(SpaceLayout((dim,)), (0,)).to_density()
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            res = evolve_lindblad(rho0, HeatingParams(1e-4, 1.0, steps=steps))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        assert res.n_trace.shape == (steps + 1,)
        assert peak <= 64 * (steps + 1) + 1024 * dim ** 2

    def test_input_untouched_and_results_unshared(self):
        rho0 = random_density(6, seed=11)
        before = rho0.matrix.copy()
        params = HeatingParams(0.05, 1.0, steps=10)
        res = evolve_lindblad(rho0, params)
        final = propagate(rho0, params)
        assert np.array_equal(rho0.matrix, before)
        arrays = [rho0.matrix, final.matrix, res.times, res.n_trace,
                  res.a_trace, res.parity_trace]
        for i, x in enumerate(arrays):
            for y in arrays[i + 1:]:
                assert not np.shares_memory(x, y)
        second, second_final = evolve_lindblad(rho0, params), propagate(rho0, params)
        kept = [second_final.matrix.copy(), second.n_trace.copy(),
                second.a_trace.copy(), second.parity_trace.copy()]
        for x in arrays[1:]:
            x[...] = np.nan
        assert np.array_equal(rho0.matrix, before)
        got = [second_final.matrix, second.n_trace, second.a_trace,
               second.parity_trace]
        assert all(np.array_equal(x, y) for x, y in zip(got, kept))

    def test_occupation_growth(self):
        mode = mode_for(2.0)
        rho0 = coherent(2.0, mode).to_density()
        res = evolve_lindblad(rho0, HeatingParams(0.01, 1.0))
        assert abs(res.n_trace[-1] - 4.01) < 1e-4
        assert abs(res.n_trace[0] - 4.0) < 1e-8

    def test_amplitude_conserved(self):
        mode = mode_for(2.0)
        rho0 = coherent(2.0, mode).to_density()
        res = evolve_lindblad(rho0, HeatingParams(0.01, 1.0))
        assert abs(res.a_trace[-1] - res.a_trace[0]) < 1e-9

    def test_matches_exponentiated_generator(self):
        mode = ModeParams(12, leak_tol=1e-2)
        rho0 = cat(2.0, EVEN, mode).to_density()
        got = propagate(rho0, HeatingParams(0.01, 1.0))
        want = liouvillian_expm(rho0.matrix, 0.01, 1.0)
        assert np.abs(got.matrix - want).max() < 1e-6

    def test_parity_matches_frozen(self, golden):
        rec = golden("heating_parity.json")["cat_parity_after_heating"]
        mode = ModeParams(12, leak_tol=1e-5)
        rho0 = cat(1.5, EVEN, mode).to_density()
        res = evolve_lindblad(rho0, HeatingParams(0.02, 1.0))
        assert abs(res.parity_trace[-1] - rec.value) < rec.tolerance

    def test_values_do_not_depend_on_the_record_grid(self):
        # the endpoint is the same bits on every grid; a grid point is the
        # same bits as a run that ends there
        mode = ModeParams(12, leak_tol=1e-5)
        rho0 = cat(1.5, EVEN, mode).to_density()

        def endpoint(res):
            return (res.n_trace[-1], res.a_trace[-1], res.parity_trace[-1],
                    res.trace_drift)
        want = endpoint(evolve_lindblad(rho0, HeatingParams(0.02, 1.0)))
        for steps in (1, 7, 100, 5000):
            res = evolve_lindblad(rho0, HeatingParams(0.02, 1.0, steps=steps))
            assert endpoint(res) == want
        res = evolve_lindblad(rho0, HeatingParams(0.02, 2.0, steps=2))
        assert endpoint(evolve_lindblad(rho0, HeatingParams(0.02, 1.0)))[:3] == \
            (res.n_trace[1], res.a_trace[1], res.parity_trace[1])

    def test_long_time_is_the_uniform_steady_state(self):
        # gamma t = 1e3 is far past every decay time of the truncated ladder;
        # the balanced channel leaves the levels equally filled
        dim = 12
        rho0 = basis_state(SpaceLayout((dim,)), (0,)).to_density()
        params = HeatingParams(1e3, 1.0, steps=20)
        res = evolve_lindblad(rho0, params)
        assert abs(res.n_trace[-1] - (dim - 1) / 2) <= 1e-9
        assert abs(res.parity_trace[-1]) <= 1e-9
        assert np.abs(propagate(rho0, params).matrix - np.eye(dim) / dim).max() <= 1e-12

    @pytest.mark.parametrize("rate", [1e3, 1e9])
    def test_steady_state_holds_its_trace_at_any_rate(self, rate):
        # the w = 0 pair of block 0 is exact, so the trace does not drift
        # linearly in gamma t (2.8e-12 at 1e3 and an error at 1e9 when the
        # solver's rounded eigenvalue, about 1e-15, was used)
        dim = 26
        rho0 = cat(2.0, EVEN, mode_for(2.0)).to_density()
        assert rho0.matrix.shape[0] == dim
        res = evolve_lindblad(rho0, HeatingParams(1.0, rate, steps=20))
        assert res.trace_drift <= 1e-12
        assert abs(res.n_trace[-1] - (dim - 1) / 2) <= 1e-12

    def test_trace_drift_guard(self):
        # an infinite gamma t leaves exp(gamma t w) undefined on the
        # steady state and ends in the named error without a numpy warning,
        # in evolve_lindblad and in propagate; a huge finite one is the
        # uniform steady state
        rho0 = DensityMatrix(SpaceLayout((12,)), np.diag([1.0] + [0.0] * 11))
        for gamma, duration in [(1e-3, 1e300), (1e300, 1e10), (1e3, 1e15)]:
            params = HeatingParams(gamma, duration)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                if np.isfinite(gamma * duration):
                    res = evolve_lindblad(rho0, params)
                    assert res.trace_drift <= 1e-12
                    assert abs(res.n_trace[-1] - 5.5) <= 1e-12
                    assert np.abs(propagate(rho0, params).matrix
                                  - np.eye(12) / 12).max() <= 1e-12
                    continue
                for run in (evolve_lindblad, propagate):
                    with pytest.raises(ContractError,
                                       match=r"at gamma\*duration = inf"):
                        run(rho0, params)

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
        # as it maps any rho; evolve_lindblad refuses them by its trace check
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
            with pytest.raises(ContractError, match="trace drifted"):
                evolve_lindblad(rho0, HeatingParams(gamma, duration))

    def test_single_mode_only(self):
        rho0 = basis_state(SpaceLayout((4, 4)), (0, 0)).to_density()
        for run in (evolve_lindblad, propagate):
            with pytest.raises(ValueError):
                run(rho0, HeatingParams(0.01, 1.0))

    def test_trace_record_shapes(self):
        mode = ModeParams(10)
        rho0 = coherent(0.5, mode).to_density()
        res = evolve_lindblad(rho0, HeatingParams(0.01, 2.0, steps=120))
        assert res.times.shape == (121,)
        assert res.times[0] == 0.0 and res.times[-1] == 2.0
        assert res.n_trace.shape == res.parity_trace.shape == (121,)
        assert res.trace_drift < 1e-6


class TestDiagonalBlockCache:
    """The heating blocks are decomposed once per (d, m) and reused."""

    @pytest.mark.parametrize("dim", [2, 3, 12, 26, 37, 50, 82, 122])
    def test_cached_equals_a_fresh_decomposition(self, dim):
        _diagonal_block.cache_clear()
        s = 2.0 * np.arange(dim) + 1.0
        s[-1] = dim - 1.0
        for m in sorted({0, 1, dim - 1}):
            n = np.arange(1, dim - m, dtype=np.float64)
            fresh = band_eigh(-0.5 * (s[:dim - m] + s[m:]), np.sqrt(n * (n + m)))
            if m == 0:  # deflated, checked in test_block_zero_deflation
                fresh = _diagonal_block.__wrapped__(dim, 0)
            for _ in range(2):  # the cold call, then the hit
                for got, want in zip(_diagonal_block(dim, m), fresh):
                    assert np.array_equal(got, want)

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

    def test_arrays_are_read_only(self):
        for cached in _diagonal_block(12, 1):
            with pytest.raises(ValueError, match="read-only"):
                cached[0] = 1.0

    def test_cold_run_equals_warm_run(self):
        runs = [(cat(2.0, EVEN, mode_for(2.0)).to_density(),
                 HeatingParams(1e-3, 1.0, steps=100)),
                (cat(2.0, EVEN, mode_for(2.0)).to_density(),
                 HeatingParams(2e-2, 0.5)),
                (random_density(12, seed=13), HeatingParams(0.05, 1.0, steps=7))]

        def evolve(cold: bool) -> list:
            out = []
            for rho0, params in runs:
                if cold:
                    _diagonal_block.cache_clear()
                res, final = evolve_lindblad(rho0, params), propagate(rho0, params)
                if cold:
                    _diagonal_block.cache_clear()
                out.append((res.times, res.n_trace, res.a_trace,
                            res.parity_trace, res.trace_drift, final.matrix))
            return out

        _diagonal_block.cache_clear()
        evolve(cold=False)
        warm = evolve(cold=False)
        # propagate reads every block, and each of d = 26 and d = 12 is
        # decomposed once
        assert _diagonal_block.cache_info().misses == 26 + 12
        for got, want in zip(evolve(cold=True), warm):
            assert all(np.all(x == y) for x, y in zip(got, want))


class TestTraceStages:
    """evolve_lindblad is trace_coefficients, then evaluate_traces on the
    record grid; a time's traces do not depend on the other times."""

    @pytest.mark.parametrize("steps", [None, 1, 7, 100])
    def test_endpoint_alone_has_the_grid_bits(self, steps):
        runs = [(cat(2.0, EVEN, mode_for(2.0)).to_density(), 2e-2, 1.3),
                (random_density(12, seed=5), 0.4, 0.7)]
        for rho0, gamma, duration in runs:
            res = evolve_lindblad(rho0, HeatingParams(gamma, duration, steps))
            end = evaluate_traces(trace_coefficients(rho0), gamma,
                                  np.array([duration]))
            for got, want in ((end.n_trace, res.n_trace),
                              (end.a_trace, res.a_trace),
                              (end.parity_trace, res.parity_trace)):
                assert got.tobytes() == want[-1:].tobytes()
            assert end.trace_drift == res.trace_drift

    def test_coefficients_leave_the_input_alone(self):
        rho0 = random_density(9, seed=2)
        before = rho0.matrix.copy()
        coeffs = trace_coefficients(rho0)
        assert np.array_equal(rho0.matrix, before)
        for array in (coeffs.w0, coeffs.c0, coeffs.w1, coeffs.c1):
            assert not np.shares_memory(array, rho0.matrix)


class TestScales:
    def test_delta_of(self):
        assert delta_of(1e-3, 2.0, 10.0) == pytest.approx(0.04, abs=1e-15)
        assert delta_of(0.0, 3.0, 5.0) == 0.0

    def test_threshold_inversion(self):
        # gamma t = (1 - 1/sqrt(2)) / alpha^2 puts delta exactly at threshold
        alpha = 2.0
        gt = (1.0 - 2 ** -0.5) / alpha**2
        assert abs(delta_of(gt, alpha, 1.0) - (1.0 - 2 ** -0.5)) < 1e-12

    def test_parity_flip_probability_small_rate(self):
        p = parity_flip_probability(1e-5, 2.0, 1.0)
        assert p == pytest.approx(2.0 * 4e-5, rel=1e-3)

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    def test_single_jump_formulas_undercount_flips(self, alpha):
        # the exact channel flips an even cat's parity at gamma (2 nbar + 1)
        # t for small gamma t, with nbar the cat's own <n>; delta_of and
        # parity_flip_probability miss that law by the factors
        # (2 nbar + 1) / alpha^2 and (2 nbar + 1) / (2 alpha^2)
        gamma, duration = 1e-4, 1.0
        rho0 = cat(alpha, EVEN, mode_for(alpha)).to_density()
        res = evolve_lindblad(rho0, HeatingParams(gamma, duration))
        flip = (1.0 - res.parity_trace[-1]) / 2.0
        law = gamma * (2.0 * res.n_trace[0] + 1.0) * duration
        assert flip / law == pytest.approx(1.0, abs=1e-2)
        assert flip / delta_of(gamma, alpha, duration) > 2.0
        assert flip / parity_flip_probability(gamma, alpha, duration) > 1.05

    def test_parity_flip_probability_matches_poisson_oracle(self):
        # balanced rates gamma alpha^2 up and down, merged intensity 2 delta
        rate = 1e-3 * 4.0
        stats = poisson_jump_stats(rate, rate, 10.0)
        assert parity_flip_probability(1e-3, 2.0, 10.0) == pytest.approx(
            stats["p_odd"], abs=1e-12
        )

    def test_parity_flip_probability_saturates(self):
        assert parity_flip_probability(10.0, 3.0, 10.0) == pytest.approx(0.5, abs=1e-12)


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

    def test_resample_never_annihilates(self):
        # frozen rates keep drawing downward events against |1>; they must be
        # skipped, not crash
        lay = SpaceLayout((4,))
        psi = basis_state(lay, (1,))
        params = HeatingParams(0.05, 10.0, constant_rate=True)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for seed in range(200):
                res = sample_trajectory(psi, params, seed)
                assert abs(res.final.norm - 1.0) < 1e-12

    def test_depth_warning(self):
        mode = mode_for(2.0)
        psi = cat(2.0, EVEN, mode)
        with pytest.warns(UserWarning, match="not small"):
            sample_trajectory(psi, HeatingParams(0.05, 10.0), 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sample_trajectory(psi, HeatingParams(1e-3, 10.0), 0)

    def test_depth_warning_follows_the_occupancy_not_its_bound(self):
        # in 8 levels the no-jump exit's bound 7 ||psi||^2 is past
        # 0.5 / (gamma t) = 5.  <n> = 1 of |1> is not, so no call may warn;
        # <n> = 7 of |7> is, so every call warns, those with no jump too
        # (about a fifth of them wait past the duration even at the bound's
        # rates)
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

    def test_no_jump_exit_skips_the_occupancy(self, monkeypatch):
        # at gamma t = 1e-9 every first wait of these seeds ends past the
        # duration even at the bound's rates, so <n> is never computed
        psi = cat(2.0, EVEN, mode_for(2.0))

        def refuse(*args):
            raise AssertionError("occupancy computed")

        monkeypatch.setattr(catbell.noise, "_occupancy", refuse)
        for seed in range(40):
            res = sample_trajectory(psi, HeatingParams(1e-9, 1.0), seed)
            assert res.jumps == [] and not res.parity_flipped
            assert np.array_equal(res.final.amps, psi.amps)
            assert not np.shares_memory(res.final.amps, psi.amps)

    def test_exponential_is_scaled_standard_exponential(self):
        # the sampler draws E with standard_exponential() and waits
        # (1 / total) E, which is exactly what exponential(1 / total)
        # returns; the no-jump exit, which draws E before it knows the
        # total, rests on this
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
                from catbell.hilbert import apply, overlap

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
        ref = evolve_lindblad(psi.to_density(), params)
        p_se = p_vals.std(ddof=1) / np.sqrt(n_traj)
        assert abs(p_vals.mean() - ref.parity_trace[-1]) < 3.0 * p_se
        n_se = n_vals.std(ddof=1) / np.sqrt(n_traj)
        n0 = float((n_diag * np.abs(psi.amps) ** 2).sum())
        bias = n_vals.mean() - ref.n_trace[-1]
        assert bias > 3.0 * n_se
        assert bias < 2.0 * gamma * t * (2.0 * n0 + 2.0)


def _lifted_lowering(dims: list | tuple, mode_index: int) -> np.ndarray:
    """Dense a on factor mode_index, identity on every other factor."""
    d = dims[mode_index]
    return np.kron(np.kron(np.eye(prod(dims[:mode_index])),
                           np.diag(np.sqrt(np.arange(1.0, d)), 1)),
                   np.eye(prod(dims[mode_index + 1:])))


def _reference_jumps(psi: StateVector, params: HeatingParams, rng,
                     mode_index: int) -> list:
    """The jump record drawn the direct way: <n> from the |amplitude|^2
    marginal summed over every other axis and evaluated before every draw,
    and each jump a dense ladder matrix lifted to the whole register."""
    dims = psi.layout.dims
    d = dims[mode_index]
    lower = _lifted_lowering(dims, mode_index)
    others = tuple(i for i in range(len(dims)) if i != mode_index)

    def occupancy(amps):
        marg = (np.abs(amps.reshape(dims)) ** 2).sum(axis=others)
        return float((np.arange(d) * marg).sum())

    amps = psi.amps
    n0 = occupancy(amps)
    jumps: list = []
    t = 0.0
    while True:
        if params.constant_rate:
            r_up = r_down = params.gamma * n0
        else:
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
            continue
        amps = kicked / nrm
        jumps.append((t, "+" if up else "-"))
    return jumps


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
        for mode_index in range(len(dims)):
            lower = _lifted_lowering(dims, mode_index)
            for constant_rate in (False, True):
                params = HeatingParams(2.0, duration, constant_rate=constant_rate)
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
        # at small gamma t most records end at the no-jump exit and the rest
        # take the loop with the exit's draw as their first wait; either way
        # a shared generator must end where the oracle's does.  ||psi||^2 =
        # scale^2, so unnormalized registers are included
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

    @pytest.mark.parametrize("gamma,constant_rate,level", [
        (0.0, False, 3), (0.0, True, 3), (0.5, True, 0)])
    def test_no_draw_where_no_wait_is_drawn(self, gamma, constant_rate, level):
        # at gamma = 0, and for the vacuum under frozen rates, every rate is
        # 0: the sampler must leave the generator untouched
        psi = basis_state(SpaceLayout((6, 3)), (level, 1))
        for seed in range(10):
            rng = trajectory_rng(seed, 0)
            before = rng.bit_generator.state
            res = sample_trajectory(psi, HeatingParams(gamma, 2.0,
                                                       constant_rate=constant_rate), rng)
            assert rng.bit_generator.state == before
            assert res.jumps == []
            assert np.array_equal(res.final.amps, psi.amps)
            assert not np.shares_memory(res.final.amps, psi.amps)


def _complex_jump(psi: np.ndarray, up: bool, root: np.ndarray):
    """_jump as complex arithmetic: the ladder column cast to complex and a
    complex division by the norm."""
    out = np.zeros_like(psi)
    if up:
        np.multiply(root, psi[:, :-1], out=out[:, 1:])
    else:
        np.multiply(root, psi[:, 1:], out=out[:, :-1])
    nrm = np.linalg.norm(out)
    if nrm == 0.0:
        return None
    out /= nrm
    return out


class TestJumpKernel:
    """_jump scales the float view of the register by the real ladder
    column and by 1 / norm, and has the bits of the complex arithmetic."""

    @pytest.mark.parametrize("alpha", [2.0, 3.0, 4.0])
    def test_phi_plus_jump_chains_keep_their_bytes(self, alpha):
        psi0 = bell_target("phi_plus", EncodingParams.for_amplitudes(alpha))
        for mode_index in (MODE_A, MODE_B):
            shape, _, root = _mode_view(psi0.layout.dims, mode_index)
            for kinds in ((True,), (False,), (True, True, False),
                          (False, True, False)):
                got = want = psi0.amps.reshape(shape)
                for up in kinds:
                    got, want = _jump(got, up, root), _complex_jump(want, up, root)
                    assert got.tobytes() == want.tobytes()

    def test_signed_zeros_keep_their_values(self):
        # a -0.0 amplitude may leave a zero of the other sign; every value,
        # and the bits of every nonzero one, are the complex arithmetic's
        rng = np.random.default_rng(7)
        for _ in range(200):
            dims = tuple(int(d) for d in rng.integers(2, 7, size=rng.integers(1, 4)))
            mode_index = int(rng.integers(len(dims)))
            shape, _, root = _mode_view(dims, mode_index)
            f = rng.normal(size=2 * prod(dims))
            f[rng.random(f.size) < 0.4] = 0.0
            f[rng.random(f.size) < 0.5] *= -1.0
            psi = f.view(np.complex128).reshape(shape)
            before = psi.copy()
            for up in (True, False):
                got, want = _jump(psi, up, root), _complex_jump(psi, up, root)
                if want is None:
                    assert got is None
                    continue
                got, want = got.view(np.float64), want.view(np.float64)
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
        assert rho.trace == pytest.approx(1.0, abs=1e-12)

    def test_pure_endpoints(self):
        from catbell.bell import electronic_bell

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
