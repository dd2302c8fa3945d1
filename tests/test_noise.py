"""Heating channel: exact master-equation solution and jump trajectories."""

from __future__ import annotations

import tracemalloc
import warnings
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catbell.bell import mixed_bell
from catbell.bosonic import EVEN, ODD, ModeParams, cat, coherent, mode_for
from catbell.encoding import MODE_A, MODE_B, bell_target
from catbell.errors import CapacityError, ContractError
from catbell.hilbert import (
    DensityMatrix,
    SpaceLayout,
    StateVector,
    dm_fidelity,
    expectation,
)
import catbell.noise
from catbell.noise import (
    MAX_STEPS,
    HeatingParams,
    _diagonal_block,
    delta_of,
    evolve_lindblad,
    lindblad_rhs,
    parity_flip_probability,
    sample_trajectory,
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


class TestRhs:
    def test_vacuum_heats_at_gamma(self):
        rho = np.zeros((12, 12), dtype=np.complex128)
        rho[0, 0] = 1.0
        dn = np.trace(np.diag(np.arange(12.0)) @ lindblad_rhs(rho, 0.3)).real
        assert abs(dn - 0.3) < 1e-10

    def test_traceless(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        assert abs(np.trace(lindblad_rhs(rho, 0.2))) < 1e-12

    def test_coherent_amplitude_stationary(self):
        mode = mode_for(2.0)
        rho = coherent(2.0, mode).to_density().matrix
        a = np.diag(np.sqrt(np.arange(1, mode.cutoff, dtype=np.float64)), 1)
        da = np.trace(a @ lindblad_rhs(rho, 0.01))
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
        before = m.copy()
        got = lindblad_rhs(m, gamma)
        want = (liouvillian_matrix(gamma, dim) @ m.reshape(-1)).reshape(dim, dim)
        assert np.abs(got - want).max() <= 1e-12
        assert np.array_equal(m, before)

    @pytest.mark.parametrize("gamma", [0.3, 2.0])
    @pytest.mark.parametrize("dim", range(1, 13))
    def test_diagonal_blocks_are_the_generator(self, dim, gamma):
        # the generator keeps a rho supported on diagonals +-m there, and on
        # each of them acts as gamma V diag(w) V^T of _diagonal_block
        rng = np.random.default_rng(dim)
        for m in range(dim):
            w, v = _diagonal_block(dim, m)
            assert np.abs(v.T @ v - np.eye(dim - m)).max() <= 1e-14
            block = gamma * (v * w) @ v.T
            upper, lower = rng.normal(size=(2, dim - m)) + 1j * rng.normal(size=(2, dim - m))
            upper, lower = upper / np.linalg.norm(upper), lower / np.linalg.norm(lower)
            rho = np.diag(upper, m) + (np.diag(lower, -m) if m else 0.0)
            got = lindblad_rhs(rho, gamma)
            off = np.abs(np.subtract.outer(np.arange(dim), np.arange(dim))) != m
            assert np.all(got[off] == 0.0)
            assert np.abs(np.diagonal(got, m) - block @ upper).max() <= 1e-13
            if m:
                assert np.abs(np.diagonal(got, -m) - block @ lower).max() <= 1e-13


class TestEvolve:
    def test_zero_gamma_identity(self):
        mode = mode_for(1.5)
        rho0 = cat(1.5, EVEN, mode).to_density()
        res = evolve_lindblad(rho0, HeatingParams(0.0, 1.0, steps=50))
        assert np.array_equal(res.final.matrix, rho0.matrix)

    @pytest.mark.parametrize("kind", ["hermitian", "general"])
    @pytest.mark.parametrize("gamma", [0.3, 2.0])
    @pytest.mark.parametrize("dim", [2, 3, 5, 12])
    def test_matches_superoperator_exponential(self, dim, gamma, kind):
        # a one-mode layout has d >= 2, so d = 1 is covered by the block test
        rho0 = random_matrix(dim, kind, seed=10 * dim + int(gamma))
        duration = 0.7
        res = evolve_lindblad(rho0, HeatingParams(gamma, duration, steps=2))
        assert np.abs(res.final.matrix
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
        res = evolve_lindblad(rho0, HeatingParams(gamma, duration, steps=2))
        want = liouvillian_expm(rho0.matrix, gamma, duration)
        assert np.abs(res.final.matrix - want).max() <= 1e-13
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
        assert np.array_equal(rho0.matrix, before)
        arrays = [rho0.matrix, res.final.matrix, res.times, res.n_trace,
                  res.a_trace, res.parity_trace]
        for i, x in enumerate(arrays):
            for y in arrays[i + 1:]:
                assert not np.shares_memory(x, y)
        second = evolve_lindblad(rho0, params)
        kept = [second.final.matrix.copy(), second.n_trace.copy(),
                second.a_trace.copy(), second.parity_trace.copy()]
        for x in arrays[1:]:
            x[...] = np.nan
        assert np.array_equal(rho0.matrix, before)
        got = [second.final.matrix, second.n_trace, second.a_trace,
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
        res = evolve_lindblad(rho0, HeatingParams(0.01, 1.0))
        want = liouvillian_expm(rho0.matrix, 0.01, 1.0)
        assert np.abs(res.final.matrix - want).max() < 1e-6

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
        res = evolve_lindblad(rho0, HeatingParams(1e3, 1.0, steps=20))
        assert abs(res.n_trace[-1] - (dim - 1) / 2) <= 1e-9
        assert abs(res.parity_trace[-1]) <= 1e-9
        assert np.abs(res.final.matrix - np.eye(dim) / dim).max() <= 1e-12

    def test_trace_drift_guard(self):
        # past float64's reach the exponentials overflow or the rounded
        # steady-state eigenvalue takes over; either ends in the named error
        # without a numpy warning
        rho0 = DensityMatrix(SpaceLayout((12,)), np.diag([1.0] + [0.0] * 11))
        for gamma, duration in [(1e-3, 1e300), (1e300, 1e10), (1e3, 1e15)]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ContractError, match=r"at gamma\*duration = "):
                    evolve_lindblad(rho0, HeatingParams(gamma, duration))

    def test_final_is_built_from_a_private_copy(self):
        rho0 = random_density(6, seed=12)
        params = HeatingParams(0.05, 1.0, steps=3)
        want = evolve_lindblad(rho0, params).final.matrix
        res = evolve_lindblad(rho0, params)
        rho0.matrix[...] = 0.0
        assert np.array_equal(res.final.matrix, want)
        assert res.final is res.final
        for x in (rho0.matrix, res.times, res.n_trace, res.a_trace,
                  res.parity_trace):
            assert not np.shares_memory(res.final.matrix, x)

    def test_single_mode_only(self):
        rho0 = basis_state(SpaceLayout((4, 4)), (0, 0)).to_density()
        with pytest.raises(ValueError):
            evolve_lindblad(rho0, HeatingParams(0.01, 1.0))

    def test_trace_record_shapes(self):
        mode = ModeParams(10)
        rho0 = coherent(0.5, mode).to_density()
        res = evolve_lindblad(rho0, HeatingParams(0.01, 2.0, steps=120))
        assert res.times.shape == (121,)
        assert res.times[0] == 0.0 and res.times[-1] == 2.0
        assert res.n_trace.shape == res.parity_trace.shape == (121,)
        assert res.trace_drift < 1e-6


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
