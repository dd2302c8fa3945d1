"""CHSH correlators: exact, pulse-rotated, and sampled."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catbell.bell import (
    CHSH_METHODS,
    DEFAULT_ANGLES,
    DELTA_STAR,
    OUTCOME_SIGNS,
    PAIR,
    TSIRELSON,
    BellAngles,
    chsh,
    correlation_exact,
    correlation_rotated,
    correlation_sampled,
    electronic_bell,
    measurement_pulse,
    mixed_bell,
    mixed_bell_fidelity,
    reduced_electronic,
    reduced_electronic_schmidt,
    sigma_theta,
    violation_scan,
)
from catbell.bosonic import ModeParams
from catbell.encoding import EncodingParams, SchmidtState, bell_target, full_layout
from catbell.errors import ContractError
from catbell.hilbert import (
    DensityMatrix,
    SpaceLayout,
    StateVector,
    dm_fidelity,
)
from conftest import basis_state

SIGMA_Z = np.diag([1.0, -1.0]).astype(np.complex128)


class TestStatesAndAngles:
    def test_bell_amplitudes(self):
        np.testing.assert_allclose(
            electronic_bell("phi_plus").amps, np.array([1, 0, 0, 1]) / np.sqrt(2)
        )
        np.testing.assert_allclose(
            electronic_bell("psi_plus").amps, np.array([0, 1, 1, 0]) / np.sqrt(2)
        )

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            electronic_bell("phi_minus")

    def test_default_angles(self):
        assert DEFAULT_ANGLES.theta_a == 0.0
        assert DEFAULT_ANGLES.theta_a_prime == pytest.approx(np.pi / 2)
        assert DEFAULT_ANGLES.theta_b == pytest.approx(-np.pi / 4)
        assert DEFAULT_ANGLES.theta_b_prime == pytest.approx(np.pi / 4)

    def test_settings_order(self):
        s = DEFAULT_ANGLES.settings()
        assert s[0] == (0.0, DEFAULT_ANGLES.theta_b)
        assert s[3] == (DEFAULT_ANGLES.theta_a_prime, DEFAULT_ANGLES.theta_b_prime)

    def test_constants(self):
        assert TSIRELSON == pytest.approx(2.0 * np.sqrt(2.0))
        assert DELTA_STAR == pytest.approx(1.0 - 2 ** -0.5)


class TestAxes:
    def test_sigma_theta_endpoints(self):
        np.testing.assert_allclose(sigma_theta(0.0), [[0, 1], [1, 0]], atol=1e-15)
        np.testing.assert_allclose(sigma_theta(np.pi / 2), [[0, -1j], [1j, 0]], atol=1e-12)

    def test_sigma_theta_squares_to_identity(self):
        for theta in np.linspace(-np.pi, np.pi, 9):
            m = sigma_theta(theta)
            assert np.abs(m @ m - np.eye(2)).max() < 1e-12

    def test_pulse_maps_z_onto_axis(self):
        # V sigma_z V† = sigma(theta): the pulse realizes the analyzer setting
        for theta in np.linspace(-np.pi, np.pi, 13):
            v = measurement_pulse(theta)
            got = v @ SIGMA_Z @ v.conj().T
            assert np.abs(got - sigma_theta(theta)).max() < 1e-12


class TestCorrelators:
    def test_phi_plus_aligned(self):
        assert correlation_exact(electronic_bell("phi_plus"), 0.0, 0.0) == pytest.approx(1.0)

    def test_mixture_formula_agreement(self):
        # E(t1, t2) on the mixture equals the closed form
        # (1 - delta) cos(t1 + t2) + delta cos(t1 - t2)
        for delta in (0.0, 0.1, 0.29, 0.5):
            rho = mixed_bell(delta)
            for ta, tb in ((0.3, -0.7), (np.pi / 6, np.pi / 12), (1.0, 2.0)):
                want = (1.0 - delta) * np.cos(ta + tb) + delta * np.cos(ta - tb)
                assert correlation_exact(rho, ta, tb) == pytest.approx(want, abs=1e-10)

    def test_example_point(self):
        got = correlation_exact(mixed_bell(0.1), np.pi / 6, np.pi / 12)
        want = 0.9 * np.cos(np.pi / 4) + 0.1 * np.cos(np.pi / 12)
        assert got == pytest.approx(want, abs=1e-10)

    def test_symmetric_in_settings(self):
        rho = mixed_bell(0.2)
        for ta, tb in ((0.4, 1.3), (-0.2, 0.9)):
            assert correlation_exact(rho, ta, tb) == pytest.approx(
                correlation_exact(rho, tb, ta), abs=1e-10
            )

    def test_rotated_matches_exact(self):
        rng = np.random.default_rng(17)
        rho = mixed_bell(0.1)
        for _ in range(20):
            ta, tb = rng.uniform(-np.pi, np.pi, size=2)
            assert correlation_rotated(rho, ta, tb) == pytest.approx(
                correlation_exact(rho, ta, tb), abs=1e-8
            )

    def test_product_state_uncorrelated(self):
        psi = basis_state(PAIR, (0, 0))
        for theta in np.linspace(0, np.pi, 7):
            assert abs(correlation_exact(psi, theta, -theta)) < 1e-10

    def test_layout_guard(self):
        bad = basis_state(SpaceLayout((3, 2)), (0, 0))
        with pytest.raises(ValueError):
            correlation_exact(bad, 0.0, 0.0)


class TestSampling:
    def test_counts_sum_to_shots(self):
        rng = np.random.default_rng(3)
        res = correlation_sampled(electronic_bell("phi_plus"), 0.1, 0.2, 500, rng)
        assert sum(res.counts) == 500

    def test_single_shot_is_a_sign(self):
        rng = np.random.default_rng(5)
        res = correlation_sampled(electronic_bell("phi_plus"), 0.3, -0.2, 1, rng)
        assert res.value in (-1.0, 1.0)

    def test_shots_positive(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            correlation_sampled(electronic_bell("phi_plus"), 0.0, 0.0, 0, rng)

    def test_deterministic_for_seed(self):
        a = correlation_sampled(mixed_bell(0.2), 0.4, 0.1, 1000, np.random.default_rng(11))
        b = correlation_sampled(mixed_bell(0.2), 0.4, 0.1, 1000, np.random.default_rng(11))
        assert a.counts == b.counts
        assert a.value == b.value

    def test_estimator_consistency(self):
        res = correlation_sampled(mixed_bell(0.1), 0.5, -0.3, 2000, np.random.default_rng(7))
        signed = (OUTCOME_SIGNS * np.array(res.counts)).sum() / 2000
        assert res.value == pytest.approx(signed, abs=1e-15)
        assert 0.0 < res.std_error < 1.0

    def test_large_sample_near_exact(self):
        out = chsh(electronic_bell("phi_plus"), method="sampled", shots=100_000, seed=0)
        assert abs(out.b_value - TSIRELSON) < 0.02
        assert out.shots == 100_000
        assert out.std_error is not None


class TestChsh:
    def test_exact_on_pure_bell(self):
        out = chsh(electronic_bell("phi_plus"))
        assert out.b_value == pytest.approx(TSIRELSON, abs=1e-6)
        assert out.method == "exact"
        assert out.std_error is None

    def test_linear_law_values(self):
        for delta in (0.0, 0.1, DELTA_STAR, 0.5):
            out = chsh(mixed_bell(delta))
            assert out.b_value == pytest.approx(TSIRELSON * (1.0 - delta), abs=1e-8)

    def test_threshold_value(self):
        assert chsh(mixed_bell(DELTA_STAR)).b_value == pytest.approx(2.0, abs=1e-6)
        assert chsh(mixed_bell(0.5)).b_value == pytest.approx(np.sqrt(2.0), abs=1e-6)

    def test_methods_agree(self):
        rho = mixed_bell(0.15)
        exact = chsh(rho, method="exact").b_value
        rotated = chsh(rho, method="rotated").b_value
        assert rotated == pytest.approx(exact, abs=1e-8)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            chsh(mixed_bell(0.0), method="analytic")

    def test_correlations_recorded(self):
        out = chsh(electronic_bell("phi_plus"))
        assert len(out.correlations) == 4
        np.testing.assert_allclose(
            out.correlations,
            [np.cos(ta + tb) for ta, tb in DEFAULT_ANGLES.settings()],
            atol=1e-10,
        )

    def test_custom_angles(self):
        # shifting party a by +c and party b by -c fixes every theta_a+theta_b
        c = 0.3
        angles = BellAngles(c, np.pi / 2 + c, -np.pi / 4 - c, np.pi / 4 - c)
        out = chsh(electronic_bell("phi_plus"), angles=angles)
        assert out.b_value == pytest.approx(TSIRELSON, abs=1e-8)


class TestViolationScan:
    def test_linear_in_delta(self):
        ds = np.arange(0.0, 0.51, 0.05)
        scan = violation_scan(ds)
        want = TSIRELSON * (1.0 - ds)
        assert np.abs(scan.b_values - want).max() < 1e-8

    def test_crossing_bracketed(self):
        scan = violation_scan(np.arange(0.0, 0.51, 0.05))
        assert 0.25 < scan.crossing < 0.35
        assert abs(scan.crossing - DELTA_STAR) < 0.05

    def test_fine_grid_crossing(self):
        scan = violation_scan(np.arange(0.0, 0.5001, 0.001))
        assert abs(scan.crossing - DELTA_STAR) < 1e-3

    def test_single_point(self):
        scan = violation_scan([0.0])
        assert scan.b_values.shape == (1,)
        assert scan.b_values[0] == pytest.approx(TSIRELSON, abs=1e-8)
        assert scan.crossing is None

    def test_range_validation(self):
        with pytest.raises(ValueError):
            violation_scan([])
        with pytest.raises(ValueError):
            violation_scan([-0.1])
        with pytest.raises(ValueError):
            violation_scan([1.2])


class TestReducedElectronic:
    def test_bell_register_reduces_to_ground_ions(self, enc2):
        red = reduced_electronic(bell_target("phi_plus", enc2))
        assert red.layout.dims == (2, 2)
        assert red.matrix[0, 0].real == pytest.approx(1.0, abs=1e-10)

    def test_layout_guard(self):
        with pytest.raises(ValueError):
            reduced_electronic(basis_state(SpaceLayout((2, 2)), (0, 0)))

    def test_methods_tuple(self):
        assert CHSH_METHODS == ("exact", "rotated", "sampled")

    @settings(max_examples=25)
    @given(st.integers(2, 6), st.integers(2, 6), st.integers(1, 4),
           st.integers(0, 2**31 - 1))
    def test_schmidt_form_matches_the_register(self, d_a, d_b, k, seed):
        rng = np.random.default_rng(seed)
        enc = EncodingParams(1.0, 1.0, ModeParams(d_a, 0.999),
                             ModeParams(d_b, 0.999))

        def factor(d):
            return rng.standard_normal((d, 2, k)) + 1j * rng.standard_normal((d, 2, k))

        state = SchmidtState(full_layout(enc), factor(d_a), factor(d_b))
        got = reduced_electronic_schmidt(state).matrix
        want = reduced_electronic(state.to_state()).matrix
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def random_pair_dm(rng: np.random.Generator, floor: float) -> DensityMatrix:
    """A full-rank two-qubit state: a random Gram matrix plus floor * 1."""
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = a @ a.conj().T + floor * np.eye(4)
    return DensityMatrix(PAIR, m / np.trace(m).real)


class TestMixedBellFidelity:
    @settings(max_examples=60)
    @given(st.integers(0, 2**31 - 1), st.floats(0.0, 1.0),
           st.floats(0.01, 1.0), st.floats(0.0, 0.99))
    def test_matches_uhlmann_on_full_rank_states(self, seed, delta, floor, near):
        # near mixes in the target itself, so high fidelities are covered
        rho = random_pair_dm(np.random.default_rng(seed), floor)
        rho = DensityMatrix(PAIR, (1.0 - near) * rho.matrix
                            + near * mixed_bell(delta).matrix)
        want = dm_fidelity(rho, mixed_bell(delta))
        assert abs(mixed_bell_fidelity(rho, delta) - want) <= 1e-7

    def test_zero_weight_is_the_phi_plus_expectation(self):
        rng = np.random.default_rng(17)
        for floor in (0.0, 0.1, 1.0):
            rho = random_pair_dm(rng, floor)
            want = dm_fidelity(rho, electronic_bell("phi_plus"))
            assert mixed_bell_fidelity(rho, 0.0) == want

    @pytest.mark.parametrize("delta", [0.0, 0.15, 0.5, DELTA_STAR, 1.0])
    def test_target_has_unit_fidelity(self, delta):
        # the Uhlmann route is off by up to about 1e-8 here
        assert abs(mixed_bell_fidelity(mixed_bell(delta), delta) - 1.0) <= 1e-15

    def test_contract(self):
        rho = mixed_bell(0.2)
        with pytest.raises(ValueError, match="delta"):
            mixed_bell_fidelity(rho, 1.5)
        with pytest.raises(ContractError):
            mixed_bell_fidelity(DensityMatrix(PAIR, 1.01 * rho.matrix), 0.2)
        with pytest.raises(ValueError, match="layout"):
            mixed_bell_fidelity(DensityMatrix(SpaceLayout((4,)), rho.matrix), 0.2)


def test_tsirelson_ceiling_random_settings():
    # no angle quadruple on the pure Bell state exceeds 2 sqrt(2)
    rng = np.random.default_rng(101)
    thetas = rng.uniform(-np.pi, np.pi, size=(1000, 4))
    for row in thetas:
        angles = BellAngles(*row)
        b = chsh(electronic_bell("phi_plus"), angles=angles).b_value
        assert b <= TSIRELSON + 1e-6


def test_separable_bound_product_states():
    # product states stay at or below the classical bound of 2
    rng = np.random.default_rng(55)
    for _ in range(100):
        raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        a = raw[0] / np.linalg.norm(raw[0])
        b = raw[1] / np.linalg.norm(raw[1])
        psi = StateVector(PAIR, np.kron(a, b))
        assert chsh(psi).b_value <= 2.0 + 1e-8
