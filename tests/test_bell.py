"""The CHSH readout: exact and sampled correlators, held to the explicit
carrier pulses of the reference oracle."""

from __future__ import annotations

import warnings
from math import sqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catbell.bell import (
    DEFAULT_ANGLES,
    DELTA_STAR,
    OUTCOME_SIGNS,
    PHI_PLUS_T,
    PSI_PLUS_T,
    TSIRELSON,
    BellAngles,
    _draw,
    _populations,
    _readings,
    _setting_vectors,
    block_fidelity,
    chsh,
    correlation_tensor,
    crossing,
    mixed_tensor,
    tensor_chsh,
)
from catbell.encoding import BELL_KINDS, bell_target, full_layout
from catbell.errors import ContractError
from catbell.hilbert import DensityMatrix, SpaceLayout, StateVector
from catbell.params import (
    CHSH_METHODS,
    EncodingParams,
    ModeParams,
)
from catbell.reference import pulse_correlators, pulse_populations
from conftest import (
    SchmidtState,
    basis_state,
    bell_block,
    block_reference_fidelity,
    dm_fidelity,
    electronic_bell,
    mixed_bell,
    mixed_bell_fidelity,
    numpy_populations,
    numpy_sampled_chsh,
    reduced_electronic,
    reduced_electronic_schmidt,
)

PAIR = SpaceLayout((2, 2))

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA_Z = np.diag([1.0, -1.0]).astype(np.complex128)


def sigma_theta(theta: float) -> np.ndarray:
    """The equatorial measurement axis sigma(theta)."""
    return np.cos(theta) * SIGMA_X + np.sin(theta) * SIGMA_Y


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

    @pytest.mark.parametrize("method", CHSH_METHODS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["theta_a", "theta_a_prime",
                                       "theta_b", "theta_b_prime"])
    def test_non_finite_angle_is_refused(self, field, bad, method):
        # unchecked, a NaN angle makes exact B nan and the sampler's
        # probabilities NaN, which numpy refuses without naming the angle
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            chsh(mixed_bell(0.1), BellAngles(**{field: bad}), method)

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


def setting(theta_a: float, theta_b: float) -> BellAngles:
    """Angles whose first setting, and so correlations[0], is (theta_a, theta_b)."""
    return BellAngles(theta_a, 0.0, theta_b, 0.0)


class TestCorrelators:
    def test_phi_plus_aligned(self):
        out = chsh(electronic_bell("phi_plus").to_density(), setting(0.0, 0.0))
        assert out.correlations[0] == pytest.approx(1.0)

    def test_mixture_formula_agreement(self):
        # E(t1, t2) on the mixture equals the closed form
        # (1 - delta) cos(t1 + t2) + delta cos(t1 - t2), in every setting
        for delta in (0.0, 0.1, 0.29, 0.5):
            rho = mixed_bell(delta)
            for angles in (BellAngles(0.3, np.pi / 6, -0.7, np.pi / 12),
                           BellAngles(1.0, -0.4, 2.0, 0.25)):
                got = chsh(rho, angles).correlations
                for (ta, tb), e in zip(angles.settings(), got):
                    want = (1.0 - delta) * np.cos(ta + tb) + delta * np.cos(ta - tb)
                    assert e == pytest.approx(want, abs=1e-10)

    def test_example_point(self):
        got = chsh(mixed_bell(0.1), setting(np.pi / 6, np.pi / 12)).correlations[0]
        want = 0.9 * np.cos(np.pi / 4) + 0.1 * np.cos(np.pi / 12)
        assert got == pytest.approx(want, abs=1e-10)

    def test_symmetric_in_settings(self):
        rho = mixed_bell(0.2)
        for ta, tb in ((0.4, 1.3), (-0.2, 0.9)):
            assert chsh(rho, setting(ta, tb)).correlations[0] == pytest.approx(
                chsh(rho, setting(tb, ta)).correlations[0], abs=1e-10
            )

    def test_exact_matches_the_pulse_oracle(self):
        rng = np.random.default_rng(17)
        rho = mixed_bell(0.1)
        for _ in range(20):
            angles = BellAngles(*rng.uniform(-np.pi, np.pi, size=4))
            pulsed = pulse_correlators(rho.matrix, angles.settings())
            exact = chsh(rho, angles).correlations
            assert np.abs(np.subtract(pulsed, exact)).max() <= 1e-12

    def test_product_state_uncorrelated(self):
        psi = basis_state(PAIR, (0, 0)).to_density()
        for theta in np.linspace(0, np.pi, 7):
            angles = BellAngles(theta, theta + 0.5, -theta, 0.5 - theta)
            assert np.abs(chsh(psi, angles).correlations).max() < 1e-10

    def test_layout_guard(self):
        bad = basis_state(SpaceLayout((3, 2)), (0, 0)).to_density()
        for method in CHSH_METHODS:
            with pytest.raises(ValueError, match="two-qubit"):
                chsh(bad, method=method)

    @pytest.mark.parametrize("method", CHSH_METHODS)
    @pytest.mark.parametrize("scale", [2.0, 0.0, 1.0 + 1e-6],
                             ids=["trace-2", "zero", "trace-1+1e-6"])
    def test_unnormalized_state_is_refused(self, method, scale):
        # unchecked, a trace-2 phi+ reads B = 4 sqrt(2), above the Tsirelson
        # bound, and the zero matrix gives the sampler NaN probabilities
        rho = DensityMatrix(PAIR, scale * mixed_bell(0.0).matrix)
        with pytest.raises(ContractError, match="readout state is not normalized"):
            chsh(rho, method=method)
        psi = StateVector(PAIR, np.sqrt(scale) * electronic_bell("phi_plus").amps)
        with pytest.raises(ContractError, match="readout state is not normalized"):
            chsh(psi.to_density(), method=method)

    @pytest.mark.parametrize("method", CHSH_METHODS)
    @pytest.mark.parametrize("entry, bad, message", [
        ((0, 0), np.nan, "readout state is not normalized (deviation nan)"),
        ((0, 0), np.inf, "readout state is not normalized (deviation inf)"),
        ((0, 0), -np.inf, "readout state is not normalized (deviation inf)"),
        ((1, 2), np.nan, "readout state has a non-finite reading at setting 0: "
                         "r_a = 0.0, r_b = 0.0, E = nan"),
        ((1, 2), np.inf, "readout state has a non-finite reading at setting 0: "
                         "r_a = 0.0, r_b = 0.0, E = -inf"),
        ((1, 2), -np.inf, "readout state has a non-finite reading at setting 0: "
                          "r_a = 0.0, r_b = 0.0, E = inf"),
        # sin(theta_a) = 0 at setting 0, and 0 * inf is a NaN
        ((2, 0), np.inf, "readout state has a non-finite reading at setting 0: "
                         "r_a = nan, r_b = 0.0, E = 0.7071067811865476"),
    ], ids=["t00-nan", "t00-inf", "t00-minus-inf", "txy-nan", "txy-inf",
            "txy-minus-inf", "ty0-inf"])
    def test_non_finite_tensor_is_refused(self, method, entry, bad, message):
        # unchecked, a NaN T_00 read B = 2.2e-16 and a NaN T_xy read B = nan
        t = [list(row) for row in mixed_tensor(PHI_PLUS_T, PSI_PLUS_T, 0.1)]
        t[entry[0]][entry[1]] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractError) as err:
                tensor_chsh(tuple(map(tuple, t)), method=method)
        assert str(err.value) == message

    @pytest.mark.parametrize("method", CHSH_METHODS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                             ids=["nan", "inf", "minus-inf"])
    @pytest.mark.parametrize("entry", [(0, 0), (0, 3), (1, 2)])
    def test_non_finite_state_is_refused(self, method, bad, entry):
        # one non-finite entry of rho reaches every entry of T, T_00 too
        m = mixed_bell(0.1).matrix.copy()
        m[entry] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractError) as err:
                chsh(DensityMatrix(PAIR, m), method=method)
        assert str(err.value) == "readout state is not normalized (deviation nan)"


def random_pair_dm(rng: np.random.Generator, floor: float,
                   rank: int = 4) -> DensityMatrix:
    """A two-qubit state: the Gram matrix G G^dag of a random complex
    4 x rank G, plus floor * 1, normalized."""
    a = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    m = a @ a.conj().T + floor * np.eye(4)
    return DensityMatrix(PAIR, m / np.trace(m).real)


PAULIS = [np.eye(2), SIGMA_X, SIGMA_Y, SIGMA_Z]


class TestCorrelationTensor:
    def test_definition(self):
        rho = random_pair_dm(np.random.default_rng(8), 0.0)
        want = [[np.trace(rho.matrix @ np.kron(a, b)).real for b in PAULIS]
                for a in PAULIS]
        t = correlation_tensor(rho)
        # four rows of four Python floats, the one type the readout takes
        assert type(t) is tuple and all(type(row) is tuple for row in t)
        assert all(type(x) is float for row in t for x in row)
        assert np.abs(np.subtract(t, want)).max() <= 1e-15

    def test_bell_states(self):
        # T_00 = 1 and T = diag(1, -1, 1) on phi+, diag(1, 1, -1) on psi+
        np.testing.assert_allclose(correlation_tensor(electronic_bell("phi_plus").to_density()),
                                   np.diag([1, 1, -1, 1]), rtol=0, atol=1e-15)
        np.testing.assert_allclose(correlation_tensor(mixed_bell(1.0)),
                                   np.diag([1, 1, 1, -1]), rtol=0, atol=1e-15)

    def test_layout_guard(self):
        with pytest.raises(ValueError, match="two-qubit"):
            correlation_tensor(basis_state(SpaceLayout((3, 2)), (0, 0)).to_density())

    @settings(max_examples=200)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4),
           st.lists(st.floats(-2 * np.pi, 2 * np.pi), min_size=4, max_size=4))
    def test_exact_correlators_match_the_kron_trace(self, seed, rank, thetas):
        rho = random_pair_dm(np.random.default_rng(seed), 0.0, rank)
        angles = BellAngles(*thetas)
        want = [np.trace(rho.matrix @ np.kron(sigma_theta(ta), sigma_theta(tb))).real
                for ta, tb in angles.settings()]
        got = chsh(rho, angles).correlations
        assert np.abs(np.subtract(got, want)).max() <= 1e-15
        pulsed = pulse_correlators(rho.matrix, angles.settings())
        assert np.abs(np.subtract(got, pulsed)).max() <= 1e-12

    def test_setting_vectors_are_memoized_and_read_only(self):
        angles = BellAngles(0.1, 0.2, 0.3, 0.4)
        vectors = _setting_vectors(angles)
        assert _setting_vectors(BellAngles(0.1, 0.2, 0.3, 0.4)) is vectors
        # the axes rows are tuples of floats: (ua_x, ua_y, ub_x, ub_y)
        assert type(vectors) is tuple
        assert all(type(row) is tuple for row in vectors)
        assert all(type(x) is float for row in vectors for x in row)
        want = [(np.cos(ta), np.sin(ta), np.cos(tb), np.sin(tb))
                for ta, tb in angles.settings()]
        assert np.abs(np.subtract(vectors, want)).max() <= 1e-16

    @settings(max_examples=300)
    @given(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
           st.lists(st.floats(-2 * np.pi, 2 * np.pi), min_size=4, max_size=4))
    # every product -0.0: the einsum's sum starts from +0.0, so it reads +0.0
    @example(block=[-0.0] * 4, thetas=[0.1, 0.2, 0.3, 0.4])
    def test_scalar_correlators_are_the_einsum_bits(self, block, thetas):
        # tensor_chsh sums each correlator in Python floats; the bits,
        # signed zeros included, are those of the einsum it replaced
        t = np.zeros((4, 4))
        t[0, 0] = 1.0
        t[1:3, 1:3] = np.reshape(block, (2, 2))
        angles = BellAngles(*thetas)
        ua, ub = (np.stack([np.cos(th), np.sin(th)], axis=-1)
                  for th in zip(*angles.settings()))
        want = np.einsum("ki,ij,kj->k", ua, t[1:3, 1:3], ub).tolist()
        got = tensor_chsh(tuple(map(tuple, t.tolist())), angles).correlations
        assert [e.hex() for e in got] == [e.hex() for e in want]

    def test_tensor_trace_is_held_to_one(self):
        t = correlation_tensor(mixed_bell(0.2))
        for method in CHSH_METHODS:
            assert tensor_chsh(t, method=method) == chsh(mixed_bell(0.2),
                                                         method=method)
            with pytest.raises(ContractError, match="readout state is not normalized"):
                tensor_chsh(tuple(tuple(1.01 * x for x in row) for row in t),
                            method=method)

    def test_signed_zero_angles_read_alike(self):
        # -0.0 and 0.0 share a memo key, so they must read the same bits:
        # the sums start from +0.0, so the sign of a zero product is lost
        _setting_vectors.cache_clear()
        rho = random_pair_dm(np.random.default_rng(3), 0.0)
        neg = chsh(rho, BellAngles(-0.0, 0.5, -0.0, 0.5)).correlations
        _setting_vectors.cache_clear()
        pos = chsh(rho, BellAngles(0.0, 0.5, 0.0, 0.5)).correlations
        assert np.array_equal(np.array(neg).view(np.uint64),
                              np.array(pos).view(np.uint64))

    def test_readout_builds_no_kron(self, monkeypatch):
        rho = mixed_bell(0.1)
        want = (chsh(rho), chsh(rho, method="sampled", shots=512, seed=4))

        def refuse(*args):
            raise AssertionError("np.kron called by the readout")

        monkeypatch.setattr(np, "kron", refuse)
        assert chsh(rho) == want[0]
        assert chsh(rho, method="sampled", shots=512, seed=4) == want[1]


def pulse_counts(rho: DensityMatrix, theta_a: float, theta_b: float,
                 shots: int, rng: np.random.Generator) -> np.ndarray:
    """A multinomial draw from the oracle's populations of the pulse-rotated
    rho, clipped, normalized and rounded the way the sampler rounds."""
    p = np.clip(pulse_populations(rho.matrix, theta_a, theta_b), 0.0, None)
    p = np.round(p / p.sum(), 12)
    return rng.multinomial(shots, p / p.sum())


def sampled_counts(rho, angles: BellAngles, shots: int,
                   seed: int) -> list[list[int]]:
    """The counts behind chsh(rho, angles, "sampled", shots, seed): four
    rows of four ints."""
    return _draw(_populations(*_readings(correlation_tensor(rho), angles)),
                 shots, np.random.default_rng(seed))


class TestMixtureTensor:
    """bell-scan reads the mixture from (1 - delta) T(phi+) + delta T(psi+),
    not from its density matrix."""

    def test_bell_tensors_are_the_bell_states(self):
        # the density matrices read 1 - 2^-52 where 1/sqrt(2)^2 rounds low
        for kind, t in zip(BELL_KINDS, (PHI_PLUS_T, PSI_PLUS_T)):
            rho = electronic_bell(kind).to_density()
            assert np.abs(np.subtract(t, correlation_tensor(rho))).max() <= 1e-15

    @settings(max_examples=300)
    @given(delta=st.floats(0.0, 1.0),
           thetas=st.lists(st.floats(-2.0 * np.pi, 2.0 * np.pi),
                           min_size=4, max_size=4),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_readout_of_the_tensor_is_that_of_the_matrix(self, delta, thetas, seed):
        # the exact B within 2e-15, and the same sampled counts: the
        # populations are rounded to 12 decimals before the draw
        angles = BellAngles(*thetas)
        t = mixed_tensor(PHI_PLUS_T, PSI_PLUS_T, delta)
        rho = mixed_bell(delta)
        assert np.abs(np.subtract(t, correlation_tensor(rho))).max() <= 1e-15
        assert abs(tensor_chsh(t, angles).b_value
                   - chsh(rho, angles).b_value) <= 2e-15
        counts = _draw(_populations(*_readings(t, angles)), 512,
                       np.random.default_rng(seed))
        assert np.array_equal(counts, sampled_counts(rho, angles, 512, seed))


class TestSampledCounts:
    """Populations read from T draw the counts of the oracle's pulse-rotated rho."""

    def cases(self):
        rng = np.random.default_rng(2024)
        for i in range(60):
            if i % 6 == 0:
                rho = mixed_bell(float(rng.uniform()))
            elif i % 6 == 1:
                rho = electronic_bell(BELL_KINDS[i % 2]).to_density()
            else:
                rho = random_pair_dm(rng, 0.0, int(rng.integers(1, 5)))
            angles = BellAngles(*rng.uniform(-np.pi, np.pi, 4))
            shots = int(rng.choice([1, 7, 512, 4096, 10**6]))
            yield rho, angles, shots, int(rng.integers(2**32))

    def test_counts_equal_the_pulse_path(self):
        draws = 0
        for rho, angles, shots, seed in self.cases():
            rng = np.random.default_rng(seed)
            want = [pulse_counts(rho, ta, tb, shots, rng) for ta, tb in angles.settings()]
            got = sampled_counts(rho, angles, shots, seed)
            for row, counts in zip(got, want):
                assert np.array_equal(row, counts)
                draws += 1
            out = chsh(rho, angles, "sampled", shots, seed)
            assert out.correlations == tuple(float(c @ OUTCOME_SIGNS) / shots
                                             for c in want)
        assert draws >= 200


# T_00 and one reading whose last population, -5e-324 / 4, is -0.0 before
# the clip
NEGATIVE_ZERO_EXAMPLE = (1.0, [(0.5, 0.5, -5e-324)])
# T_00 and one reading whose rounded row sums to other bits in any order
# but numpy's ((p0 + p1) + p2) + p3
ROW_SUM_EXAMPLE = (1.0, [(0.09, -0.375, -0.366)])
# the same for the row before the rounding: summed in another order, one of
# its populations rounds to the other neighbour
FIRST_ROW_SUM_EXAMPLE = (1.0, [(0.0173, 0.9257, 0.6048)])
# T_00 and one reading whose populations 2^-13 are 122070312.5e-12: the
# rounding to 12 decimals takes this tie to the even neighbour
TIE_EXAMPLE = (1.0, [(0.0, 0.0, 1.0 - 2.0 ** -11)])
SHOT_COUNTS = (1, 7, 4096, 2 ** 53 - 1, 2 ** 53 + 1, 2 ** 62, 2 ** 63 - 1)

PAIR_TENSORS = st.one_of(
    st.sampled_from((PHI_PLUS_T, PSI_PLUS_T)),
    st.builds(lambda delta: mixed_tensor(PHI_PLUS_T, PSI_PLUS_T, delta),
              st.floats(0.0, 1.0)),
    st.builds(lambda seed, rank: correlation_tensor(
        random_pair_dm(np.random.default_rng(seed), 0.0, rank)),
        st.integers(0, 2 ** 32 - 1), st.integers(1, 4)))
ANGLE = st.floats(-2.0 * np.pi, 2.0 * np.pi)
# besides free settings, (a, a', +-a, +-a'): on a Bell state two settings
# read E = cos^2 a + sin^2 a, which can round above 1, so that a population
# is negative before the clip
ANGLE_SETS = st.one_of(
    st.lists(ANGLE, min_size=4, max_size=4).map(lambda a: BellAngles(*a)),
    st.builds(lambda a, a_prime, sign: BellAngles(a, a_prime, sign * a, sign * a_prime),
              ANGLE, ANGLE, st.sampled_from((1.0, -1.0))))
SEEDS = st.one_of(st.integers(0, 2 ** 64 - 1),
                  st.lists(st.integers(0, 2 ** 32 - 1), min_size=2, max_size=2))


def float_hexes(out) -> tuple:
    """A sampled BellOutcome's floats as float hex."""
    return (out.b_value.hex(), tuple(e.hex() for e in out.correlations),
            out.std_error.hex())


class TestSampledReadoutIsNumpys:
    """The sampled readout in Python floats gives the bits of its numpy
    expression (conftest.numpy_sampled_chsh): the same populations, counts
    and correlators."""

    @settings(max_examples=300)
    @given(t00=st.floats(1.0 - 1e-8, 1.0 + 1e-8),
           readings=st.lists(st.tuples(*[st.floats(-1.0, 1.0)] * 3),
                             min_size=1, max_size=4))
    @example(*NEGATIVE_ZERO_EXAMPLE)
    @example(*ROW_SUM_EXAMPLE)
    @example(*FIRST_ROW_SUM_EXAMPLE)
    @example(*TIE_EXAMPLE)
    def test_populations_are_numpys(self, t00, readings):
        got = _populations(t00, readings)
        assert all(type(x) is float for row in got for x in row)
        want = numpy_populations(t00, readings).tolist()
        assert ([[x.hex() for x in row] for row in got]
                == [[x.hex() for x in row] for row in want])

    def test_the_examples_reach_the_clip_the_sum_order_and_a_tie(self):
        t00, ((ra, rb, e),) = NEGATIVE_ZERO_EXAMPLE
        assert ((t00 - ra - rb + e) / 4).hex() == "-0x0.0p+0"
        assert _populations(*NEGATIVE_ZERO_EXAMPLE)[0][3].hex() == "0x0.0p+0"
        t00, ((ra, rb, e),) = ROW_SUM_EXAMPLE
        p = ((t00 + ra + rb + e) / 4, (t00 + ra - rb - e) / 4,
             (t00 - ra + rb - e) / 4, (t00 - ra - rb + e) / 4)
        q = [round(x / (((p[0] + p[1]) + p[2]) + p[3]) * 1e12) / 1e12 for x in p]
        want = numpy_populations(*ROW_SUM_EXAMPLE).tolist()[0]
        assert [x / (((q[0] + q[1]) + q[2]) + q[3]) for x in q] == want
        for s in (q[0] + (q[1] + (q[2] + q[3])), (q[0] + q[1]) + (q[2] + q[3])):
            assert [x / s for x in q] != want
        assert _populations(*TIE_EXAMPLE)[0][1] * 1e12 == 122070312.0

    def test_aligned_settings_reach_the_clip(self):
        # phi+ at (0.08, -0.08) reads E = 1 + 2^-52, and p_01 = -2^-54
        t00, readings = _readings(PHI_PLUS_T, BellAngles(0.08, 0.0, -0.08, 0.0))
        ra, rb, e = readings[0]
        assert (t00 + ra - rb - e) / 4 == -2.0 ** -54
        assert _populations(t00, readings)[0][1].hex() == "0x0.0p+0"

    @settings(max_examples=400)
    @given(t=PAIR_TENSORS, angles=ANGLE_SETS, shots=st.sampled_from(SHOT_COUNTS),
           seed=SEEDS)
    def test_sampled_readout_is_numpys(self, t, angles, shots, seed):
        got = tensor_chsh(t, angles, "sampled", shots, seed)
        want = numpy_sampled_chsh(t, angles, shots, seed)
        assert float_hexes(got) == float_hexes(want)


class TestSampling:
    def test_counts_sum_to_shots(self):
        counts = sampled_counts(electronic_bell("phi_plus").to_density(),
                                BellAngles(0.1, 0.7, 0.2, -0.4), 500, 3)
        assert len(counts) == 4 and all(len(row) == 4 for row in counts)
        assert all(type(c) is int for row in counts for c in row)
        assert [sum(row) for row in counts] == [500] * 4

    def test_single_shot_is_a_sign(self):
        out = chsh(electronic_bell("phi_plus").to_density(), BellAngles(0.3, 1.1, -0.2, 0.6),
                   "sampled", shots=1, seed=5)
        assert all(e in (-1.0, 1.0) for e in out.correlations)

    def test_shots_positive(self):
        with pytest.raises(ValueError, match="shots must be positive"):
            chsh(electronic_bell("phi_plus").to_density(), method="sampled", shots=0)

    def test_deterministic_for_seed(self):
        angles = BellAngles(0.4, 1.2, 0.1, -0.8)
        a = chsh(mixed_bell(0.2), angles, "sampled", 1000, 11)
        b = chsh(mixed_bell(0.2), angles, "sampled", 1000, 11)
        assert a == b
        assert np.array_equal(sampled_counts(mixed_bell(0.2), angles, 1000, 11),
                              sampled_counts(mixed_bell(0.2), angles, 1000, 11))

    def test_estimator_consistency(self):
        angles = BellAngles(0.5, 1.3, -0.3, 0.2)
        out = chsh(mixed_bell(0.1), angles, "sampled", 2000, 7)
        counts = sampled_counts(mixed_bell(0.1), angles, 2000, 7)
        assert out.correlations == tuple(float(np.dot(c, OUTCOME_SIGNS)) / 2000
                                         for c in counts)
        se = [sqrt(max(1.0 - e * e, 0.0) / 2000) for e in out.correlations]
        assert out.std_error == sqrt(sum(x ** 2 for x in se))
        assert 0.0 < out.std_error < 1.0

    def test_large_sample_near_exact(self):
        out = chsh(electronic_bell("phi_plus").to_density(), method="sampled", shots=100_000, seed=0)
        assert abs(out.b_value - TSIRELSON) < 0.02
        assert out.std_error is not None


class TestChsh:
    def test_exact_on_pure_bell(self):
        out = chsh(electronic_bell("phi_plus").to_density())
        assert out.b_value == pytest.approx(TSIRELSON, abs=1e-6)
        assert out.std_error is None

    def test_linear_law_values(self):
        for delta in (0.0, 0.1, DELTA_STAR, 0.5):
            out = chsh(mixed_bell(delta))
            assert out.b_value == pytest.approx(TSIRELSON * (1.0 - delta), abs=1e-8)

    def test_threshold_value(self):
        assert chsh(mixed_bell(DELTA_STAR)).b_value == pytest.approx(2.0, abs=1e-6)
        assert chsh(mixed_bell(0.5)).b_value == pytest.approx(np.sqrt(2.0), abs=1e-6)

    def test_exact_b_is_the_pulse_oracles(self):
        rho = mixed_bell(0.15)
        exact = chsh(rho, method="exact").b_value
        e = pulse_correlators(rho.matrix, DEFAULT_ANGLES.settings())
        assert abs(e[0] + e[1] + e[2] - e[3]) == pytest.approx(exact, abs=1e-12)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            chsh(mixed_bell(0.0), method="analytic")

    def test_correlations_recorded(self):
        out = chsh(electronic_bell("phi_plus").to_density())
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
        out = chsh(electronic_bell("phi_plus").to_density(), angles=angles)
        assert out.b_value == pytest.approx(TSIRELSON, abs=1e-8)


def scan(deltas) -> tuple[list[float], float | None]:
    """B over a mixture-weight grid at the default angles, and its crossing."""
    bs = [chsh(mixed_bell(d)).b_value for d in deltas]
    return bs, crossing(deltas, bs)


class TestCrossing:
    def test_linear_in_delta(self):
        ds = np.arange(0.0, 0.51, 0.05)
        bs, _ = scan(ds)
        want = TSIRELSON * (1.0 - ds)
        assert np.abs(np.subtract(bs, want)).max() < 1e-8

    def test_crossing_bracketed(self):
        _, cross = scan(np.arange(0.0, 0.51, 0.05))
        assert 0.25 < cross < 0.35
        assert abs(cross - DELTA_STAR) < 0.05

    def test_fine_grid_crossing(self):
        _, cross = scan(np.arange(0.0, 0.5001, 0.001))
        assert abs(cross - DELTA_STAR) < 1e-3

    def test_single_point(self):
        bs, cross = scan([0.0])
        assert len(bs) == 1
        assert bs[0] == pytest.approx(TSIRELSON, abs=1e-8)
        assert cross is None

    def test_interpolates_the_bracketing_pair(self):
        # the line through (0.2, 2.5) and (0.4, 1.5) meets 2 at 0.3; the
        # later bracket (0.6, 2.5)-(0.8, 1.5) is not read
        got = crossing([0.2, 0.4, 0.6, 0.8], [2.5, 1.5, 2.5, 1.5])
        assert got == pytest.approx(0.3, abs=1e-15)
        assert crossing([0.0, 0.5], [2.8, 2.1]) is None

    def test_first_hit_or_bracket_wins(self):
        # an exact 2 before a bracket is the crossing, and so is a bracket
        # before an exact 2
        assert crossing([0.1, 0.2, 0.3, 0.4], [2.5, 2.0, 2.5, 1.5]) == 0.2
        got = crossing([0.1, 0.2, 0.3], [2.5, 1.5, 2.0])
        assert got == pytest.approx(0.15, abs=1e-15)

    @pytest.fixture(scope="class")
    def exact_hit(self) -> float:
        """A weight next to DELTA_STAR whose B rounds to exactly 2.

        Near the crossing one ulp of delta moves B by less than one ulp of
        2, so some weight within a few ulps lands on 2 itself.
        """
        ulp = np.spacing(DELTA_STAR)
        for k in range(-256, 257):
            delta = float(DELTA_STAR + k * ulp)
            if chsh(mixed_bell(delta)).b_value == 2.0:
                return delta
        pytest.fail("no weight near DELTA_STAR gives B == 2 exactly")

    def test_exact_hit_is_the_crossing(self, exact_hit):
        # B(0) > 2 then B == 2: the bracket test sees a zero product, and
        # the crossing is the weight that hits 2, not an interpolation
        bs, cross = scan([0.0, exact_hit, 1.0])
        assert bs[1] == 2.0
        assert cross == exact_hit

    @pytest.mark.parametrize("lead", [[], [0.0]], ids=["alone", "after-0"])
    def test_exact_hit_at_the_last_weight(self, exact_hit, lead):
        bs, cross = scan(lead + [exact_hit])
        assert bs[-1] == 2.0
        assert cross == exact_hit

    def test_range_validation(self):
        with pytest.raises(ValueError):
            crossing([], [])
        with pytest.raises(ValueError):
            crossing([0.0, 0.1], [2.0])
        with pytest.raises(ValueError):
            scan([-0.1])
        with pytest.raises(ValueError):
            scan([1.2])


class TestReducedElectronic:
    def test_bell_register_reduces_to_ground_ions(self, enc2):
        red = reduced_electronic(bell_target("phi_plus", enc2))
        assert red.layout.dims == (2, 2)
        assert red.matrix[0, 0].real == pytest.approx(1.0, abs=1e-10)

    def test_methods_tuple(self):
        assert CHSH_METHODS == ("exact", "sampled")

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
        # the direct block reads <phi+|rho|phi+> bit for bit; T sums the
        # same number in another order
        rng = np.random.default_rng(17)
        for floor in (0.0, 0.1, 1.0):
            rho = random_pair_dm(rng, floor)
            want = dm_fidelity(rho, electronic_bell("phi_plus"))
            assert block_reference_fidelity(rho, 0.0) == want
            assert abs(mixed_bell_fidelity(rho, 0.0) - want) <= 1e-15

    @settings(max_examples=300)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 4), st.floats(0.0, 1.0),
           st.floats(0.0, 1.0))
    @example(seed=0, rank=1, floor=0.0, delta=0.5)
    def test_tensor_form_is_the_direct_block_form(self, seed, rank, floor, delta):
        # block_fidelity reads the Bell block M from T, conftest.bell_block
        # projects it directly.  Both then take F = tr B + 2 sqrt(det B) with
        # det B = w0 w1 det M, so an ulp of det M moves F by about
        # eps sqrt(w0 w1 / det M), and by sqrt(eps w0 w1) as det M -> 0
        rho = random_pair_dm(np.random.default_rng(seed), floor, rank)
        got = block_fidelity(correlation_tensor(rho), delta)
        (m00, m01), (_, m11) = bell_block(rho.matrix).tolist()
        det = (m00 * m11).real - abs(m01) ** 2
        w, eps = (1.0 - delta) * delta, np.finfo(float).eps
        slack = 4.0 * min(sqrt(eps * w), eps * sqrt(w / max(det, eps * eps)))
        assert abs(got - block_reference_fidelity(rho, delta)) <= 1e-15 + slack

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
        b = chsh(electronic_bell("phi_plus").to_density(), angles=angles).b_value
        assert b <= TSIRELSON + 1e-6


def test_separable_bound_product_states():
    # product states stay at or below the classical bound of 2
    rng = np.random.default_rng(55)
    for _ in range(100):
        raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        a = raw[0] / np.linalg.norm(raw[0])
        b = raw[1] / np.linalg.norm(raw[1])
        psi = StateVector(PAIR, np.kron(a, b))
        assert chsh(psi.to_density()).b_value <= 2.0 + 1e-8
