"""Closed-form oracles cross-checked against the main implementations."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

from catbell.bosonic import cat
from catbell.noise import HeatingParams, propagate
from catbell.params import EVEN, EncodingParams, ModeParams
from catbell.reference import (
    OracleReport,
    analyzer_pulse,
    carrier_pulse,
    cat_amplitudes,
    chsh_grid_search,
    coherent_amplitudes,
    coherent_overlap,
    displacement_elements,
    entangled_amplitudes,
    exchange_matrix_oracle,
    liouvillian_expm,
    liouvillian_matrix,
    poisson_jump_stats,
    pulse_correlators,
    pulse_populations,
    read_fixture,
    su2_exp,
    swap_truth_oracle,
    write_fixture,
)
from conftest import GOLDEN_DIR, displacement, exchange_op
from make_golden import check_against_main_path


class TestSeries:
    def test_overlap_closed_form(self):
        got = coherent_overlap(2.0, -2.0)
        assert got == pytest.approx(np.exp(-8.0), abs=1e-12)
        c = coherent_amplitudes(2.0, 60)
        d = coherent_amplitudes(-2.0, 60)
        assert np.vdot(c, d) == pytest.approx(got, abs=1e-12)

    def test_complex_alpha(self):
        a = 1.0 + 0.5j
        c = coherent_amplitudes(a, 50)
        assert np.linalg.norm(c) == pytest.approx(1.0, abs=1e-12)
        n = np.arange(50)
        assert float((n * np.abs(c) ** 2).sum()) == pytest.approx(abs(a) ** 2, abs=1e-10)

    def test_cat_parity_support(self):
        even = cat_amplitudes(2.0, +1, 40)
        odd = cat_amplitudes(2.0, -1, 40)
        assert np.all(even[1::2] == 0.0)
        assert np.all(odd[0::2] == 0.0)
        assert np.linalg.norm(even) == pytest.approx(1.0, abs=1e-12)


class TestDisplacementOracle:
    def test_identity_at_zero(self):
        np.testing.assert_allclose(displacement_elements(0.0, 6), np.eye(6), atol=1e-14)

    def test_matches_truncated_exponential_in_bulk(self):
        # Laguerre elements are the infinite-space matrix; agreement holds
        # away from the truncation boundary
        mode = ModeParams(40)
        got = displacement_elements(0.6 - 0.2j, 40)
        want = displacement(0.6 - 0.2j, mode).matrix
        assert np.abs(got - want)[:28, :28].max() < 1e-10

    def test_column_norms_bounded(self):
        m = displacement_elements(0.5, 30)
        norms = np.linalg.norm(m, axis=0)
        assert np.all(norms <= 1.0 + 1e-12)


class TestEntangledOracle:
    def test_matches_main_preparation(self, enc2):
        from catbell.encoding import prepare_entangled_schmidt

        na, nb = enc2.mode_a.cutoff, enc2.mode_b.cutoff
        grid = entangled_amplitudes(2.0, 2.0, na, nb)
        psi = prepare_entangled_schmidt(enc2).to_state().as_tensor()[:, :, 0, 0]
        # main path renormalizes after truncation; compare up to that factor
        psi = psi / np.linalg.norm(psi)
        grid = grid / np.linalg.norm(grid)
        assert abs(abs(np.vdot(grid, psi)) - 1.0) < 1e-10


class TestLiouvillianOracle:
    def test_trace_preserving_generator(self):
        dim = 8
        ell = liouvillian_matrix(0.3, dim)
        rng = np.random.default_rng(9)
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        drho = (ell @ rho.reshape(-1)).reshape(dim, dim)
        assert abs(np.trace(drho)) < 1e-12

    def test_zero_time_identity(self):
        rho0 = np.diag([0.4, 0.6, 0.0, 0.0]).astype(np.complex128)
        out = liouvillian_expm(rho0, 0.5, 0.0)
        assert np.abs(out - rho0).max() < 1e-12

    def test_occupation_grows_linearly(self):
        dim = 12
        rho0 = np.zeros((dim, dim), dtype=np.complex128)
        rho0[0, 0] = 1.0
        out = liouvillian_expm(rho0, 1e-3, 1.0)
        n = float((np.arange(dim) * np.diag(out).real).sum())
        assert abs(n - 1e-3) < 1e-12

    def test_cutoff_limit(self):
        with pytest.raises(ValueError, match="limited to cutoff 12"):
            liouvillian_expm(np.eye(13, dtype=np.complex128) / 13, 0.1, 1.0)
        with pytest.raises(ValueError):
            liouvillian_expm(np.zeros((3, 4)), 0.1, 1.0)

    def test_agrees_with_integrator(self):
        mode = ModeParams(12, leak_tol=1e-5)
        rho0 = cat(1.5, EVEN, mode).to_density()
        got = propagate(rho0, HeatingParams(0.02, 1.0))
        want = liouvillian_expm(rho0.matrix, 0.02, 1.0)
        assert np.abs(got.matrix - want).max() < 1e-6


class TestPoisson:
    def test_quiet_limit(self):
        stats = poisson_jump_stats(0.0, 0.0, 5.0)
        assert stats["p_zero"] == 1.0
        assert stats["p_one"] == 0.0
        assert stats["p_odd"] == 0.0

    def test_closed_forms(self):
        stats = poisson_jump_stats(0.03, 0.01, 2.0)
        lam = 0.08
        assert stats["lam"] == pytest.approx(lam, abs=1e-15)
        assert stats["p_zero"] == pytest.approx(np.exp(-lam), abs=1e-15)
        assert stats["p_one"] == pytest.approx(lam * np.exp(-lam), abs=1e-15)
        assert stats["p_odd"] == pytest.approx((1 - np.exp(-2 * lam)) / 2, abs=1e-15)

    def test_probabilities_consistent(self):
        stats = poisson_jump_stats(0.2, 0.1, 1.0)
        assert 0.0 < stats["p_one"] < stats["p_odd"] + stats["p_zero"]
        assert stats["p_zero"] + stats["p_one"] <= 1.0


class TestGridSearch:
    def test_pure_state_model(self):
        rep = chsh_grid_search(lambda t1, t2: np.cos(t1 + t2))
        assert rep.value == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-3)

    def test_flip_model(self):
        rep = chsh_grid_search(lambda t1, t2: np.cos(t1 - t2))
        assert rep.value == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-3)

    def test_resolution_stable(self):
        fn = lambda t1, t2: 0.9 * np.cos(t1 + t2) + 0.1 * np.cos(t1 - t2)
        a = chsh_grid_search(fn, resolution=64).value
        b = chsh_grid_search(fn, resolution=128).value
        assert abs(a - b) < 1e-3

    def test_angles_recorded(self):
        rep = chsh_grid_search(lambda t1, t2: np.cos(t1 + t2))
        assert rep.config["resolution"] == 64
        angles = rep.config["angles"]
        assert len(angles) == 4
        # the recorded quadruple must reproduce the reported maximum
        t1, t2, u1, u2 = angles
        fn = lambda a, b: np.cos(a + b)
        total = abs(fn(t1, u1) + fn(t1, u2) + fn(t2, u1) - fn(t2, u2))
        assert total == pytest.approx(rep.value, abs=1e-10)


class TestSmallRotations:
    def test_su2_matches_expm(self):
        axis = np.array([1.0, 2.0, -0.5])
        axis /= np.linalg.norm(axis)
        sx = np.array([[0, 1], [1, 0]], dtype=np.complex128)
        sy = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
        sz = np.array([[1, 0], [0, -1]], dtype=np.complex128)
        gen = axis[0] * sx + axis[1] * sy + axis[2] * sz
        got = su2_exp(*axis, 0.7)
        want = scipy.linalg.expm(-0.7j * gen)
        assert np.abs(got - want).max() < 1e-12


SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA_Z = np.diag([1.0, -1.0]).astype(np.complex128)


class TestCarrierPulse:
    def test_zero_pulse(self):
        np.testing.assert_allclose(carrier_pulse(0.0, 0.3), np.eye(2), atol=1e-14)

    def test_full_pulse_is_x(self):
        np.testing.assert_allclose(carrier_pulse(1.0, 0.0), -1j * SIGMA_X,
                                   atol=1e-12)

    def test_half_pulses_compose(self):
        half = carrier_pulse(0.5, 1.1)
        assert np.abs(half @ half - carrier_pulse(1.0, 1.1)).max() < 1e-10

    def test_unitary(self):
        u = carrier_pulse(0.37, -2.0)
        assert np.abs(u.conj().T @ u - np.eye(2)).max() < 1e-12

    def test_matches_the_expm_of_its_generator(self):
        # exp(-i k pi/2 G), G = |1><0| e^{-i phase} + h.c., by scipy's
        # scaling and squaring
        rng = np.random.default_rng(20261019)
        for k, phase in zip(rng.uniform(-4.0, 4.0, 1000),
                            rng.uniform(-2 * np.pi, 2 * np.pi, 1000)):
            g = np.array([[0.0, np.exp(1j * phase)], [np.exp(-1j * phase), 0.0]])
            want = scipy.linalg.expm(-1j * k * np.pi / 2.0 * g)
            assert np.abs(carrier_pulse(k, phase) - want).max() <= 1e-14, (k, phase)

    def test_analyzer_pulse_maps_z_onto_axis(self):
        # V sigma_z V^dag = sigma(theta): the pulse realizes the analyzer setting
        for theta in np.linspace(-np.pi, np.pi, 13):
            v = analyzer_pulse(theta)
            want = np.cos(theta) * SIGMA_X + np.sin(theta) * SIGMA_Y
            assert np.abs(v @ SIGMA_Z @ v.conj().T - want).max() < 1e-12

    def test_populations_and_correlators(self):
        # on phi+ the populations are (1 + s_a s_b cos(ta + tb)) / 4, and
        # E = cos(ta + tb)
        phi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
        rho = np.outer(phi, phi)
        settings = [(0.3, -1.1), (2.0, 0.7), (-0.4, 0.4)]
        for ta, tb in settings:
            p = pulse_populations(rho, ta, tb)
            c = np.cos(ta + tb)
            np.testing.assert_allclose(p, [(1 + c) / 4, (1 - c) / 4,
                                           (1 - c) / 4, (1 + c) / 4], atol=1e-15)
        np.testing.assert_allclose(pulse_correlators(rho, settings),
                                   [np.cos(ta + tb) for ta, tb in settings],
                                   atol=1e-15)


class TestExchangeOracle:
    def test_matches_main_gate(self):
        # the oracle displacement block is the closed-form submatrix of the
        # infinite unitary while the gate exponentiates the truncated
        # generator; they drift apart only near the cutoff edge, so compare
        # well inside the bulk (mode levels 0..15 of 26)
        enc = EncodingParams.for_amplitudes(2.0)
        cutoff = enc.mode_a.cutoff
        got = exchange_matrix_oracle(cutoff, np.pi / 8.0)
        want = exchange_op("a", enc, "ideal", "displacement").matrix
        assert np.abs(got - want)[:32, :32].max() < 1e-12

    def test_truth_table_cross_check(self):
        enc = EncodingParams.for_amplitudes(2.0)
        from catbell.gates import report_u_swap

        oracle = swap_truth_oracle(2.0, enc.mode_a.cutoff, np.pi / 8.0)
        rep = report_u_swap("a", enc, "ideal", "displacement")
        got = {r["input"][0] + r["input"][3]: r["fidelity"] for r in rep}
        for key, want in oracle["rows"].items():
            assert abs(got[key] - want) < 1e-9, key

    def test_near_unit_columns(self):
        # the Laguerre displacement block is a submatrix of an infinite
        # unitary; columns well below the cutoff keep their full support
        u = exchange_matrix_oracle(20, 0.1)
        prod = u.conj().T @ u
        assert np.abs(prod[:24, :24] - np.eye(24)).max() < 1e-8


class TestFixtureIO:
    def test_round_trip(self, tmp_path):
        reports = [
            OracleReport("a_number", 1.25, {"alpha": 2.0}, 1e-6),
            OracleReport("a_table", {"00": 1.0, "01": 0.5}, {}, 1e-9),
        ]
        path = tmp_path / "fix.json"
        write_fixture(path, reports)
        back = read_fixture(path)
        assert back["a_number"].value == 1.25
        assert back["a_number"].config == {"alpha": 2.0}
        assert back["a_table"].value == {"00": 1.0, "01": 0.5}

    def test_to_json_sorted(self):
        rep = OracleReport("x", 1.0, {"b": 2, "a": 1}, 0.1)
        s = rep.to_json()
        assert s.index('"config"') < s.index('"quantity"') < s.index('"value"')

    def test_frozen_fixtures_parse(self, golden):
        swap = golden("swap_alpha8.json")
        assert set(swap) == {
            "swap_rows",
            "swap_superposition_transfer",
            "electronic_bell_fidelity",
        }
        for rec in swap.values():
            assert rec.tolerance > 0.0
        heat = golden("heating_parity.json")
        assert 0.0 < heat["cat_parity_after_heating"].value < 1.0
        stats = golden("jump_stats.json")
        assert stats["jump_stats_initial_rates"].value["p_odd"] > 0.0

    def test_main_path_check_prints_and_writes_nothing(self, monkeypatch,
                                                        capsys, golden):
        # make_golden's --check pass, alone: main() rewrites the fixtures.
        # setenv records the cap in force, which the check overwrites
        monkeypatch.setenv("CATBELL_MAX_DIM", "65536")
        before = {p.name: p.read_bytes() for p in sorted(GOLDEN_DIR.iterdir())}
        check_against_main_path()
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "swap rows (main path)", "transfer (main path)",
            "electronic fidelity (main path)", "heated parity (main path)"]
        swap = golden("swap_alpha8.json")
        frozen = (swap["swap_superposition_transfer"],
                  swap["electronic_bell_fidelity"],
                  golden("heating_parity.json")["cat_parity_after_heating"])
        for line, rec in zip(lines[1:], frozen):
            assert abs(float(line.split(":")[1]) - rec.value) < rec.tolerance
        assert {p.name: p.read_bytes() for p in sorted(GOLDEN_DIR.iterdir())} == before
