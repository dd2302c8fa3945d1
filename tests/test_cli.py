"""Batch runner: config validation, protocol execution, file output, exit codes."""

from __future__ import annotations

import dataclasses
import json
import os
import re
import subprocess
import sys
from math import pi, sqrt

import numpy as np
import pytest

import catbell.bosonic
from catbell.bell import DEFAULT_ANGLES, DELTA_STAR, measurement_pulse
from catbell.bosonic import displacement
from catbell.cli import (
    DEFAULT_DELTAS,
    DEFAULT_EPSILONS,
    FIELDS,
    PROTOCOLS,
    _build_parser,
    describe,
    execute,
    main,
    normalize_config,
    render_csv,
)
from catbell.encoding import EncodingParams
from catbell.errors import CapacityError, ConfigError
from catbell.gates import EV_VARIANTS, u_swap
from catbell.pipeline import (
    _hadamard_stage,
    _pipeline_state,
    run_bell_scan,
    run_full_pipeline,
    run_heat_sweep,
    run_pipeline,
    run_prepare,
    run_rotate,
    run_swap_report,
)


def cfg_for(protocol: str, **overrides) -> dict:
    raw: dict = {"protocol": protocol}
    raw.update(overrides)
    return normalize_config(raw)


class TestNormalizeConfig:
    def test_defaults_filled_in(self):
        cfg = cfg_for("prepare")
        assert cfg["protocol"] == "prepare"
        assert cfg["encoding"]["alpha"] == 2.0
        assert cfg["encoding"]["beta"] is None
        assert cfg["encoding"]["epsilons"] == list(DEFAULT_EPSILONS)
        assert cfg["noise"]["gamma"] == 0.001
        assert cfg["bell"]["theta_a_prime"] == pytest.approx(pi / 2)
        assert cfg["bell"]["deltas"] == list(DEFAULT_DELTAS)
        assert cfg["gates"] == {"ve_variant": "ideal", "ev_variant": "ideal"}
        assert cfg["seed"] == 0
        assert cfg["output"] == {"path": "prepare", "format": "csv"}

    def test_idempotent(self):
        cfg = cfg_for("bell-scan", bell={"mode": "sampled", "shots": 128})
        assert normalize_config(cfg) == cfg

    def test_root_must_be_object(self):
        with pytest.raises(ConfigError, match="JSON object"):
            normalize_config([1, 2])

    def test_protocol_required(self):
        with pytest.raises(ConfigError, match="protocol must be one of"):
            normalize_config({})

    def test_unknown_protocol(self):
        with pytest.raises(ConfigError, match="protocol"):
            normalize_config({"protocol": "teleport"})

    def test_unknown_top_level_field(self):
        with pytest.raises(ConfigError, match="unknown field extras"):
            cfg_for("prepare", extras=1)

    def test_unknown_section_field(self):
        with pytest.raises(ConfigError, match="unknown field encoding.gamma"):
            cfg_for("prepare", encoding={"gamma": 0.1})

    def test_section_must_be_object(self):
        with pytest.raises(ConfigError, match="noise must be an object"):
            cfg_for("prepare", noise=3)

    @pytest.mark.parametrize("bad", ["2", True, None])
    def test_alpha_must_be_number(self, bad):
        with pytest.raises(ConfigError):
            cfg_for("prepare", encoding={"alpha": bad})

    def test_alpha_must_be_positive(self):
        with pytest.raises(ConfigError, match="alpha must be > 0"):
            cfg_for("prepare", encoding={"alpha": -1.0})

    def test_beta_checked_when_present(self):
        with pytest.raises(ConfigError, match="beta must be > 0"):
            cfg_for("prepare", encoding={"beta": 0.0})

    def test_cutoff_must_be_integer(self):
        with pytest.raises(ConfigError, match="must be an integer"):
            cfg_for("prepare", encoding={"cutoff": 12.5})

    def test_gamma_must_be_nonnegative(self):
        with pytest.raises(ConfigError, match=">= 0"):
            cfg_for("heat-sweep", noise={"gamma": -0.1})

    def test_delta_capped_at_one(self):
        with pytest.raises(ConfigError, match="<= 1"):
            cfg_for("full-pipeline", noise={"delta": 1.5})

    def test_epsilons_must_be_nonempty(self):
        with pytest.raises(ConfigError, match="nonempty array"):
            cfg_for("rotate", encoding={"epsilons": []})

    def test_constant_rate_must_be_boolean(self):
        with pytest.raises(ConfigError, match="boolean"):
            cfg_for("heat-sweep", noise={"constant_rate": "yes"})

    def test_bell_mode_names(self):
        with pytest.raises(ConfigError, match="bell.mode must be one of"):
            cfg_for("bell-scan", bell={"mode": "fast"})

    def test_gate_variant_names(self):
        with pytest.raises(ConfigError, match="ve_variant"):
            cfg_for("full-pipeline", gates={"ve_variant": "exact"})

    def test_output_format_names(self):
        with pytest.raises(ConfigError, match="csv or json"):
            cfg_for("prepare", output={"format": "xml"})

    def test_output_path_nonempty(self):
        with pytest.raises(ConfigError, match="nonempty string"):
            cfg_for("prepare", output={"path": ""})

    def test_seed_bounds(self):
        with pytest.raises(ConfigError, match=">= 0"):
            cfg_for("prepare", seed=-1)
        assert cfg_for("prepare", seed=2**64 - 1)["seed"] == 2**64 - 1

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("section,key,in_list", [
        ("encoding", "alpha", False),
        ("encoding", "cutoff", False),
        ("noise", "gamma", False),
        ("bell", "deltas", True),
    ])
    def test_non_finite_rejected(self, bad, section, key, in_list):
        with pytest.raises(ConfigError, match="must be finite"):
            cfg_for("full-pipeline", **{section: {key: [bad] if in_list else bad}})

    def test_shots_positive_integer(self):
        with pytest.raises(ConfigError, match=">= 1"):
            cfg_for("bell-scan", bell={"shots": 0})


# normalize_config({"protocol": p}) for every protocol p, apart from the
# protocol name and the output path, in key order
DEFAULTS = {
    "encoding": {"alpha": 2.0, "beta": None, "cutoff": None, "leak_tol": 1e-10,
                 "epsilon": None, "epsilons": [0.05, 0.1, 0.2, 0.5236]},
    "noise": {"gamma": 0.001, "duration": 1.0, "steps": None,
              "constant_rate": False, "delta": None, "durations": None},
    "bell": {"theta_a": 0.0, "theta_a_prime": pi / 2, "theta_b": -pi / 4,
             "theta_b_prime": pi / 4, "shots": 4096, "mode": "exact",
             "deltas": [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4,
                        0.45, 0.5]},
    "gates": {"ve_variant": "ideal", "ev_variant": "ideal"},
}


def raw_with(field, value) -> dict:
    """A raw full-pipeline config that sets one field to value."""
    raw = {"protocol": "full-pipeline"}
    if field.section:
        raw[field.section] = {field.key: value}
    else:
        raw[field.key] = value
    return raw


def past_bounds(field) -> list:
    """One value just outside each bound of a numeric field."""
    if field.kind == "integer":
        below, above = (lambda x: x - 1), (lambda x: x + 1)
    else:
        below, above = (lambda x: float(np.nextafter(x, -np.inf))), \
            (lambda x: float(np.nextafter(x, np.inf)))
    out = []
    if field.ge is not None:
        out.append(below(field.ge))
    if field.gt is not None:
        out.append(field.gt)
    if field.le is not None:
        out.append(above(field.le))
    if field.lt is not None:
        out.append(field.lt)
    return out


def bad_values(field) -> list:
    """Values that break the field's row: wrong type, non-finite, out of bounds."""
    bad = [] if field.optional else [None]
    if field.kind in ("number", "integer", "numbers"):
        wrong = ["2", True, float("nan"), float("inf"), float("-inf")]
        wrong += past_bounds(field)
        if field.kind == "integer":
            wrong.append(2.5)
        else:  # a JSON integer beyond the float range
            wrong.append(10 ** 400)
        if field.kind == "numbers":
            return bad + ["0.5", []] + [[v] for v in wrong]
        return bad + wrong
    if field.kind == "choice":
        return bad + [3, "no-such-" + field.key]
    if field.kind == "bool":
        return bad + ["yes", 1]
    return bad + [3, ""]  # string


CASES = [(field, value) for field in FIELDS for value in bad_values(field)]


class TestFieldTable:
    """normalize_config applies one row of FIELDS per field."""

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_defaults_are_the_literal(self, protocol):
        want = {"protocol": protocol, **DEFAULTS, "seed": 0,
                "output": {"path": protocol, "format": "csv"}}
        cfg = normalize_config({"protocol": protocol})
        # json.dumps also compares key order and int against float
        assert json.dumps(cfg) == json.dumps(want)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_idempotent(self, protocol):
        cfg = normalize_config({"protocol": protocol, "encoding": {
            "alpha": 3, "beta": 2, "cutoff": 40.0, "epsilons": [1]},
            "noise": {"steps": 50.0, "durations": [2], "delta": 0},
            "bell": {"shots": 100.0}, "seed": 3.0})
        again = normalize_config(cfg)
        assert json.dumps(again) == json.dumps(cfg)
        assert cfg["encoding"]["cutoff"] == 40 and type(cfg["seed"]) is int
        assert cfg["encoding"]["epsilons"] == [1.0]

    def test_one_row_per_field(self):
        names = [field.name for field in FIELDS]
        assert len(set(names)) == len(names)
        cfg = normalize_config({"protocol": "prepare"})
        flat = [f"{s}.{k}" for s, sec in cfg.items() if isinstance(sec, dict)
                for k in sec] + [k for k, v in cfg.items() if not isinstance(v, dict)]
        assert sorted(flat) == sorted(names)

    @pytest.mark.parametrize("field,value", CASES,
                             ids=[f"{f.name}={v!r}" for f, v in CASES])
    def test_bad_value_names_the_field(self, field, value):
        with pytest.raises(ConfigError, match=re.escape(field.name)):
            normalize_config(raw_with(field, value))

    @pytest.mark.parametrize("field", [f for f in FIELDS if f.ge is not None
                                       or f.le is not None],
                             ids=lambda f: f.name)
    def test_inclusive_bounds_are_accepted(self, field):
        for bound in (field.ge, field.le):
            if bound is None:
                continue
            value = [bound] if field.kind == "numbers" else bound
            cfg = normalize_config(raw_with(field, value))
            got = cfg[field.section][field.key] if field.section else cfg[field.key]
            assert got == value


class TestDescribe:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_every_protocol_described(self, protocol):
        text = describe(protocol)
        assert f"protocol: {protocol}" in text
        assert "stages:" in text
        assert "columns:" in text

    def test_pipeline_mentions_chsh(self):
        assert "CHSH" in describe("full-pipeline")

    def test_unknown_protocol(self):
        with pytest.raises(ConfigError, match="unknown protocol"):
            describe("anneal")


class TestProtocolRunners:
    def test_prepare_reports_high_fidelity(self):
        rows, results, provenance = run_prepare(cfg_for("prepare"))
        assert provenance == "exact"
        assert results["preparation_fidelity"] > 1.0 - 1e-8
        assert results["factorization_agreement"] > 1.0 - 1e-10
        assert results["prepared_norm"] == pytest.approx(1.0, abs=1e-9)
        assert {r["quantity"] for r in rows} == set(results)

    def test_rotate_follows_fidelity_law(self):
        cfg = cfg_for("rotate")
        rows, results, _ = run_rotate(cfg)
        assert len(rows) == len(DEFAULT_EPSILONS)
        for row in rows:
            assert row["theta"] == pytest.approx(2.0 * 2.0 * row["epsilon"])
            assert row["analytic"] == pytest.approx(np.exp(-row["epsilon"] ** 2))
        # alpha = 2: the law holds up to the coherent-branch overlap scale
        assert results["max_law_deviation"] < 2e-3

    def test_swap_report_tables(self):
        rows, results, _ = run_swap_report(cfg_for("swap-report"))
        gates = {r["gate"] for r in rows}
        assert "u_swap[ideal,ideal]" in gates
        assert "u_swap[ideal,displacement]" in gates
        assert results["u_swap[ideal,ideal].min_fidelity"] > 1.0 - 1e-10
        assert all("|" in r["input"] for r in rows)
        assert all(0.0 <= r["fidelity"] <= 1.0 + 1e-9 for r in rows)

    def test_heat_sweep_rows(self):
        cfg = cfg_for("heat-sweep",
                      encoding={"alpha": 1.5, "cutoff": 14, "leak_tol": 1e-5},
                      noise={"gamma": 0.01, "durations": [0.5, 1.0]})
        rows, results, _ = run_heat_sweep(cfg)
        assert [r["duration"] for r in rows] == [0.5, 1.0]
        for row in rows:
            assert row["delta"] == pytest.approx(
                0.01 * 1.5**2 * row["duration"])
            assert row["trace_drift"] < 1e-8
        assert rows[1]["n_mean"] > rows[0]["n_mean"]
        assert results["final_parity"] == pytest.approx(rows[-1]["parity"])

    @pytest.mark.parametrize("alpha", [2.0, 3.0, 6.0])
    def test_heat_sweep_rows_ignore_record_grid(self, alpha, monkeypatch):
        # noise.steps only sets the record grid, and each duration is its own
        # exact evaluation: a row is the same bytes on every grid, alone or
        # inside a sweep.  alpha 6 (cutoff 82) needs the raised size cap
        monkeypatch.setenv("CATBELL_MAX_DIM", "65536")
        durations = [0.25, 0.5, 1.0, 2.0]

        def lines(steps, sweep):
            noise = {"gamma": 0.02, "durations": sweep}
            if steps is not None:
                noise["steps"] = steps
            cfg = cfg_for("heat-sweep", encoding={"alpha": alpha}, noise=noise)
            return render_csv(run_heat_sweep(cfg)[0]).splitlines()[1:]
        want = lines(None, durations)
        for steps in (None, 1, 7, 100, 5000):
            assert lines(steps, durations) == want
            for i, duration in enumerate(durations):
                assert lines(steps, [duration]) == [want[i]]

    def test_heat_sweep_decomposes_two_blocks_per_duration(self, monkeypatch):
        # the sweep reads diagonals 0 and -1 only; building the full final
        # rho would decompose all d blocks
        import catbell.noise
        calls = []
        block = catbell.noise._diagonal_block

        def counted(dim, m):
            calls.append(m)
            return block(dim, m)
        monkeypatch.setattr(catbell.noise, "_diagonal_block", counted)
        run_heat_sweep(cfg_for("heat-sweep", noise={"steps": 50}))
        assert sorted(calls) == [0, 1]

    def test_bell_scan_exact(self):
        rows, results, provenance = run_bell_scan(cfg_for("bell-scan"))
        assert provenance == "exact"
        assert len(rows) == len(DEFAULT_DELTAS)
        assert rows[0]["B"] == pytest.approx(2.0 * sqrt(2.0), abs=1e-9)
        # B is linear in delta, so interpolation finds the crossing exactly
        assert results["crossing"] == pytest.approx(DELTA_STAR, abs=1e-9)

    def test_bell_scan_rotated(self):
        cfg = cfg_for("bell-scan", bell={"mode": "rotated", "deltas": [0.0, 0.2]})
        rows, _, provenance = run_bell_scan(cfg)
        assert provenance == "exact"
        assert rows[0]["B"] == pytest.approx(2.0 * sqrt(2.0), abs=1e-8)
        assert rows[1]["B"] == pytest.approx(2.0 * sqrt(2.0) * 0.8, abs=1e-8)

    def test_bell_scan_sampled(self):
        cfg = cfg_for("bell-scan",
                      bell={"mode": "sampled", "shots": 4096, "deltas": [0.0]})
        rows, _, provenance = run_bell_scan(cfg)
        assert provenance == "sampled"
        assert rows[0]["B"] == pytest.approx(2.0 * sqrt(2.0), abs=0.15)
        assert rows[0]["std_error"] > 0.0

    def test_pipeline_noiseless_hits_ceiling(self):
        enc = EncodingParams.for_amplitudes(2.0)
        results = run_pipeline(enc, 0.0, DEFAULT_ANGLES)
        assert results["preparation_fidelity"] > 1.0 - 1e-8
        assert results["hadamard_fidelity"] > 1.0 - 1e-7
        assert results["b_value"] == pytest.approx(2.0 * sqrt(2.0), abs=1e-6)
        assert "b_std_error" not in results

    @pytest.mark.parametrize("alpha", [4.0, 8.0])
    @pytest.mark.parametrize("delta", [0.0, 0.15])
    def test_pipeline_ideal_fidelity_is_one(self, alpha, delta, monkeypatch):
        # ideal gates deliver mixed_bell(delta) itself; the closed form reads
        # 1 to rounding, where the Uhlmann route read up to 1 + 3e-8
        monkeypatch.setenv("CATBELL_MAX_DIM", "65536")
        enc = EncodingParams.for_amplitudes(alpha)
        results = run_pipeline(enc, delta, DEFAULT_ANGLES)
        assert abs(results["electronic_fidelity"] - 1.0) <= 1e-14

    def test_pipeline_tracks_linear_law(self):
        enc = EncodingParams.for_amplitudes(2.0)
        results = run_pipeline(enc, 0.1, DEFAULT_ANGLES)
        assert results["electronic_fidelity"] > 1.0 - 1e-6
        assert results["b_value"] == pytest.approx(
            results["b_predicted"], abs=2e-3)
        assert results["b_predicted"] == pytest.approx(
            2.0 * sqrt(2.0) * 0.9, abs=1e-12)


class TestEpsilonKick:
    """encoding.epsilon sets the kick of the displacement gate build."""

    DISPLACEMENT = {"gates": {"ev_variant": "displacement"}}

    @pytest.mark.parametrize("protocol", ["full-pipeline", "swap-report"])
    def test_default_scale_writes_same_bytes(self, protocol, tmp_path):
        plain = cfg_for(protocol, encoding={"alpha": 2.0}, **self.DISPLACEMENT)
        explicit = cfg_for(protocol, encoding={"alpha": 2.0, "epsilon": pi / 8.0},
                           **self.DISPLACEMENT)
        a = open(execute(plain, str(tmp_path / "plain")), "rb").read()
        b = open(execute(explicit, str(tmp_path / "explicit")), "rb").read()
        assert a == b

    def test_explicit_scale_changes_b(self):
        cfg = cfg_for("full-pipeline", encoding={"alpha": 2.0, "epsilon": 0.1},
                      noise={"delta": 0.1}, **self.DISPLACEMENT)
        _, results, _ = run_full_pipeline(cfg)
        enc = EncodingParams.for_amplitudes(2.0)
        default = run_pipeline(enc, 0.1, DEFAULT_ANGLES,
                               ev_variant="displacement")
        carried = run_pipeline(dataclasses.replace(enc, epsilon=0.1), 0.1,
                               DEFAULT_ANGLES, ev_variant="displacement")
        assert results == carried
        assert abs(results["b_value"] - default["b_value"]) > 0.1

    def test_one_scale_kicks_both_modes(self):
        # alpha != beta: mode b takes the same eps, not pi / (4 beta)
        cfg = cfg_for("full-pipeline", encoding={"alpha": 2.0, "beta": 3.0,
                                                 "epsilon": pi / 8.0},
                      noise={"delta": 0.1}, **self.DISPLACEMENT)
        _, results, _ = run_full_pipeline(cfg)
        enc = EncodingParams.for_amplitudes(2.0, 3.0)
        carried = dataclasses.replace(enc, epsilon=pi / 8.0)
        assert np.array_equal(u_swap("b", carried).kick,
                              displacement(1j * pi / 8.0, enc.mode_b).matrix)
        assert results == run_pipeline(carried, 0.1, DEFAULT_ANGLES,
                                       ev_variant="displacement")
        default = run_pipeline(enc, 0.1, DEFAULT_ANGLES, ev_variant="displacement")
        assert abs(results["b_value"] - default["b_value"]) > 0.01

    def test_scale_bounded_by_larger_amplitude(self):
        # 0.9 * 2 lies in [0, pi] but 0.9 * 4 does not
        cfg = cfg_for("full-pipeline", encoding={"alpha": 2.0, "beta": 4.0,
                                                 "epsilon": 0.9})
        with pytest.raises(ConfigError, match="epsilon\\*beta"):
            run_full_pipeline(cfg)

    def test_explicit_scale_changes_swap_report(self):
        base = cfg_for("swap-report", encoding={"alpha": 2.0})
        kicked = cfg_for("swap-report", encoding={"alpha": 2.0, "epsilon": 0.1})
        key = "u_ev[displacement].min_fidelity"
        assert run_swap_report(kicked)[1][key] < run_swap_report(base)[1][key] - 0.1


class TestOutputFiles:
    def test_csv_written_with_header(self, tmp_path):
        cfg = cfg_for("prepare", output={"path": "prep"})
        path = execute(cfg, str(tmp_path))
        assert path == str(tmp_path / "prep.csv")
        text = open(path, encoding="utf-8").read()
        assert text.startswith("quantity,value\n")
        assert text.endswith("\n")

    def test_csv_reruns_byte_identical(self, tmp_path):
        cfg = cfg_for("bell-scan",
                      bell={"mode": "sampled", "shots": 512, "deltas": [0.0, 0.1]})
        a = open(execute(cfg, str(tmp_path / "one")), "rb").read()
        b = open(execute(cfg, str(tmp_path / "two")), "rb").read()
        assert a == b

    def test_different_seeds_differ(self, tmp_path):
        base = {"bell": {"mode": "sampled", "shots": 512, "deltas": [0.1]}}
        a = open(execute(cfg_for("bell-scan", seed=0, **base),
                         str(tmp_path / "one")), "rb").read()
        b = open(execute(cfg_for("bell-scan", seed=1, **base),
                         str(tmp_path / "two")), "rb").read()
        assert a != b

    def test_json_record_fields(self, tmp_path):
        cfg = cfg_for("prepare", output={"format": "json"})
        path = execute(cfg, str(tmp_path))
        record = json.load(open(path, encoding="utf-8"))
        assert set(record) == {"protocol", "config", "results", "rows",
                               "provenance", "duration_seconds", "version"}
        assert record["config"] == cfg
        assert record["provenance"] == "exact"
        assert record["results"]["preparation_fidelity"] > 1.0 - 1e-8

    def test_no_temp_files_left_behind(self, tmp_path):
        execute(cfg_for("prepare"), str(tmp_path))
        leftovers = [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]
        assert leftovers == []

    def test_suffix_not_duplicated(self, tmp_path):
        cfg = cfg_for("prepare", output={"path": "named.csv"})
        path = execute(cfg, str(tmp_path))
        assert os.path.basename(path) == "named.csv"

    def test_render_csv_number_format(self):
        text = render_csv([{"x": 0.1 + 0.2, "flag": True, "n": 3}])
        assert text == "x,flag,n\n0.3,true,3\n"


class TestMainEntry:
    def write_config(self, tmp_path, raw: dict) -> str:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        return str(path)

    def test_version_command(self, capsys):
        assert main(["version"]) == 0
        assert capsys.readouterr().out.startswith("catbell ")

    def test_describe_command(self, capsys):
        assert main(["describe", "rotate"]) == 0
        assert "rotate" in capsys.readouterr().out

    def test_describe_unknown_is_config_error(self, capsys):
        assert main(["describe", "anneal"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_run_writes_file(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path, {"protocol": "prepare"})
        assert main(["run", cfg_path, "--output", str(tmp_path)]) == 0
        assert (tmp_path / "prepare.csv").exists()
        assert "preparation_fidelity" in capsys.readouterr().out

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.json")]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["run", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_capacity_error_exit_code(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path, {
            "protocol": "prepare",
            "encoding": {"alpha": 2.0, "cutoff": 8},
        })
        assert main(["run", cfg_path, "--output", str(tmp_path)]) == 3
        assert "capacity error" in capsys.readouterr().err

    def test_huge_cutoff_is_capacity_error_before_allocating(
            self, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("mode amplitudes allocated before the cap check")
        monkeypatch.setattr(catbell.bosonic, "_coherent_amps", refuse)
        cfg_path = self.write_config(tmp_path, {
            "protocol": "full-pipeline",
            "encoding": {"cutoff": 1000000000},
        })
        assert main(["run", cfg_path, "--output", str(tmp_path)]) == 3
        assert "exceeds the cap" in capsys.readouterr().err

    def test_tiny_alpha_runs(self, tmp_path, capsys):
        # the odd cat's norm^2 no longer cancels to 0 at alpha = 1e-9
        cfg_path = self.write_config(tmp_path, {
            "protocol": "full-pipeline",
            "encoding": {"alpha": 1e-9},
            "output": {"format": "json"},
        })
        assert main(["run", cfg_path, "--output", str(tmp_path)]) == 0
        record = json.loads((tmp_path / "full-pipeline.json").read_text())
        assert all(np.isfinite(v) for v in record["results"].values())
        assert record["results"]["preparation_fidelity"] == pytest.approx(1.0)

    def test_alpha_whose_square_underflows_is_config_error(self, tmp_path,
                                                           capsys):
        cfg_path = self.write_config(tmp_path, {
            "protocol": "full-pipeline",
            "encoding": {"alpha": 1e-200},
        })
        assert main(["run", cfg_path, "--output", str(tmp_path)]) == 2
        assert "config error: encoding: cat amplitudes must be at least" \
            in capsys.readouterr().err

    def test_contract_error_exit_code(self, tmp_path, capsys):
        # gamma * duration = 1e18 is past what float64 can resolve
        cfg_path = self.write_config(tmp_path, {
            "protocol": "heat-sweep",
            "encoding": {"alpha": 1.5, "cutoff": 14, "leak_tol": 1e-5},
            "noise": {"gamma": 1e3, "duration": 1e15, "steps": 20},
        })
        assert main(["run", cfg_path, "--output", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert "contract violation" in err and "gamma*duration = 1e+18" in err
        assert "Warning" not in err

    def test_long_heating_reaches_the_steady_state(self, tmp_path):
        # gamma t = 1e3 is exact now; the truncated ladder fills evenly
        cfg_path = self.write_config(tmp_path, {
            "protocol": "heat-sweep",
            "encoding": {"alpha": 1.5, "cutoff": 14, "leak_tol": 1e-5},
            "noise": {"gamma": 1e3, "steps": 20},
            "output": {"format": "json"},
        })
        assert main(["run", cfg_path, "--output", str(tmp_path)]) == 0
        rows = json.loads((tmp_path / "heat-sweep.json").read_text())["rows"]
        assert rows[-1]["n_mean"] == pytest.approx((14 - 1) / 2, abs=1e-9)
        assert abs(rows[-1]["parity"]) <= 1e-9

    @pytest.mark.parametrize("protocol,noise", [
        ("full-pipeline", {"delta": float("nan")}),
        ("heat-sweep", {"gamma": float("nan")}),
    ])
    def test_non_finite_number_exit_code(self, tmp_path, capsys, protocol, noise):
        cfg_path = self.write_config(tmp_path, {"protocol": protocol,
                                                "noise": noise})
        assert main(["run", cfg_path, "--output", str(tmp_path)]) == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("raw,code,message", [
        ({"protocol": "heat-sweep", "noise": {"steps": 1e15}},
         3, "capacity error: 1e\\+15 recorded steps exceed the limit"),
        ({"protocol": "heat-sweep", "noise": {"durations": [1e300]}},
         4, "contract violation: .* at gamma\\*duration = 1e\\+297"),
        ({"protocol": "heat-sweep", "noise": {"gamma": 1e300, "duration": 1e10}},
         4, "contract violation: .* at gamma\\*duration = inf"),
        ({"protocol": "bell-scan", "bell": {"mode": "sampled", "shots": 1e30}},
         2, "config error: bell.shots must be <= 9223372036854775807"),
        ({"protocol": "full-pipeline", "bell": {"mode": "sampled", "shots": 1e22}},
         2, "config error: bell.shots must be <= 9223372036854775807"),
    ], ids=["steps", "durations", "auto-steps-overflow", "bell-scan-shots",
            "full-pipeline-shots"])
    def test_step_and_shot_limits(self, tmp_path, capsys, raw, code, message):
        # each of these ended in a traceback before the limits existed
        cfg_path = self.write_config(tmp_path, raw)
        assert main(["run", cfg_path, "--output", str(tmp_path)]) == code
        err = capsys.readouterr().err
        assert re.search(message, err)
        assert "Warning" not in err

    def csv_under_blas_threads(self, tmp_path, raw: dict, **env_extra) -> list:
        """CSV bytes of `catbell run` on raw with 1 and with 4 BLAS threads."""
        cfg_path = self.write_config(tmp_path, raw)
        outputs = []
        for threads in (1, 4):
            outdir = tmp_path / f"threads{threads}"
            env = dict(os.environ, **env_extra)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS"):
                env[var] = str(threads)
            proc = subprocess.run(
                [sys.executable, "-m", "catbell.cli", "run", cfg_path,
                 "--output", str(outdir)],
                env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outputs.append((outdir / f"{raw['protocol']}.csv").read_bytes())
        return outputs

    def test_heat_sweep_identical_across_blas_threads(self, tmp_path):
        # alpha 6 (cutoff 82) is the largest heating size; it needs the
        # raised size cap
        for alpha in (3.0, 6.0):
            workdir = tmp_path / f"alpha{alpha:g}"
            workdir.mkdir()
            one, four = self.csv_under_blas_threads(workdir, {
                "protocol": "heat-sweep",
                "encoding": {"alpha": alpha},
                "noise": {"gamma": 0.002, "durations": [0.5, 1.0, 2.0]},
            }, CATBELL_MAX_DIM="65536")
            assert b"trace_drift" in one
            assert one == four

    @pytest.mark.parametrize("alpha", [4.0, 8.0])
    def test_full_pipeline_identical_across_blas_threads(self, tmp_path, alpha):
        # the displacement build; alpha 8 needs the raised size cap
        one, four = self.csv_under_blas_threads(tmp_path, {
            "protocol": "full-pipeline",
            "encoding": {"alpha": alpha},
            "noise": {"delta": 0.1},
            "gates": {"ev_variant": "displacement"},
        }, CATBELL_MAX_DIM="65536")
        assert b"electronic_fidelity" in one
        assert one == four

    def test_seed_override_changes_sampled_output(self, tmp_path):
        cfg_path = self.write_config(tmp_path, {
            "protocol": "bell-scan",
            "bell": {"mode": "sampled", "shots": 512, "deltas": [0.1]},
        })
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", cfg_path, "--output", str(out_a)]) == 0
        assert main(["run", cfg_path, "--output", str(out_b),
                     "--seed", "7"]) == 0
        a = (out_a / "bell-scan.csv").read_bytes()
        b = (out_b / "bell-scan.csv").read_bytes()
        assert a != b

    def test_module_invocation(self, tmp_path):
        cfg_path = self.write_config(tmp_path, {"protocol": "bell-scan"})
        proc = subprocess.run(
            [sys.executable, "-m", "catbell.cli", "run", cfg_path,
             "--output", str(tmp_path)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "bell-scan.csv").exists()


class TestPipelineMemo:
    """run_pipeline memoizes its gate-free stages per encoding."""

    @pytest.mark.parametrize("alpha,beta", [(2.0, 2.0), (2.0, 3.0)])
    def test_warm_sweep_equals_cold_calls(self, alpha, beta):
        enc = EncodingParams.for_amplitudes(alpha, beta)
        deltas = (0.0, 0.15, 1.0)

        def sweep(cold: bool) -> list:
            out = []
            for delta in deltas:
                for ev in EV_VARIANTS:
                    for method in ("exact", "sampled"):
                        if cold:
                            _hadamard_stage.cache_clear()
                            measurement_pulse.cache_clear()
                        out.append(run_pipeline(enc, delta, DEFAULT_ANGLES,
                                                method, 512, 3, "literal", ev))
            return out

        _hadamard_stage.cache_clear()
        warm = sweep(cold=False)
        info = _hadamard_stage.cache_info()
        assert info.misses == 1
        assert info.hits == len(warm) - 1
        assert warm == sweep(cold=True)

    def test_every_call_builds_its_gates(self, monkeypatch):
        # the memo stops before the exchange: a warm call still builds it
        import catbell.pipeline
        enc = EncodingParams.for_amplitudes(2.0)
        run_pipeline(enc, 0.1, DEFAULT_ANGLES)
        calls = []
        monkeypatch.setattr(catbell.pipeline, "u_swap",
                            lambda *args: calls.append(args) or u_swap(*args))
        run_pipeline(enc, 0.1, DEFAULT_ANGLES)
        assert calls == [("a", enc, "ideal", "ideal")]

    def test_hit_still_holds_the_size_cap(self, monkeypatch):
        # alpha 6 (d = 82) needs the raised cap; a hit must not skip it
        enc = EncodingParams.for_amplitudes(6.0)
        monkeypatch.setenv("CATBELL_MAX_DIM", "65536")
        run_pipeline(enc, 0.1, DEFAULT_ANGLES)
        monkeypatch.delenv("CATBELL_MAX_DIM")
        hits = _hadamard_stage.cache_info().hits
        with pytest.raises(CapacityError, match="exceeds the cap 16384"):
            run_pipeline(enc, 0.1, DEFAULT_ANGLES)
        assert _hadamard_stage.cache_info().hits == hits + 1

    def test_cached_arrays_are_read_only(self):
        enc = EncodingParams.for_amplitudes(2.0)
        _, _, code_a, left, right = _hadamard_stage(enc)
        for cached in (left, right, code_a.zero.amps, code_a.one.amps,
                       code_a.dft_zero.amps, code_a.dft_one.amps,
                       measurement_pulse(0.3)):
            with pytest.raises(ValueError, match="read-only"):
                cached[0] = 1.0

    def test_returned_state_is_the_callers(self):
        enc = EncodingParams.for_amplitudes(2.0)
        _hadamard_stage.cache_clear()
        results, rho = _pipeline_state(enc, 0.15, "ideal", "ideal")
        want = rho.matrix.copy()
        rho.matrix[:] = 0.0
        results["preparation_fidelity"] = -1.0
        results_again, rho_again = _pipeline_state(enc, 0.15, "ideal", "ideal")
        assert _hadamard_stage.cache_info().hits == 1
        assert (rho_again.matrix == want).all()
        assert results_again["preparation_fidelity"] > 0.99
        # and a later call does not write into a state handed out before
        _pipeline_state(enc, 0.5, "ideal", "ideal")
        assert (rho_again.matrix == want).all()
        assert results["preparation_fidelity"] == -1.0


class TestParserReuse:
    def outcomes(self, argvs: list, capsys, fresh: bool) -> list:
        """(exit code, stdout, stderr) of main on each argv in turn."""
        out = []
        for argv in argvs:
            if fresh:
                _build_parser.cache_clear()
            try:
                code = main(argv)
            except SystemExit as stop:
                code = ("exit", stop.code)
            captured = capsys.readouterr()
            out.append((code, captured.out, captured.err))
        return out

    def test_one_parser_behaves_like_a_fresh_one(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"protocol": "prepare"}), encoding="utf-8")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"protocol": "prepare", "extra": 1}),
                       encoding="utf-8")
        out = str(tmp_path)
        argvs = [
            ["run", str(good), "--output", out],
            ["describe", "full-pipeline"],
            ["version"],
            ["run", str(good), "--output", out, "--seed", "5"],
            ["run", str(bad), "--output", out],
            [], ["frobnicate"], ["run"], ["run", str(good), "--seed", "x"],
            ["describe"], ["--help"], ["run", "--help"],
            ["describe", "anneal"],
            ["run", str(good), "--output", out],
        ]
        assert _build_parser() is _build_parser()
        reused = self.outcomes(argvs, capsys, fresh=False)
        assert reused == self.outcomes(argvs, capsys, fresh=True)
        assert [r[0] for r in reused[:5]] == [0, 0, 0, 0, 2]
        assert reused[5][0] == ("exit", 2)
        assert reused[-1] == reused[0]
