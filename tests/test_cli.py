"""Batch runner: config validation, protocol execution, file output, exit codes."""

from __future__ import annotations

import contextlib
import dataclasses
import inspect
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc
import warnings
from math import exp, inf, isfinite, nextafter, pi, sqrt
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import catbell.bosonic
import catbell.hilbert
import catbell.noise
import catbell.params
from catbell.bell import (
    DEFAULT_ANGLES,
    DELTA_STAR,
    PHI_PLUS_T,
    PSI_PLUS_T,
    TSIRELSON,
    _setting_vectors,
    chsh,
    crossing,
    mixed_tensor,
    tensor_chsh,
)
from catbell.cli import (
    DEFAULT_DELTAS,
    DEFAULT_EPSILONS,
    ECHO_LIMIT,
    FIELDS,
    PROTOCOLS,
    RUNNERS,
    USAGE,
    _check,
    describe,
    execute,
    main,
    normalize_config,
    render_csv,
)
from catbell.coherent import rotation_fidelity
from catbell.encoding import logical_basis
from catbell.errors import CapacityError, ConfigError
from catbell.gates import report_u_ev, report_u_swap, report_u_ve
from catbell.params import (
    CHSH_METHODS,
    EV_VARIANTS,
    VE_VARIANTS,
    EncodingParams,
)
from catbell.pipeline import (
    _coherent_stages,
    _cat_populations,
    run_bell_scan,
    run_full_pipeline,
    run_heat_sweep,
    run_pipeline,
    run_prepare,
    run_rotate,
    run_swap_report,
)
from conftest import child_env, displacement, mixed_bell, u_swap
from reach import REGRESSIONS

# the one protocol that holds Fock levels, the prepared cat's populations,
# and so reads encoding.cutoff, leak_tol and the size cap; every other one
# runs in closed form, and a new protocol joins those by itself
CAPPED = "heat-sweep"
CLOSED_FORM = tuple(p for p in PROTOCOLS if p != CAPPED)


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
        retired = ["rotated"] if field.name == "bell.mode" else []
        return bad + [3, "no-such-" + field.key] + retired
    if field.kind == "bool":  # noise.constant_rate, which admits only false
        return bad + ["yes", 1, True]
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

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_every_default_passes_its_own_check(self, protocol):
        # normalize_config takes an omitted field's default unchecked, so
        # a bad default fails here: each, the output path's at this
        # protocol, is what its field's check returns, a "numbers" default
        # as a list.  The protocol has no default and must be given
        for field in FIELDS:
            default = field.default
            if default is None and not field.optional:
                assert field.name == "protocol"
                continue
            if callable(default):
                default = default(protocol)
            if field.kind == "numbers" and default is not None:
                default = list(default)
            # json.dumps also compares int against float
            assert json.dumps(_check(field, default)) == json.dumps(default), field.name

    def test_each_config_gets_its_own_default_lists(self):
        one, two = (normalize_config({"protocol": "rotate"}) for _ in range(2))
        for section, key, default in (("encoding", "epsilons", DEFAULT_EPSILONS),
                                      ("bell", "deltas", DEFAULT_DELTAS)):
            assert type(one[section][key]) is list
            assert one[section][key] == list(default)
            assert one[section][key] is not two[section][key]
        one["encoding"]["epsilons"].append(1.0)
        assert two["encoding"]["epsilons"] == list(DEFAULT_EPSILONS)
        assert normalize_config({"protocol": "rotate"}) == two

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
        columns = next(line for line in text.splitlines()
                       if line.startswith("columns: "))
        # each header the protocol writes at its defaults, named as a whole;
        # bell-scan's line is its header under each bell.mode and no other
        if protocol == "bell-scan":
            headers = [
                render_csv(RUNNERS[protocol](cfg_for(
                    protocol, bell={"mode": mode}))[0]).splitlines()[0]
                + f" ({mode})" for mode in CHSH_METHODS]
            assert columns == "columns: " + " or ".join(headers)
        else:
            rows = RUNNERS[protocol](cfg_for(protocol))[0]
            header = re.escape(render_csv(rows).splitlines()[0])
            assert re.search(rf" {header}( |$)", columns)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_describe_prints_the_runners_docstring(self, protocol):
        doc = RUNNERS[protocol].__doc__
        assert doc and doc.strip()
        assert describe(protocol) == (
            f"protocol: {protocol}\n{inspect.cleandoc(doc)}")

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_stripped_docstrings_describe_only_the_name(self, protocol):
        # python -OO drops every docstring; describe still answers
        proc = subprocess.run(
            [sys.executable, "-OO", "-m", "catbell.cli", "describe", protocol],
            env=child_env(), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == f"protocol: {protocol}\n"

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

    @pytest.mark.parametrize("alpha", [1.5, 3.0, 6.0])
    def test_rotate_reports_the_configured_kick(self, alpha):
        # the kick is epsilon itself, not theta / (2 alpha) recovered from
        # theta = 2 alpha epsilon, which is epsilon + 1 ulp at these alphas
        epsilons = [0.05, 0.1, 0.2]
        rows, _, _ = run_rotate(cfg_for("rotate", encoding={
            "alpha": alpha, "epsilons": epsilons}))
        for row, eps in zip(rows, epsilons):
            assert row["epsilon"].hex() == eps.hex()
            assert row["theta"] == 2.0 * alpha * eps
            assert row["analytic"] == exp(-eps * eps)

    @pytest.mark.parametrize("alpha", [2.0, 4.5])
    def test_rotate_rows_are_the_rotation_fidelity_calls(self, alpha):
        epsilons = [0.0, 0.05, 0.2, 0.5236]
        rows, results, _ = run_rotate(cfg_for("rotate", encoding={
            "alpha": alpha, "epsilons": epsilons}))
        enc = EncodingParams.for_amplitudes(alpha)
        want = [rotation_fidelity(eps, enc, "a") for eps in epsilons]
        assert rows == want
        assert [list(row) for row in rows] == \
            [["epsilon", "theta", "f_zero", "f_one", "analytic"]] * len(rows)
        assert results == {"max_law_deviation": max(
            abs(r["f_zero"] - r["analytic"]) for r in want)}

    def test_swap_report_tables(self):
        rows, results, _ = run_swap_report(cfg_for("swap-report"))
        gates = {r["gate"] for r in rows}
        assert "u_swap[ideal,ideal]" in gates
        assert "u_swap[ideal,displacement]" in gates
        assert results["u_swap[ideal,ideal].min_fidelity"] > 1.0 - 1e-10
        assert all("|" in r["input"] for r in rows)
        assert all(0.0 <= r["fidelity"] <= 1.0 + 1e-9 for r in rows)

    @pytest.mark.parametrize("alpha", [2.0, 3.0, 4.0])
    def test_swap_report_literal_rows_are_the_index_build(self, alpha):
        # u_ve[literal] is the pipeline's index build, diag((-1)^n, 1) on the
        # ion: its flip rows and unitarity are exact zeros, not the rounding
        # residue of two dense exponentials
        rows, _, _ = run_swap_report(cfg_for("swap-report",
                                             encoding={"alpha": alpha}))
        literal = [r for r in rows if r["gate"] == "u_ve[literal]"]
        flips = {r["input"]: r["fidelity"] for r in literal
                 if r["input"].startswith("1L")}
        assert flips == {"1L|0e": 0.0, "1L|1e": 0.0}
        assert [r["unitarity"] for r in literal] == [0.0] * 4

    @pytest.mark.parametrize("alpha", [2.0, 4.0])
    def test_swap_report_rows_are_the_report_calls(self, alpha):
        rows, _, _ = run_swap_report(cfg_for("swap-report",
                                             encoding={"alpha": alpha}))
        enc = EncodingParams.for_amplitudes(alpha)
        reports = [report_u_ve("ideal", "a", enc),
                   report_u_ve("literal", "a", enc),
                   report_u_ev("a", enc),
                   report_u_swap("a", enc, "ideal", "ideal"),
                   report_u_swap("a", enc, "ideal", "displacement")]
        assert rows == [row for report in reports for row in report]
        assert [list(row) for row in rows] == \
            [["gate", "input", "target", "fidelity", "unitarity"]] * len(rows)

    @pytest.mark.parametrize("alpha", [2.0, 4.0])
    def test_swap_report_min_fidelity_is_the_minimum_of_its_rows(self, alpha):
        rows, results, _ = run_swap_report(cfg_for("swap-report",
                                                   encoding={"alpha": alpha}))
        gates = dict.fromkeys(r["gate"] for r in rows)
        assert len(gates) == 5
        assert results == {
            f"{gate}.min_fidelity": min(r["fidelity"] for r in rows
                                        if r["gate"] == gate)
            for gate in gates}

    def test_heat_sweep_rows(self):
        cfg = cfg_for("heat-sweep",
                      encoding={"alpha": 1.5, "cutoff": 14, "leak_tol": 1e-5},
                      noise={"gamma": 0.01, "durations": [0.5, 1.0]})
        rows, results, _ = run_heat_sweep(cfg)
        assert [r["duration"] for r in rows] == [0.5, 1.0]
        for row in rows:
            assert row["trace_drift"] < 1e-8
        assert rows[1]["n_mean"] > rows[0]["n_mean"]
        assert results["final_parity"] == pytest.approx(rows[-1]["parity"])

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    def test_heat_sweep_flip_probability_is_the_parity_law(self, alpha):
        # flip_probability is (1 - parity) / 2: gamma (2 nbar + 1) t at small
        # gamma t, nbar the cat's own <n>, rising toward 1/2 as the parity
        # falls under 1 / (1 + 2 gamma t)
        gamma = 1e-4
        durations = [1.0, 10.0, 1e3, 1e9]
        cfg = cfg_for("heat-sweep", encoding={"alpha": alpha},
                      noise={"gamma": gamma, "durations": durations})
        rows, _, _ = run_heat_sweep(cfg)
        flips = [r["flip_probability"] for r in rows]
        assert flips == [(1.0 - r["parity"]) / 2.0 for r in rows]
        nbar = rows[0]["n_mean"] - gamma * durations[0]
        assert flips[0] / (gamma * (2.0 * nbar + 1.0) * durations[0]) == \
            pytest.approx(1.0, abs=1e-2)
        assert all(a < b for a, b in zip(flips, flips[1:]))
        assert 0.0 < 0.5 - flips[-1] <= 0.5 / (1.0 + 2.0 * gamma * durations[-1])

    @pytest.mark.parametrize("alpha", [2.0, 3.0, 6.0])
    def test_heat_sweep_rows_ignore_record_grid(self, alpha, monkeypatch):
        # noise.steps is read by nothing, and each duration is its own exact
        # evaluation: a row is the same bytes at any steps, alone or inside
        # a sweep.  alpha 6 (cutoff 82) needs the raised size cap
        monkeypatch.setenv("CATBELL_MAX_DIM", "65536")
        durations = [0.25, 0.5, 1.0, 2.0]

        def lines(steps, sweep):
            noise = {"gamma": 0.02, "durations": sweep}
            if steps is not None:
                noise["steps"] = steps
            cfg = cfg_for("heat-sweep", encoding={"alpha": alpha}, noise=noise)
            return render_csv(run_heat_sweep(cfg)[0]).splitlines()[1:]
        want = lines(None, durations)
        for steps in (None, 1, 7, 100, 5000, 10 ** 15):
            assert lines(steps, durations) == want
            for i, duration in enumerate(durations):
                assert lines(steps, [duration]) == [want[i]]

    def test_heat_sweep_decomposes_no_block(self, monkeypatch):
        # the sweep reads the channel's law off the cat's populations; it
        # builds no rho and no heating block.  A cold memo, so that the
        # populations are computed here
        import catbell.noise
        _cat_populations.cache_clear()
        calls = []
        block = catbell.noise._diagonal_block

        def counted(dim, m):
            calls.append(m)
            return block(dim, m)
        monkeypatch.setattr(catbell.noise, "_diagonal_block", counted)
        run_heat_sweep(cfg_for("heat-sweep", noise={"steps": 50}))
        assert calls == []

    def test_bell_scan_exact(self):
        rows, results, provenance = run_bell_scan(cfg_for("bell-scan"))
        assert provenance == "exact"
        assert len(rows) == len(DEFAULT_DELTAS)
        assert rows[0]["B"] == pytest.approx(2.0 * sqrt(2.0), abs=1e-9)
        # B is linear in delta, so interpolation finds the crossing exactly
        assert results["crossing"] == pytest.approx(DELTA_STAR, abs=1e-9)

    def test_bell_scan_exact_rows_are_the_chsh_calls(self):
        # each row is the readout of the mixture's tensor, and within
        # rounding the readout of the mixture's density matrix
        cfg = cfg_for("bell-scan", bell={"deltas": [0.0, 0.2, 0.35]})
        rows, results, _ = run_bell_scan(cfg)
        bs = [tensor_chsh(mixed_tensor(PHI_PLUS_T, PSI_PLUS_T, d)).b_value
              for d in (0.0, 0.2, 0.35)]
        assert rows == [{"delta": d, "B": b} for d, b in zip((0.0, 0.2, 0.35), bs)]
        for d, b in zip((0.0, 0.2, 0.35), bs):
            assert abs(b - chsh(mixed_bell(d)).b_value) <= 2e-15
        assert results == {"crossing": crossing([0.0, 0.2, 0.35], bs),
                           "b_at_first_delta": bs[0]}

    def test_bell_scan_sampled(self):
        cfg = cfg_for("bell-scan",
                      bell={"mode": "sampled", "shots": 4096, "deltas": [0.0]})
        rows, _, provenance = run_bell_scan(cfg)
        assert provenance == "sampled"
        assert rows[0]["B"] == pytest.approx(2.0 * sqrt(2.0), abs=0.15)
        assert rows[0]["std_error"] > 0.0

    def test_bell_scan_sampled_rows_are_the_chsh_calls(self):
        # one loop for both readouts: grid point i draws from [seed, i], and
        # the sampled readout reports no crossing
        deltas = [0.0, 0.2, 0.35]
        cfg = cfg_for("bell-scan", seed=7,
                      bell={"mode": "sampled", "shots": 500, "deltas": deltas})
        rows, results, _ = run_bell_scan(cfg)
        outs = [tensor_chsh(mixed_tensor(PHI_PLUS_T, PSI_PLUS_T, d),
                            DEFAULT_ANGLES, "sampled", 500, [7, i])
                for i, d in enumerate(deltas)]
        assert outs == [chsh(mixed_bell(d), DEFAULT_ANGLES, "sampled", 500, [7, i])
                        for i, d in enumerate(deltas)]
        assert rows == [{"delta": d, "B": o.b_value, "std_error": o.std_error}
                        for d, o in zip(deltas, outs)]
        assert results == {"b_at_first_delta": outs[0].b_value}

    @pytest.mark.parametrize("mode", CHSH_METHODS)
    def test_full_pipeline_reports_its_readout(self, mode):
        cfg = cfg_for("full-pipeline", seed=3, noise={"delta": 0.1},
                      bell={"mode": mode, "shots": 500})
        rows, results, provenance = run_full_pipeline(cfg)
        assert provenance == mode
        enc = EncodingParams.for_amplitudes(2.0)
        assert results == run_pipeline(enc, 0.1, DEFAULT_ANGLES, mode, 500, 3)
        assert ("b_std_error" in results) == (mode == "sampled")
        assert rows == [{"quantity": k, "value": v} for k, v in results.items()]

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
        a = Path(execute(plain, str(tmp_path / "plain"))).read_bytes()
        b = Path(execute(explicit, str(tmp_path / "explicit"))).read_bytes()
        assert a == b

    def test_explicit_scale_changes_b(self):
        cfg = cfg_for("full-pipeline", encoding={"alpha": 2.0, "epsilon": 0.1},
                      noise={"delta": 0.1}, **self.DISPLACEMENT)
        _, results, _ = run_full_pipeline(cfg)
        enc = EncodingParams.for_amplitudes(2.0)
        default = run_pipeline(enc, 0.1, DEFAULT_ANGLES,
                               ev_variant="displacement")
        carried = run_pipeline(EncodingParams.for_amplitudes(2.0, epsilon=0.1), 0.1,
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
        carried = EncodingParams.for_amplitudes(2.0, 3.0, epsilon=pi / 8.0)
        eye = np.eye(enc.mode_b.cutoff)
        swap_b = u_swap("b", carried, "ideal", "displacement")
        assert np.array_equal(swap_b.kick(eye),
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
        text = Path(path).read_text(encoding="utf-8")
        assert text.startswith("quantity,value\n")
        assert text.endswith("\n")

    def test_csv_reruns_byte_identical(self, tmp_path):
        cfg = cfg_for("bell-scan",
                      bell={"mode": "sampled", "shots": 512, "deltas": [0.0, 0.1]})
        a = Path(execute(cfg, str(tmp_path / "one"))).read_bytes()
        b = Path(execute(cfg, str(tmp_path / "two"))).read_bytes()
        assert a == b

    def test_different_seeds_differ(self, tmp_path):
        base = {"bell": {"mode": "sampled", "shots": 512, "deltas": [0.1]}}
        a = Path(execute(cfg_for("bell-scan", seed=0, **base),
                         str(tmp_path / "one"))).read_bytes()
        b = Path(execute(cfg_for("bell-scan", seed=1, **base),
                         str(tmp_path / "two"))).read_bytes()
        assert a != b

    def test_json_record_fields(self, tmp_path):
        cfg = cfg_for("prepare", output={"format": "json"})
        path = execute(cfg, str(tmp_path))
        record = json.loads(Path(path).read_text(encoding="utf-8"))
        assert set(record) == {"protocol", "config", "results", "rows",
                               "provenance", "duration_seconds", "version"}
        assert record["config"] == cfg
        assert record["provenance"] == "exact"
        assert record["results"]["preparation_fidelity"] > 1.0 - 1e-8

    def test_no_temp_files_left_behind(self, tmp_path):
        execute(cfg_for("prepare"), str(tmp_path))
        leftovers = [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]
        assert leftovers == []

    def test_output_file_mode_is_owner_only(self, tmp_path):
        path = execute(cfg_for("prepare"), str(tmp_path))
        assert os.stat(path).st_mode & 0o777 == 0o600

    def test_stale_temp_file_does_not_block_the_write(self, tmp_path):
        # a temp file left under the name the next write would take first
        stale = tmp_path / f".catbell-{os.getpid()}-0.tmp"
        stale.write_text("stale", encoding="utf-8")
        path = execute(cfg_for("prepare"), str(tmp_path))
        assert Path(path).read_text(encoding="utf-8").startswith("quantity,")
        assert stale.read_text(encoding="utf-8") == "stale"
        assert sorted(os.listdir(tmp_path)) == [stale.name, "prepare.csv"]

    def test_missing_nested_output_directory_is_created(self, tmp_path):
        outdir = tmp_path / "one" / "two" / "three"
        path = execute(cfg_for("prepare"), str(outdir))
        assert path == str(outdir / "prepare.csv")
        assert os.listdir(outdir) == ["prepare.csv"]

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

    @pytest.mark.parametrize("case", ["output-dir-is-a-file",
                                      "output-path-is-a-directory"])
    def test_unwritable_output_is_config_error(self, tmp_path, capsys, case):
        cfg_path = self.write_config(tmp_path, {"protocol": "prepare"})
        outdir = tmp_path / "out"
        if case == "output-dir-is-a-file":
            outdir.write_text("", encoding="utf-8")
        else:
            (outdir / "prepare.csv").mkdir(parents=True)
        assert main(["run", cfg_path, "--output", str(outdir)]) == 2
        err = capsys.readouterr().err
        assert f"config error: cannot write output {outdir / 'prepare.csv'}: " in err
        assert "Traceback" not in err
        assert not list(tmp_path.rglob(".catbell-*.tmp"))

    @pytest.mark.parametrize("value", [True, 1, "yes"])
    def test_constant_rate_other_than_false_is_exit_2(self, tmp_path, capsys,
                                                      value):
        cfg_path = self.write_config(tmp_path, {
            "protocol": "heat-sweep", "noise": {"constant_rate": value}})
        assert main(["run", cfg_path, "--output", str(tmp_path)]) == 2
        assert "config error: noise.constant_rate must be" in capsys.readouterr().err
        assert not (tmp_path / "heat-sweep.csv").exists()

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_retired_rotated_readout_is_exit_2(self, tmp_path, capsys, protocol):
        cfg_path = self.write_config(tmp_path, {
            "protocol": protocol, "bell": {"mode": "rotated"}})
        assert main(["run", cfg_path, "--output", str(tmp_path)]) == 2
        assert ("config error: bell.mode must be one of exact or sampled, "
                "got 'rotated'\n") == capsys.readouterr().err
        assert not (tmp_path / f"{protocol}.csv").exists()

    @pytest.mark.parametrize("value", ['"' + "x" * 10 ** 6 + '"',
                                       "[" * 900 + "]" * 900],
                             ids=["string-of-1e6", "list-900-deep"])
    def test_huge_value_is_echoed_cut(self, tmp_path, capsys, value):
        # the error echoes the value's repr cut to cli.ECHO_LIMIT characters
        # and marked: uncut, the string wrote a 1 MB line and the list 1.8 KB
        path = tmp_path / "config.json"
        path.write_text('{"protocol": "rotate", "encoding": {"alpha": '
                        + value + "}}", encoding="utf-8")
        assert main(["run", str(path), "--output", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: encoding.alpha must be a number, "
                              "got ")
        assert err.endswith(f"... ({len(value) - 500} more characters)\n")
        assert len(err) < 1000 and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("protocol", ["heat-sweep", "full-pipeline"])
    def test_constant_rate_false_writes_the_bytes_of_omitting_it(
            self, tmp_path, capsys, protocol):
        outputs = []
        for index, noise in enumerate(({}, {"constant_rate": False})):
            outdir = tmp_path / f"out{index}"
            cfg_path = self.write_config(tmp_path, {"protocol": protocol,
                                                    "noise": noise})
            assert main(["run", cfg_path, "--output", str(outdir)]) == 0
            outputs.append((outdir / f"{protocol}.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["run", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"protocol": "prepare", "output": {"path": "\xff"}}')
        assert main(["run", str(path), "--output", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: config is not valid UTF-8: ")
        assert "0xff" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("path,requirement", [
        ("a\x00b", "free of NUL characters"),
        ("a\ud800b", "encodable as a file name")])
    def test_output_path_no_file_name_holds(self, tmp_path, capsys, path,
                                            requirement):
        # a NUL, or a lone surrogate that no encoding writes, once ended in
        # a ValueError traceback from the output write
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"protocol": "prepare",
                                   "output": {"path": path}}), encoding="utf-8")
        assert main(["run", str(cfg), "--output", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: output.path must be {requirement}")
        assert not (tmp_path / "out").exists()

    def test_capacity_error_exit_code(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path, {
            "protocol": "heat-sweep",
            "encoding": {"alpha": 2.0, "cutoff": 8},
        })
        assert main(["run", cfg_path, "--output", str(tmp_path)]) == 3
        assert "capacity error" in capsys.readouterr().err

    def test_huge_cutoff_is_capacity_error_before_allocating(
            self, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("cat series started before the cap check")
        monkeypatch.setattr(catbell.params, "sqrt", refuse)
        cfg_path = self.write_config(tmp_path, {
            "protocol": "heat-sweep",
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

    @pytest.mark.parametrize("ev", EV_VARIANTS)
    def test_alpha_20_full_pipeline_runs(self, tmp_path, ev):
        # no cutoff and no size cap: the default cutoff 530 once sized a
        # register of 4 x 530^2 amplitudes, past the cap (exit 3)
        cfg_path = self.write_config(tmp_path, {
            "protocol": "full-pipeline", "encoding": {"alpha": 20.0},
            "noise": {"delta": 0.1}, "gates": {"ev_variant": ev},
            "output": {"format": "json"},
        })
        assert main(["run", cfg_path, "--output", str(tmp_path)]) == 0
        results = json.loads((tmp_path / "full-pipeline.json").read_text())["results"]
        law = results["b_predicted"]
        if ev == "displacement":  # each kick costs exp(-eps^2 / 2)
            law *= exp(-(pi / 80.0) ** 2)
        assert abs(results["b_value"] - law) <= 1e-12
        assert results["preparation_fidelity"] == pytest.approx(1.0, abs=1e-14)

    def test_alpha_whose_square_underflows_is_config_error(self, tmp_path,
                                                           capsys):
        cfg_path = self.write_config(tmp_path, {
            "protocol": "full-pipeline",
            "encoding": {"alpha": 1e-200},
        })
        assert main(["run", cfg_path, "--output", str(tmp_path)]) == 2
        assert "config error: encoding: cat amplitudes must be at least" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("cutoff", [None, 30], ids=["default-cutoff",
                                                        "cutoff-30"])
    @pytest.mark.parametrize("amplitudes", [
        {"alpha": 1.35e154}, {"alpha": 1e200}, {"alpha": 2.0, "beta": 1e200},
    ], ids=["alpha-1.35e154", "alpha-1e200", "beta-1e200"])
    @pytest.mark.parametrize("protocol", [p for p in PROTOCOLS
                                          if p != "bell-scan"])
    def test_alpha_whose_square_overflows_is_capacity_error(
            self, tmp_path, capsys, protocol, amplitudes, cutoff):
        # |alpha|^2 overflows: before, an OverflowError traceback and exit 1
        cfg_path = self.write_config(tmp_path, {
            "protocol": protocol, "encoding": {**amplitudes, "cutoff": cutoff}})
        assert main(["run", cfg_path, "--output", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert re.match(r"capacity error: .*\|alpha\|\^2 overflows\n$", err)
        assert not (tmp_path / f"{protocol}.csv").exists()

    def test_huge_default_cutoff_names_a_compact_total(self, tmp_path, capsys):
        # the default cutoff at alpha 1e153 is about 1e306: the message gives
        # the total in 3 significant digits, not 307
        cfg_path = self.write_config(tmp_path, {
            "protocol": "heat-sweep", "encoding": {"alpha": 1e153}})
        assert main(["run", cfg_path, "--output", str(tmp_path)]) == 3
        assert capsys.readouterr().err == (
            "capacity error: total dimension 1e+306 exceeds the cap 16384; "
            "raise CATBELL_MAX_DIM if this is intentional\n")

    def test_contract_error_exit_code(self, tmp_path, capsys):
        # gamma * duration = 1e18 heats the untruncated mode by 1e18 quanta;
        # one that overflows to inf has no answer
        raw = {"protocol": "heat-sweep",
               "encoding": {"alpha": 1.5, "cutoff": 14, "leak_tol": 1e-5},
               "noise": {"gamma": 1e3, "duration": 1e15, "steps": 20}}
        cfg_path = self.write_config(tmp_path, raw)
        assert main(["run", cfg_path, "--output", str(tmp_path)]) == 0
        lines = (tmp_path / "heat-sweep.csv").read_text().splitlines()
        assert lines[0].startswith("duration,n_mean,")
        assert lines[1].startswith("1e+15,1e+18,0,0,")
        raw["noise"]["duration"] = 1e306
        cfg_path = self.write_config(tmp_path, raw)
        assert main(["run", cfg_path, "--output", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert "contract violation" in err and "gamma*duration = inf" in err
        assert "Warning" not in err

    def test_long_heating_follows_the_channel_law(self, tmp_path):
        # gamma t = 1e3 reads the untruncated mode: <n> grows by gamma t,
        # with no ladder top to fill, and the parity is the untruncated even
        # cat's closed form within the cat's own truncation (leak_tol 1e-5)
        cfg_path = self.write_config(tmp_path, {
            "protocol": "heat-sweep",
            "encoding": {"alpha": 1.5, "cutoff": 14, "leak_tol": 1e-5},
            "noise": {"gamma": 1e3, "durations": [0.0, 1.0]},
            "output": {"format": "json"},
        })
        assert main(["run", cfg_path, "--output", str(tmp_path)]) == 0
        rows = json.loads((tmp_path / "heat-sweep.json").read_text())["rows"]
        assert rows[1]["n_mean"] == pytest.approx(rows[0]["n_mean"] + 1e3,
                                                  rel=1e-15)
        s, a2 = 1e3, 1.5 ** 2
        closed = ((exp(-2.0 * a2 / (1.0 + 2.0 * s)) + exp(-4.0 * a2 * s / (1.0 + 2.0 * s)))
                  / ((1.0 + 2.0 * s) * (1.0 + exp(-2.0 * a2))))
        assert rows[1]["parity"] == pytest.approx(closed, rel=1e-4)
        assert rows[1]["flip_probability"] == (1.0 - rows[1]["parity"]) / 2.0

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
        ({"protocol": "heat-sweep", "noise": {"gamma": 1e10, "durations": [1e300]}},
         4, "contract violation: .* at gamma\\*duration = inf"),
        ({"protocol": "heat-sweep", "noise": {"gamma": 1e300, "duration": 1e10}},
         4, "contract violation: .* at gamma\\*duration = inf"),
        ({"protocol": "bell-scan", "bell": {"mode": "sampled", "shots": 1e30}},
         2, "config error: bell.shots must be <= 9223372036854775807"),
        ({"protocol": "full-pipeline", "bell": {"mode": "sampled", "shots": 1e22}},
         2, "config error: bell.shots must be <= 9223372036854775807"),
        ({"protocol": "rotate", "encoding": {"epsilons": [0.1, 1e308]}},
         2, "config error: encoding\\.epsilons\\[1\\] = 1e\\+308 makes the angle"),
        ({"protocol": "full-pipeline", "noise": {"gamma": 0.5, "duration": 1.0}},
         2, "config error: noise: gamma \\* alpha\\^2 \\* duration exceeds 1; "
            "set noise\\.delta explicitly"),
        ({"protocol": "full-pipeline", "noise": {"gamma": 1e308, "duration": 0}},
         2, "config error: noise: gamma \\* alpha\\^2 overflows to inf, and "
            "inf \\* duration 0 is nan; set noise\\.delta explicitly"),
        ({"protocol": "heat-sweep", "encoding": {"alpha": 1000, "cutoff": 30}},
         3, "capacity error: no finite cutoff found for \\|alpha\\|\\^2 = 1000000"),
    ], ids=["durations", "auto-steps-overflow",
            "bell-scan-shots", "full-pipeline-shots", "rotate-angle-overflow",
            "default-delta-above-one", "default-delta-inf-times-zero",
            "no-finite-cutoff"])
    def test_step_and_shot_limits(self, tmp_path, capsys, raw, code, message):
        # each of these must end in a named error and its exit code; the
        # first six ended in a traceback before their limits existed
        cfg_path = self.write_config(tmp_path, raw)
        assert main(["run", cfg_path, "--output", str(tmp_path)]) == code
        err = capsys.readouterr().err
        assert re.search(message, err)
        assert "Warning" not in err

    @pytest.mark.parametrize("raw", [
        {"alpha": 0.5}, {"alpha": 9.0},
        {"alpha": 1.5e-154, "epsilon": 2e154}, {"alpha": 2.0, "cutoff": 10}],
        ids=["alpha-0.5", "alpha-9", "kick-square-overflows", "cutoff-10"])
    def test_swap_report_runs_where_a_cutoff_drops_the_kicked_cats(
            self, tmp_path, capsys, raw):
        # the default cutoff drops 1.1e-6 of the even cat kicked by D(i
        # pi/2) at alpha 0.5 and 1.3e-10 of the odd one at alpha 9, and no
        # cutoff holds a kick whose |alpha + i epsilon|^2 overflows.  The
        # gates run on coherent states, so each run writes its rows, the
        # same as at any other cutoff, with no warning
        cfg_path = self.write_config(tmp_path, {
            "protocol": "swap-report", "encoding": raw})
        assert main(["run", cfg_path, "--output", str(tmp_path / "a")]) == 0
        assert capsys.readouterr().err == ""
        rows, _, _ = run_swap_report(cfg_for("swap-report", encoding=dict(
            raw, cutoff=None)))
        assert all(isfinite(r["fidelity"]) and 0.0 <= r["fidelity"] <= 1.0
                   + 1e-12 and r["unitarity"] <= 1e-15 for r in rows)
        assert ((tmp_path / "a" / "swap-report.csv").read_text(encoding="utf-8")
                == render_csv(rows))

    @pytest.mark.parametrize("eps", [5e307, 1e308])
    def test_rotate_kick_overflow_is_a_config_error(self, tmp_path, capsys, eps):
        # at alpha 2 the angle 2 alpha eps = 4 eps overflows to inf; the run
        # ends in a config error naming the kick, with no warning and no rows
        # (at alpha 0.5 the same kicks run, as the next test checks)
        cfg_path = self.write_config(tmp_path, {
            "protocol": "rotate", "encoding": {"alpha": 2.0, "epsilons": [0.1, eps]}})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", cfg_path, "--output", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == (f"config error: encoding.epsilons[1] = {eps!r} makes "
                       "the angle 2 alpha epsilon overflow\n")
        assert not (tmp_path / "rotate.csv").exists()

    def test_rotate_large_finite_kick_still_runs(self, tmp_path):
        # at alpha 0.5 the angle 2 alpha eps = eps is finite, and the closed
        # form has no phases eps w of a truncated kick to overflow: each row
        # reads f_zero = f_one = exp(-eps^2) = 0, with no warning
        for eps in (1e307, 5e307, 1e308):
            cfg_path = self.write_config(tmp_path, {"protocol": "rotate",
                                                    "encoding": {"alpha": 0.5,
                                                                 "epsilons": [eps]}})
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["run", cfg_path, "--output", str(tmp_path)]) == 0
            text = (tmp_path / "rotate.csv").read_text()
            assert text.splitlines()[1] == f"{eps:g},{eps:g},0,0,0"

    def csv_under_blas_threads(self, tmp_path, raw: dict, **env_extra) -> list:
        """CSV bytes of `catbell run` on raw with 1 and with 4 BLAS threads."""
        cfg_path = self.write_config(tmp_path, raw)
        outputs = []
        for threads in (1, 4):
            outdir = tmp_path / f"threads{threads}"
            env = child_env(**env_extra)
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

    @pytest.mark.parametrize("alpha,ve_variant", [
        pytest.param(3.0, "ideal", id="3.0"),
        pytest.param(4.0, "ideal", id="4.0"),
        pytest.param(6.0, "ideal", id="6.0"),
        pytest.param(8.0, "ideal", id="8.0"),
        pytest.param(8.0, "literal", id="8.0-literal")])
    def test_full_pipeline_identical_across_blas_threads(self, tmp_path, alpha,
                                                         ve_variant):
        # the displacement build, whose kick is a real dgemm on the float
        # view of the factor; alpha 6 and 8 need the raised size cap
        one, four = self.csv_under_blas_threads(tmp_path, {
            "protocol": "full-pipeline",
            "encoding": {"alpha": alpha},
            "noise": {"delta": 0.1},
            "gates": {"ve_variant": ve_variant, "ev_variant": "displacement"},
        }, CATBELL_MAX_DIM="65536")
        assert b"electronic_fidelity" in one
        assert one == four

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_bell_scan_identical_across_blas_threads(self, tmp_path, mode):
        one, four = self.csv_under_blas_threads(tmp_path, {
            "protocol": "bell-scan", "bell": {"mode": mode}, "seed": 11})
        assert one.startswith(b"delta,B")
        assert one == four

    def test_sampled_full_pipeline_identical_across_blas_threads(self, tmp_path):
        one, four = self.csv_under_blas_threads(tmp_path, {
            "protocol": "full-pipeline",
            "encoding": {"alpha": 4.0},
            "noise": {"delta": 0.3},
            "bell": {"mode": "sampled"},
            "gates": {"ev_variant": "displacement"},
            "seed": 5,
        })
        assert b"b_std_error" in one
        assert one == four

    def test_output_matrix_identical_across_blas_threads(self, tmp_path):
        # the alpha 2 part of the comparison set that tests/output_matrix.py
        # writes: every protocol, full-pipeline over both gate builds of
        # each exchange, exact and sampled, at delta 0, 0.1 and 1, the
        # jump-ensemble file and the float.hex files of full-pipeline
        # results and of the other protocols' rows and results
        script = Path(__file__).resolve().parent / "output_matrix.py"
        outputs = []
        for threads in (1, 4):
            outdir = tmp_path / f"threads{threads}"
            env = child_env()
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS"):
                env[var] = str(threads)
            proc = subprocess.run(
                [sys.executable, str(script), str(outdir), "--alpha", "2"],
                env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outputs.append({p.name: p.read_bytes() for p in outdir.iterdir()})
        one, four = outputs
        assert len(one) == len(PROTOCOLS) - 1 + 2 * 2 * 2 * 3 + 3
        assert "jump-ensemble.txt" in one
        hexes = one["full-pipeline-results.txt"].decode().splitlines()
        assert len(hexes) == 2 * 2 * 2 * 3
        assert all(line.startswith("full-pipeline-a2-") and "b_value=0x" in line
                   for line in hexes)
        others = one["protocol-results.txt"].decode().splitlines()
        assert len(others) == len(PROTOCOLS) - 1
        assert [line.split(" ", 1)[0] for line in others] == \
            [f"{p}-a2" for p in PROTOCOLS if p != "full-pipeline"]
        assert all(" row0:" in line and " results:" in line and "=0x" in line
                   for line in others)
        assert one == four

    def test_output_matrix_classifies_moved_cells(self, tmp_path):
        # the --against verdict on synthetic output pairs: a residue move
        # passes, a physical move fails unless its protocol is allowed, and
        # a new or a missing file fails
        from output_matrix import _move, compare, summary, verdict
        base = {
            # as cli.render_csv writes it, with no quotes: the comma inside
            # the brackets splits no cell
            "swap-report-a2.csv": ("gate,input,target,fidelity,unitarity\n"
                                   "u_swap[ideal,ideal],0L|0e,0L|0e,1,2.1e-15\n"),
            "full-pipeline-results.txt": (
                "full-pipeline-a2-literal-ideal-exact-d0 b_value=0x0.0p+0 "
                "e_ab=0x1.0p-1\n"),
            "protocol-results.txt": (
                "swap-report-a2 row0:gate=u_swap[ideal,ideal],input=0L|0e,"
                "unitarity=0x1.0p-50 results:u_ve[ideal].min_fidelity=0x1.0p+0,"
                "u_ve[literal].min_fidelity=0x0.0p+0\n"),
        }

        def outputs(name: str, **edits: str) -> Path:
            where = tmp_path / name
            where.mkdir()
            for file, text in dict(base, **edits).items():
                if text is not None:
                    (where / file).write_text(text)
            return where

        before = outputs("before")
        assert compare(before, outputs("same")) == ([], [])
        residue = outputs(
            "residue",
            **{"swap-report-a2.csv": base["swap-report-a2.csv"].replace(
                "2.1e-15", "2.3e-15"),
               "full-pipeline-results.txt": base["full-pipeline-results.txt"]
               .replace("b_value=0x0.0p+0", "b_value=-0x1.0p-60"),
               "protocol-results.txt": base["protocol-results.txt"].replace(
                   "0x1.0p-50", "0x1.0p-49")})
        moved, unmatched = compare(before, residue)
        assert [m["column"] for m in moved] == ["b_value", "unitarity",
                                                "unitarity"]
        assert {m["class"] for m in moved} == {"residue"} and unmatched == []
        assert verdict(moved, unmatched) == []
        physical = outputs(
            "physical",
            **{"full-pipeline-results.txt": base["full-pipeline-results.txt"]
               .replace("e_ab=0x1.0p-1", "e_ab=0x1.0000000000001p-1"),
               "protocol-results.txt": base["protocol-results.txt"].replace(
                   "literal].min_fidelity=0x0.0p+0",
                   "literal].min_fidelity=0x1.0p-52")})
        moved, unmatched = compare(before, physical)
        assert [(m["protocol"], m["column"], m["class"]) for m in moved] == [
            ("full-pipeline", "e_ab", "physical"),
            ("swap-report", "u_ve[literal].min_fidelity", "physical")]
        assert len(verdict(moved, unmatched)) == 2
        assert len(verdict(moved, unmatched, ("full-pipeline",))) == 1
        assert verdict(moved, unmatched, ("full-pipeline", "swap-report")) == []
        # a CSV cell is a .12g decimal, which is also valid hex: 0.99999999997
        # read as hex would move by 2 * 16^-11, not by 2e-11
        decimal = outputs(
            "decimal",
            **{"swap-report-a2.csv": base["swap-report-a2.csv"].replace(
                "0L|0e,1,", "0L|0e,0.99999999997,")})
        moved, _ = compare(outputs("decimal-before", **{
            "swap-report-a2.csv": base["swap-report-a2.csv"].replace(
                "0L|0e,1,", "0L|0e,0.99999999999,")}), decimal)
        assert [(m["column"], m["class"]) for m in moved] == [("fidelity",
                                                               "physical")]
        assert _move(moved[0]) == pytest.approx(2e-11, rel=1e-4)
        assert summary(moved)[-1].endswith("| 1 | 2e-11 |")
        for name, edits in (("missing", {"protocol-results.txt": None}),
                            ("new", {"jump-ensemble.txt": "alpha=2 mode=a "
                                     "seed=1 flips=3 jumps=4 rho4=00\n"})):
            moved, unmatched = compare(before, outputs(name, **edits))
            assert moved == [] and verdict(moved, unmatched) == unmatched
            assert unmatched[0].startswith(f"{name} file ")

    def test_output_matrix_refuses_a_used_outdir(self, tmp_path, capsys):
        # a CSV left by an earlier run, here of a retired config, would
        # read as unchanged in a diff of two output directories
        from output_matrix import main as write_matrix
        (tmp_path / "bell-scan-a2-rotated.csv").write_text("")
        with pytest.raises(SystemExit) as exit_info:
            write_matrix([str(tmp_path), "--alpha", "2"])
        assert exit_info.value.code == 2
        assert "is not an empty directory" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["bell-scan-a2-rotated.csv"]

    def test_warm_full_pipeline_writes_the_cold_bytes(self, tmp_path):
        # the alpha 2 full-pipeline configs of the comparison set, run once
        # with the memos kept across configs and once with them cleared
        # before each config
        from output_matrix import configs
        matrix = {name: raw for name, raw in configs((2.0,)).items()
                  if raw["protocol"] == "full-pipeline"}
        outputs = []
        for cold in (False, True):
            outdir = tmp_path / ("cold" if cold else "warm")
            for name, raw in matrix.items():
                if cold:
                    _coherent_stages.cache_clear()
                    logical_basis.cache_clear()
                    _setting_vectors.cache_clear()
                execute(normalize_config(dict(raw, output={"path": name})),
                        str(outdir))
            outputs.append({p.name: p.read_bytes() for p in outdir.iterdir()})
        warm, cold = outputs
        assert len(warm) == 2 * 2 * 2 * 3
        assert warm == cold

    def test_swap_report_identical_across_blas_threads(self, tmp_path):
        # alpha 8 (cutoff 122): the unitarity column takes U†U of 244 x 244
        # pair matrices
        one, four = self.csv_under_blas_threads(tmp_path, {
            "protocol": "swap-report", "encoding": {"alpha": 8.0}})
        assert b"unitarity" in one
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
            env=child_env(), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "bell-scan.csv").exists()

    def test_run_path_loads_no_scipy(self, tmp_path):
        # a fresh interpreter imports the command line and runs every
        # protocol (full-pipeline with both gate builds): numpy is the one
        # runtime dependency, and scipy serves only the oracles and tests;
        # the import loads no numpy.random, which no run draws from
        script = textwrap.dedent("""\
            import json, sys
            from catbell import cli
            from catbell.params import EV_VARIANTS

            def scipy_modules():
                return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

            loaded = {"import": scipy_modules()
                                + sorted({"numpy.random"} & set(sys.modules))}
            configs = [{"protocol": p} for p in cli.RUNNERS if p != "full-pipeline"]
            configs += [{"protocol": "full-pipeline", "gates": {"ev_variant": ev},
                         "output": {"path": "full-pipeline-" + ev}}
                        for ev in EV_VARIANTS]
            codes = []
            for i, cfg in enumerate(configs):
                path = f"{sys.argv[1]}/config{i}.json"
                with open(path, "w") as handle:
                    json.dump(cfg, handle)
                codes.append(cli.main(["run", path, "--output", sys.argv[1]]))
            loaded["runs"] = scipy_modules()
            print(json.dumps({"codes": codes, "loaded": loaded}))
            """)
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                              env=child_env(), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.splitlines()[-1])
        runs = len(RUNNERS) - 1 + len(EV_VARIANTS)
        assert report["codes"] == [0] * runs
        assert report["loaded"] == {"import": [], "runs": []}
        assert len(list(tmp_path.glob("*.csv"))) == runs

    # the catbell modules that importing the command line loads, none of
    # which imports numpy, and those that one run of each protocol adds
    CLI_MODULES = {"catbell", "catbell.cli", "catbell.pipeline",
                   "catbell.params", "catbell.errors"}
    # no run loads an array module: prepare and rotate run in coherent
    # states, swap-report in gates over them, heat-sweep in params,
    # bell-scan reads its mixtures' tensors in bell, and full-pipeline runs
    # coherent states and bell, all in Python floats; a sampled readout
    # adds its sampler
    FOOTPRINTS = {
        "prepare": ({"protocol": "prepare"}, {"coherent"}),
        "rotate": ({"protocol": "rotate"}, {"coherent"}),
        "heat-sweep": ({"protocol": "heat-sweep"}, set()),
        "swap-report": ({"protocol": "swap-report"}, {"gates", "coherent"}),
        "bell-scan-exact": ({"protocol": "bell-scan"}, {"bell"}),
        "bell-scan-sampled": (
            {"protocol": "bell-scan", "bell": {"mode": "sampled"}}, {"bell", "sampler"}),
        "full-pipeline-given-delta": (
            {"protocol": "full-pipeline", "noise": {"delta": 0.1}},
            {"bell", "coherent"}),
        "full-pipeline-given-delta-sampled": (
            {"protocol": "full-pipeline", "noise": {"delta": 0.1},
             "bell": {"mode": "sampled"}},
            {"bell", "coherent", "sampler"}),
        "full-pipeline-null-delta": (
            {"protocol": "full-pipeline"}, {"bell", "coherent"}),
    }

    @pytest.mark.parametrize("raw,added", FOOTPRINTS.values(), ids=FOOTPRINTS)
    def test_run_loads_only_its_protocols_modules(self, tmp_path, raw, added):
        # a fresh interpreter, as one `catbell run`: the import loads the
        # modules every protocol shares, the run only what its runner calls
        script = textwrap.dedent("""\
            import json, sys

            def catbell_modules():
                return sorted(m for m in sys.modules if m.split(".")[0] == "catbell")

            from catbell import cli
            loaded = {"import": catbell_modules()}
            code = cli.main(["run", sys.argv[1], "--output", sys.argv[2]])
            loaded["run"] = catbell_modules()
            print(json.dumps({"code": code, "loaded": loaded}))
            """)
        cfg_path = self.write_config(tmp_path, raw)
        proc = subprocess.run(
            [sys.executable, "-c", script, cfg_path, str(tmp_path)],
            env=child_env(), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.splitlines()[-1])
        assert report["code"] == 0
        assert set(report["loaded"]["import"]) == self.CLI_MODULES
        assert set(report["loaded"]["run"]) == (
            self.CLI_MODULES | {f"catbell.{name}" for name in added})


class TestSizeCapVariable:
    """A bad or tiny CATBELL_MAX_DIM is a capacity error of the run that
    sizes Fock levels, heat-sweep's, never of `import catbell`; every other
    protocol runs in closed form and sizes none."""

    @pytest.mark.parametrize("cap", ["abc", "", "1", "2", "3"])
    def test_only_runs_are_refused(self, tmp_path, cap):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"protocol": CAPPED}))
        env = child_env(CATBELL_MAX_DIM=cap)
        commands = [["version"], ["describe", CAPPED],
                    ["run", str(cfg_path), "--output", str(tmp_path)]]
        procs = [subprocess.run([sys.executable, "-m", "catbell.cli", *cmd],
                                env=env, capture_output=True, text=True)
                 for cmd in commands]
        assert [p.returncode for p in procs] == [0, 0, 3], procs[-1].stderr
        assert procs[0].stdout.startswith("catbell ")
        assert all("Traceback" not in p.stderr for p in procs)
        assert re.match(r"capacity error: CATBELL_MAX_DIM must be|capacity "
                        r"error: total dimension \d+ exceeds the cap [23];",
                        procs[-1].stderr)
        assert not (tmp_path / f"{CAPPED}.csv").exists()

    @pytest.mark.parametrize("protocol", [CAPPED])
    def test_warm_run_refuses_a_lowered_cap(self, tmp_path, monkeypatch, capsys,
                                            protocol):
        # the memos (encoding, code basis, cat populations) are warm, and
        # the run still sizes its registers against the cap in force
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"protocol": protocol}))
        argv = ["run", str(cfg_path), "--output", str(tmp_path)]
        monkeypatch.delenv("CATBELL_MAX_DIM", raising=False)
        assert main(argv) == 0
        monkeypatch.setenv("CATBELL_MAX_DIM", "3")
        capsys.readouterr()
        assert main(argv) == 3
        assert "exceeds the cap 3" in capsys.readouterr().err

    @pytest.mark.parametrize("protocol", CLOSED_FORM)
    def test_closed_form_runs_read_no_cap(self, tmp_path, monkeypatch, protocol):
        # no Fock vector: a cap that is no integer, or that no layout
        # meets, leaves the bytes of the run as they are
        cfg_path = str(tmp_path / "config.json")
        Path(cfg_path).write_text(json.dumps({"protocol": protocol}))
        monkeypatch.delenv("CATBELL_MAX_DIM", raising=False)
        assert main(["run", cfg_path, "--output", str(tmp_path / "a")]) == 0
        for cap in ("abc", "3"):
            monkeypatch.setenv("CATBELL_MAX_DIM", cap)
            out = tmp_path / cap
            assert main(["run", cfg_path, "--output", str(out)]) == 0
            assert ((out / f"{protocol}.csv").read_bytes()
                    == (tmp_path / "a" / f"{protocol}.csv").read_bytes())

    @pytest.mark.parametrize("cap", ["abc", "3", None])
    def test_full_pipeline_reads_no_cap(self, tmp_path, monkeypatch, cap):
        # no register, no Fock vector: any cap, even one that is no
        # integer, leaves a cold and a warm run's bytes as they are
        cfg_path = str(tmp_path / "config.json")
        Path(cfg_path).write_text(json.dumps({
            "protocol": "full-pipeline", "encoding": {"alpha": 6.0}}))
        monkeypatch.delenv("CATBELL_MAX_DIM", raising=False)
        _coherent_stages.cache_clear()
        assert main(["run", cfg_path, "--output", str(tmp_path / "a")]) == 0
        if cap is not None:
            monkeypatch.setenv("CATBELL_MAX_DIM", cap)
        for cold in (False, True):
            if cold:
                _coherent_stages.cache_clear()
            out = tmp_path / f"b-{cold}"
            assert main(["run", cfg_path, "--output", str(out)]) == 0
            assert ((out / "full-pipeline.csv").read_bytes()
                    == (tmp_path / "a" / "full-pipeline.csv").read_bytes())


class TestPipelineMemo:
    """run_pipeline memoizes its coherent stages, both exchanges included,
    per (encoding, ve_variant, ev_variant)."""

    @pytest.mark.parametrize("alpha,beta", [(2.0, 2.0), (2.0, 3.0)])
    def test_warm_sweep_equals_cold_calls(self, alpha, beta):
        enc = EncodingParams.for_amplitudes(alpha, beta)
        deltas = (0.0, 0.15, 1.0)

        def sweep(cold: bool) -> list:
            out = []
            for delta in deltas:
                for ve in VE_VARIANTS:
                    for ev in EV_VARIANTS:
                        for method in ("exact", "sampled"):
                            if cold:
                                _coherent_stages.cache_clear()
                                logical_basis.cache_clear()
                                _setting_vectors.cache_clear()
                            out.append(repr(run_pipeline(
                                enc, delta, DEFAULT_ANGLES, method, 512, 3,
                                ve, ev)))
            return out

        _coherent_stages.cache_clear()
        warm = sweep(cold=False)
        info = _coherent_stages.cache_info()
        builds = len(VE_VARIANTS) * len(EV_VARIANTS)
        assert info.misses == builds
        assert info.hits == len(warm) - builds
        assert warm == sweep(cold=True)

    def test_only_a_cold_call_builds_its_gates(self, monkeypatch):
        # the memo ends after both exchanges: a cold call builds one mode's
        # algebra, or two when the modes differ, and runs mode b's exchange
        # once and mode a's on both branches; a warm call runs neither.
        # The pipeline imports the engine when it builds, so the patch on
        # catbell.coherent is the one it reads
        import catbell.coherent
        modes, exchanges = [], []
        mode_cls, exchange_fn = catbell.coherent.Mode, catbell.coherent.exchange

        def mode(*args):
            modes.append(args[0])
            return mode_cls(*args)

        def exchange(mode, *args):
            exchanges.append(mode.amplitude)
            return exchange_fn(mode, *args)

        monkeypatch.setattr(catbell.coherent, "Mode", mode)
        monkeypatch.setattr(catbell.coherent, "exchange", exchange)
        for beta, built in ((2.0, [2.0]), (3.0, [2.0, 3.0])):
            enc = EncodingParams.for_amplitudes(2.0, beta)
            for ev in EV_VARIANTS:
                _coherent_stages.cache_clear()
                cold = run_pipeline(enc, 0.1, DEFAULT_ANGLES, ev_variant=ev)
                assert modes == built
                assert exchanges == [beta, 2.0, 2.0]
                modes.clear()
                exchanges.clear()
                for delta in (0.0, 0.7, 0.1):
                    warm = run_pipeline(enc, delta, DEFAULT_ANGLES,
                                        ev_variant=ev)
                assert modes == exchanges == []
                assert repr(warm) == repr(cold)

    def test_warm_ideal_op_builds_no_code_basis(self, monkeypatch):
        # the stages run in coherent states: neither a cold op nor a warm
        # one, of either kick build, builds a Fock cat or a code basis
        enc = EncodingParams.for_amplitudes(3.0)
        want = {ev: run_pipeline(enc, 0.1, DEFAULT_ANGLES, ev_variant=ev)
                for ev in EV_VARIANTS}

        def refuse(*args):
            raise AssertionError("Fock space built")

        monkeypatch.setattr(catbell.bosonic, "cat", refuse)
        monkeypatch.setattr(catbell.encoding, "logical_basis", refuse)
        for ev in EV_VARIANTS:
            assert run_pipeline(enc, 0.1, DEFAULT_ANGLES, ev_variant=ev) == want[ev]
            _coherent_stages.cache_clear()
            assert run_pipeline(enc, 0.1, DEFAULT_ANGLES, ev_variant=ev) == want[ev]

    def test_cached_arrays_are_read_only(self):
        enc = EncodingParams.for_amplitudes(2.0)
        _, _, keep, flip = _coherent_stages(enc, "ideal", "ideal")
        code_a = logical_basis("a", enc)
        assert logical_basis("a", enc) is code_a
        with pytest.raises(dataclasses.FrozenInstanceError):
            code_a.zero = code_a.one
        axes = _setting_vectors(DEFAULT_ANGLES)
        assert isinstance(axes, tuple)
        assert all(isinstance(row, tuple) for row in axes)
        for tensor in (keep, flip):
            assert isinstance(tensor, tuple) and len(tensor) == 4
            assert all(isinstance(row, tuple) and len(row) == 4
                       and all(type(v) is float for v in row) for row in tensor)
            with pytest.raises(TypeError, match="does not support item assignment"):
                tensor[0] = 1.0
        for cached in (code_a.zero.amps, code_a.one.amps):
            with pytest.raises(ValueError, match="read-only"):
                cached[0] = 1.0

    def test_results_are_the_callers(self):
        # a call hands out only floats, in a dict of its own, and leaves the
        # cached tensors as they were, even at delta 0 and 1, where one
        # branch drops out of the mixture
        enc = EncodingParams.for_amplitudes(2.0)
        _coherent_stages.cache_clear()
        results = run_pipeline(enc, 0.15, DEFAULT_ANGLES)
        want = dict(results)
        cached = _coherent_stages(enc, "ideal", "ideal")
        copied = repr(cached)
        assert all(type(v) is float for v in results.values())
        results["preparation_fidelity"] = -1.0
        for delta in (0.0, 1.0, 0.15):
            for method in CHSH_METHODS:
                run_pipeline(enc, delta, DEFAULT_ANGLES, method, 64, 1)
        assert run_pipeline(enc, 0.15, DEFAULT_ANGLES) == want
        assert _coherent_stages.cache_info().misses == 1
        assert _coherent_stages(enc, "ideal", "ideal") is cached
        assert repr(cached) == copied
        assert results["preparation_fidelity"] == -1.0


class TestHeatSweepMemo:
    """run_heat_sweep memoizes the even cat's populations per
    encoding and reads each duration off the channel's law alone."""

    @pytest.mark.parametrize("alpha", [2.0, 3.0, 4.0, 6.0])
    def test_warm_calls_equal_cold_ones(self, alpha, monkeypatch):
        monkeypatch.setenv("CATBELL_MAX_DIM", "65536")
        cfgs = [cfg_for("heat-sweep", encoding={"alpha": alpha},
                        noise={"gamma": gamma, "durations": [0.0, 0.5, 2.0],
                               "steps": steps})
                for gamma in (1e-3, 0.02, 3.0) for steps in (None, 1, 100)]

        def sweep(cold: bool) -> list:
            out = []
            for cfg in cfgs:
                if cold:
                    _cat_populations.cache_clear()
                rows, results, _ = run_heat_sweep(cfg)
                out.append(render_csv(rows) + repr(results))
            return out

        _cat_populations.cache_clear()
        warm = sweep(cold=False)
        info = _cat_populations.cache_info()
        assert (info.misses, info.hits) == (1, len(cfgs) - 1)
        assert warm == sweep(cold=True)

    def test_hit_still_holds_the_size_cap(self, monkeypatch):
        cfg = cfg_for("heat-sweep", encoding={"alpha": 2.0})
        _cat_populations.cache_clear()
        run_heat_sweep(cfg)
        monkeypatch.setenv("CATBELL_MAX_DIM", "3")
        with pytest.raises(CapacityError, match="exceeds the cap 3"):
            run_heat_sweep(cfg)
        assert _cat_populations.cache_info().hits == 1

    def test_cached_arrays_are_read_only(self):
        populations = _cat_populations(EncodingParams.for_amplitudes(2.0))
        assert sum(populations) == pytest.approx(1.0, abs=1e-15)
        assert populations.format == "d" and populations.nbytes == 8 * 26
        with pytest.raises(TypeError, match="read-only"):
            populations[0] = 1.0

    def test_cutoff_at_the_cap_allocates_no_square(self):
        # the law reads the cat's d populations: at the default cap's
        # largest one-mode cutoffs the sweep allocates O(d), not the d x d
        # rho (4.1 GB at d = 16000) of a Fock-space propagation
        cfg = cfg_for("heat-sweep", encoding={"alpha": 2.0, "cutoff": 16000},
                      noise={"durations": [0.5, 1.0]})
        _cat_populations.cache_clear()
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            rows, _, _ = run_heat_sweep(cfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
            _cat_populations.cache_clear()
        assert peak <= 16 * 2 ** 20
        assert rows[-1]["n_mean"] == pytest.approx(4.0 * np.tanh(4.0) + 1e-3,
                                                   abs=1e-12)


class TestDecompositionCache:
    """No run decomposes a band: heat-sweep reads the channel's law on the
    cat's populations, and the pipeline's kick is D(i eps) on coherent
    states."""

    @pytest.fixture
    def decompositions(self, monkeypatch) -> list:
        calls = []

        def counted(*args):
            calls.append(args[0].shape)
            return catbell.hilbert.band_eigh(*args)
        monkeypatch.setattr(catbell.noise, "band_eigh", counted)
        return calls

    def test_warm_heat_sweep_decomposes_nothing(self, decompositions):
        _cat_populations.cache_clear()
        cfg = cfg_for("heat-sweep", encoding={"alpha": 3.0},
                      noise={"durations": [0.25, 0.5, 1.0, 2.0], "steps": 50})
        first = run_heat_sweep(cfg)
        assert run_heat_sweep(cfg) == first
        assert decompositions == []

    def test_warm_pipeline_decomposes_nothing_and_builds_no_gate(
            self, decompositions):
        # the kick is D(i eps) on coherent states: no run, cold or warm,
        # decomposes a band
        cfg = cfg_for("full-pipeline", gates={"ev_variant": "displacement"})
        _coherent_stages.cache_clear()
        first = run_full_pipeline(cfg)
        assert decompositions == []
        assert run_full_pipeline(cfg) == first
        assert decompositions == []


class TestCommandLine:
    """main on command lines of USAGE's grammar and on others: each returns
    or raises SystemExit with its code and writes one stream."""

    def outcome(self, argv: list, capsys) -> tuple:
        """(exit code, stdout, stderr) of main on argv; a SystemExit code
        is ("exit", code)."""
        try:
            code = main(argv)
        except SystemExit as stop:
            code = ("exit", stop.code)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_each_command_line_ends_in_its_code_on_one_stream(self, tmp_path,
                                                              capsys):
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"protocol": "prepare"}), encoding="utf-8")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"protocol": "prepare", "extra": 1}),
                       encoding="utf-8")
        good, bad, out = str(good), str(bad), str(tmp_path)
        usage, fail = ("exit", 0), ("exit", 2)
        table = [  # argv, exit code, the stream written
            (["run", good, "--output", out], 0, "out"),
            (["describe", "full-pipeline"], 0, "out"),
            (["version"], 0, "out"),
            (["run", good, "--output", out, "--seed", "5"], 0, "out"),
            (["run", bad, "--output", out], 2, "err"),
            ([], fail, "err"),
            (["frobnicate"], fail, "err"),
            (["run"], fail, "err"),
            (["run", good, "--seed", "x"], fail, "err"),
            (["describe"], fail, "err"),
            (["--help"], usage, "out"),
            (["run", "--help"], usage, "out"),
            (["describe", "anneal"], 2, "err"),
            (["run", good, "--output", out], 0, "out"),
            # the --opt=value form, and options before CONFIG
            (["run", good, f"--output={tmp_path / 'eq'}"], 0, "out"),
            (["run", "--output", str(tmp_path / "first"), "--seed=3", good],
             0, "out"),
            # the last repeat wins (test_the_last_seed_wins), and each is
            # read by int()
            (["run", good, "--output", out, "--seed", "3", "--seed", "5"],
             0, "out"),
            (["run", good, "--output", out, "--seed", "x", "--seed", "5"],
             fail, "err"),
            # a seed that int() reads is then checked as the config's seed
            (["run", good, "--output", out, "--seed", "-1"], 2, "err"),
            (["run", good, "--output", out, "--seed=1.5"], fail, "err"),
            (["run", good, "--output"], fail, "err"),
            (["run", good, "--output", "--seed", "5"], fail, "err"),
            (["--output", out, "run", good], fail, "err"),
            (["run", good, "--frobnicate"], fail, "err"),
            (["run", good, "-x"], fail, "err"),
            # no abbreviation, no "--" and no option of another command
            (["run", good, "--out", out], fail, "err"),
            (["run", "--", good], fail, "err"),
            (["describe", "rotate", "--seed", "5"], fail, "err"),
            (["run", good, good], fail, "err"),
            (["describe", "rotate", "prepare"], fail, "err"),
            (["version", "extra"], fail, "err"),
            (["-h"], usage, "out"),
            (["run", "-h"], usage, "out"),
            (["run", good, "--seed", "5", "-h"], usage, "out"),
            (["describe", "-h"], usage, "out"),
            (["version", "--help"], usage, "out"),
        ]
        got = [self.outcome(argv, capsys) for argv, _, _ in table]
        for (argv, code, stream), (got_code, stdout, stderr) in zip(table, got):
            assert got_code == code, argv
            assert (stdout, stderr)[stream == "out"] == "", argv
            assert (stdout, stderr)[stream == "err"] != "", argv
            if code == usage:
                assert stdout == USAGE + "\n", argv
            if code == fail:
                assert stderr.startswith(USAGE + "\ncatbell: error: "), argv
        assert [r[0] for r in got[:5]] == [0, 0, 0, 0, 2]
        assert got[5][0] == ("exit", 2)
        assert got[13] == got[0]
        assert (tmp_path / "eq" / "prepare.csv").exists()
        assert (tmp_path / "first" / "prepare.csv").exists()

    @pytest.mark.parametrize("argv,message,more", [
        (["run", "c.json", "--seed", "x" * 10 ** 5], "invalid --seed value 'x",
         10 ** 5 + 2),
        (["describe", "x" * 10 ** 5], "unknown protocol 'x", 10 ** 5 + 2),
        (["x" * 10 ** 5], "unknown command 'x", 10 ** 5 + 2),
        (["run", "c.json", "-" * 2 + "x" * 10 ** 5], "unknown option --x",
         10 ** 5 + 2),
        (["version", "x" * 10 ** 5], "unexpected argument 'x", 10 ** 5 + 2),
    ], ids=["seed", "protocol", "command", "option", "argument"])
    def test_a_long_token_is_echoed_cut(self, capsys, argv, message, more):
        # uncut, each echoed the whole 100 kB token
        code, stdout, stderr = self.outcome(argv, capsys)
        assert code in (2, ("exit", 2)) and stdout == ""
        line = stderr.splitlines()[-1]
        assert message in line
        assert f"x... ({more - ECHO_LIMIT} more characters)" in line
        assert len(stderr) < len(USAGE) + 2 * ECHO_LIMIT

    @pytest.mark.parametrize("bad", ["a\0b", "\ud800"],
                             ids=["nul", "lone-surrogate"])
    @pytest.mark.parametrize("slot", ["CONFIG", "--output"])
    def test_an_unusable_path_is_a_config_error(self, tmp_path, capsys, slot,
                                                bad):
        # open() and os.open() raised ValueError or UnicodeEncodeError
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"protocol": "prepare"}), encoding="utf-8")
        argv = (["run", bad] if slot == "CONFIG"
                else ["run", str(good), "--output", str(tmp_path / bad)])
        assert self.outcome(argv, capsys) == (
            2, "", f"config error: {slot} must be "
                   + ("free of NUL characters" if bad == "a\0b"
                      else "encodable as a file name")
                   + f", got {argv[-1]!r}\n")
        assert list(tmp_path.iterdir()) == [good]

    @pytest.mark.parametrize("slot", ["CONFIG", "--output"])
    def test_a_long_path_is_echoed_cut(self, tmp_path, capsys, slot):
        # the OSError repeats the path, and the write error names it too:
        # uncut, a 10^5-character CONFIG wrote 100,068 bytes to stderr and a
        # 10^5-character --output DIR 200,131
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"protocol": "prepare"}), encoding="utf-8")
        long = "x" * 10 ** 5
        argv = (["run", long] if slot == "CONFIG"
                else ["run", str(good), "--output", str(tmp_path / long)])
        code, stdout, stderr = self.outcome(argv, capsys)
        assert (code, stdout) == (2, "") and stderr.count("\n") == 1
        assert stderr.startswith("config error: cannot read config: "
                                 if slot == "CONFIG" else
                                 f"config error: cannot write output {tmp_path}")
        assert "x... (" in stderr and " more characters)" in stderr
        assert len(stderr) < 3 * ECHO_LIMIT
        assert list(tmp_path.iterdir()) == [good]

    @pytest.mark.parametrize("argv", [["describe", "full-pipeline"],
                                      ["--help"], ["version"]])
    def test_a_closed_stdout_ends_quietly(self, argv):
        # as in `catbell describe full-pipeline | head -1`, with the reader
        # gone before the first write
        proc = subprocess.Popen([sys.executable, "-m", "catbell.cli", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=child_env())
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 141
        assert stderr == b""

    def test_the_last_seed_wins(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "protocol": "bell-scan",
            "bell": {"mode": "sampled", "shots": 512, "deltas": [0.1]},
        }), encoding="utf-8")
        outputs = []
        for name, seeds in (("last", ["--seed", "1", "--seed=7"]),
                            ("seven", ["--seed", "7"]), ("one", ["--seed", "1"])):
            assert main(["run", str(cfg), "--output", str(tmp_path / name),
                         *seeds]) == 0
            outputs.append((tmp_path / name / "bell-scan.csv").read_bytes())
        last, seven, one = outputs
        assert last == seven != one

    def test_readme_usage_block_is_the_usage(self):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        blocks = re.findall(r"^```\n(usage: catbell .*?)^```$",
                            readme.read_text(encoding="utf-8"),
                            flags=re.MULTILINE | re.DOTALL)
        assert len(blocks) == 1
        assert blocks[0].splitlines() == USAGE.splitlines()


# ---------------------------------------------------------------- fuzzer ---

SECTIONS = tuple(dict.fromkeys(f.section for f in FIELDS if f.section))


def in_range(field) -> st.SearchStrategy:
    """Accepted values of one field, at sizes that run in milliseconds:
    numbers on a grid of 1000 steps up to 4 above their lower bound,
    integers within 100 (10**4 where the field has an upper bound, as shots
    and seed do), lists of 1-3.  The bounds themselves are boundary()'s."""
    if field.kind == "choice":
        out = st.sampled_from(field.choices)
    elif field.kind == "bool":  # noise.constant_rate, which admits only false
        out = st.just(False)
    elif field.kind == "string":
        out = st.sampled_from(["run", "sub/run", "run.csv", "run.json"])
    else:
        lo = next((b for b in (field.ge, field.gt) if b is not None), -4.0)
        if field.kind == "integer":
            hi = lo + 100 if field.le is None else min(field.le, lo + 10 ** 4)
            out = st.integers(lo, hi)
        else:
            hi = next((b for b in (field.le, field.lt) if b is not None), lo + 4.0)
            out = st.integers(1, 999).map(lambda k: lo + (hi - lo) * k / 1000)
        if field.kind == "numbers":
            out = st.lists(out, min_size=1, max_size=3)
    return st.none() | out if field.optional else out


def boundary(field) -> list:
    """The accepted values at the bounds of a numeric field: an inclusive
    bound itself, the next value inside an exclusive one."""
    integer = field.kind == "integer"
    out = [b for b in (field.ge, field.le) if b is not None]
    if field.gt is not None:
        out.append(field.gt + 1 if integer else nextafter(field.gt, inf))
    if field.lt is not None:
        out.append(field.lt - 1 if integer else nextafter(field.lt, -inf))
    return [[v] for v in out] if field.kind == "numbers" else out


def put(raw: dict, field, value) -> None:
    if field.section:
        raw.setdefault(field.section, {})[field.key] = value
    else:
        raw[field.key] = value


@st.composite
def raw_configs(draw) -> dict:
    """A raw config drawn from FIELDS: each field omitted (unless it is
    required) or in range, then at most one field on a boundary and at most
    one fault: a wrong-typed or out-of-range value, an unknown field or
    section, a missing section or a section that is not an object."""
    raw: dict = {}
    for field in FIELDS:
        required = field.default is None and not field.optional
        if required or draw(st.integers(0, 3)):
            put(raw, field, draw(in_range(field)))
    edge = draw(st.sampled_from([None] + [f for f in FIELDS if boundary(f)]))
    if edge is not None:
        put(raw, edge, draw(st.sampled_from(boundary(edge))))
    fault = draw(st.sampled_from([None] * 5 + [
        "value", "unknown-field", "unknown-section", "missing-section",
        "non-object-section"]))
    section = draw(st.sampled_from(SECTIONS))
    if fault == "value":
        field = draw(st.sampled_from(FIELDS))
        put(raw, field, draw(st.sampled_from(bad_values(field))))
    elif fault == "unknown-field":
        raw.setdefault(section, {})["zz_unknown"] = 1
    elif fault == "unknown-section":
        raw["zz_section"] = {}
    elif fault == "missing-section":
        raw.pop(section, None)
    elif fault == "non-object-section":
        raw[section] = draw(st.sampled_from([[], 3, "x", None, True]))
    return raw


def nonfinite_cells(path: Path) -> list:
    """The numbers of a CSV or JSON output that are NaN or infinite."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        def numbers(node):
            if isinstance(node, dict):
                node = list(node.values())
            if isinstance(node, list):
                return [x for item in node for x in numbers(item)]
            return [node] if isinstance(node, float) else []
        cells = numbers(json.loads(text))
    else:
        cells = []
        for cell in re.split(r"[,\n]", text):
            try:
                cells.append(float(cell))
            except ValueError:
                pass
    return [c for c in cells if not np.isfinite(c)]


def physics_violations(cfg: dict, rows: list, results: dict) -> list:
    """The laws that a runner's returned rows and results break, each at the
    tolerance Tier-1 already gives it, or 1e-12 where none is stated:
    correlators |E| <= 1; |B| <= 2 sqrt(2) (test_properties' 1e-6) for the
    exact readout and |B| <= 4 for the sampled one; every fidelity in
    [0, 1]; heat-sweep's parity in [0, 1], flip_probability = (1 - parity)
    / 2 bit for bit, and n_mean - gamma duration the same on every row;
    rotate's analytic = exp(-epsilon^2) bit for bit; swap-report's
    unitarity >= 0."""
    protocol, tol = cfg["protocol"], 1e-12
    ceiling = TSIRELSON + 1e-6 if cfg["bell"]["mode"] == "exact" else 4.0 + tol
    out = []

    def check(ok: bool, what: str) -> None:
        if not ok:
            out.append(what)

    def fidelity(value: float, what: str) -> None:
        check(-tol <= value <= 1.0 + tol, f"{what} = {value!r} outside [0, 1]")

    if protocol == "full-pipeline":
        for name in ("e_ab", "e_ab_prime", "e_a_prime_b", "e_a_prime_b_prime"):
            check(abs(results[name]) <= 1.0 + tol, f"|{name}| > 1: {results[name]!r}")
        check(abs(results["b_value"]) <= ceiling, f"B = {results['b_value']!r}")
        for name in ("preparation_fidelity", "hadamard_fidelity",
                     "electronic_fidelity"):
            fidelity(results[name], name)
    elif protocol == "bell-scan":
        for row in rows:
            check(abs(row["B"]) <= ceiling,
                  f"B = {row['B']!r} at delta {row['delta']!r}")
    elif protocol == "prepare":
        for name in ("preparation_fidelity", "factorization_agreement"):
            fidelity(results[name], name)
    elif protocol == "rotate":
        for row in rows:
            fidelity(row["f_zero"], "f_zero")
            fidelity(row["f_one"], "f_one")
            eps = row["epsilon"]
            check(row["analytic"] == exp(-eps * eps),
                  f"analytic {row['analytic']!r} is not exp(-{eps!r}^2)")
    elif protocol == "swap-report":
        for row in rows:
            fidelity(row["fidelity"], f"{row['gate']} {row['input']} fidelity")
            check(row["unitarity"] >= 0.0, f"unitarity {row['unitarity']!r} < 0")
    else:  # heat-sweep
        gamma = cfg["noise"]["gamma"]
        nbar = [row["n_mean"] - gamma * row["duration"] for row in rows]
        for row, start in zip(rows, nbar):
            fidelity(row["parity"], "parity")
            check(row["flip_probability"] == (1.0 - row["parity"]) / 2.0,
                  f"flip_probability {row['flip_probability']!r} is not "
                  f"(1 - {row['parity']!r}) / 2")
            check(abs(start - nbar[0]) <= tol * max(1.0, abs(row["n_mean"])),
                  f"n_mean {row['n_mean']!r} at duration {row['duration']!r} "
                  f"did not grow by gamma times the duration")
    return out


def with_regressions(test):
    """test with every config of reach.REGRESSIONS as an @example, seed
    None."""
    for raw in reversed(REGRESSIONS):
        test = example(raw=raw, seed=None)(test)
    return test


class TestConfigFuzzer:
    """Any config ends in a documented exit code, never in a traceback, and
    an exit-0 run returns values that obey the physics."""

    @settings(max_examples=100)
    @given(raw=raw_configs(),
           seed=st.none() | st.integers(-1, 2 ** 64 - 1))
    # every input that once ended in a traceback, a NaN or a wrong code
    @with_regressions
    # runs that end in exit 0 with several rows, so that physics_violations
    # reads every law whatever the draws
    @example(raw={"protocol": "heat-sweep",
                  "noise": {"gamma": 0.7, "durations": [0.0, 1.5, 3.25]}},
             seed=None)
    @example(raw={"protocol": "rotate"}, seed=None)
    # 4 x 82^2 register amplitudes once, past the fuzzer's cap of 4096
    @example(raw={"protocol": "full-pipeline", "encoding": {"alpha": 6.0}},
             seed=None)
    @example(raw={"protocol": "full-pipeline", "noise": {"delta": 0.3},
                  "bell": {"mode": "sampled"}}, seed=5)
    def test_every_config_ends_in_a_documented_exit(self, raw, seed):
        argv_seed = [] if seed is None else ["--seed", str(seed)]
        returned = []

        def recorded(runner):
            def run(cfg):
                out = runner(cfg)
                returned.append((cfg, *out))
                return out
            return run

        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.dict(os.environ, {"CATBELL_MAX_DIM": "4096"}), \
                mock.patch.dict(RUNNERS, {name: recorded(runner)
                                          for name, runner in RUNNERS.items()}):
            cfg_path = Path(tmp) / "config.json"
            if isinstance(raw, bytes):
                cfg_path.write_bytes(raw)
            else:
                cfg_path.write_text(json.dumps(raw), encoding="utf-8")
            outdir = Path(tmp) / "out"
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = main(["run", str(cfg_path), "--output", str(outdir),
                             *argv_seed])
            err = err.getvalue()
            outputs = list(outdir.glob("*")) if outdir.exists() else []
            event(f"exit {code}")
            assert code in (0, 2, 3, 4), err
            assert "Traceback" not in err
            if code == 0:
                assert len(outputs) == 1
                assert nonfinite_cells(outputs[0]) == []
                (cfg, rows, results, _), = returned
                assert physics_violations(cfg, rows, results) == []
                return
            assert outputs == []
            prefix = {2: "config error: ", 3: "capacity error: ",
                      4: "numerical contract violation: "}[code]
            assert err.startswith(prefix), err
            if code == 2 and isinstance(raw, bytes):  # no field was read
                assert err.startswith("config error: config is not valid "), err
            elif code == 2:
                names = {f.name for f in FIELDS} | set(SECTIONS) | set(raw)
                assert any(name in err for name in names), err
