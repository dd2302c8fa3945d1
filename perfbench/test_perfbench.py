"""Tests of the benchmark itself: inputs, output checks, tracing, metrics.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import run
import worker
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def _register_budget(monkeypatch):
    monkeypatch.setenv("CATBELL_MAX_DIM", run.MAX_DIM)


def _run_op(op: dict, tmp_path) -> dict:
    runner = worker.Runner(str(tmp_path))
    _, output = runner.run(op)
    assert runner.failures == []
    return output


# ------------------------------------------------------------- generator ---

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    for index in (0, 1, 7):
        assert workloads.cycle_ops(workload, 3, index) == \
            workloads.cycle_ops(workload, 3, index)
    assert workloads.cold_op(workload, 3) == workloads.cold_op(workload, 3)
    assert workloads.cycle_ops(workload, 3, 1) != workloads.cycle_ops(workload, 4, 1)
    assert workloads.cycle_ops(workload, 3, 1) != workloads.cycle_ops(workload, 3, 2)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_cycle_has_the_same_class_mix(workload):
    table = workloads.CYCLES[workload]
    mixes = [Counter(op["class"] for op in workloads.cycle_ops(workload, seed, index))
             for seed in (0, 1) for index in range(3)]
    assert all(mix == mixes[0] for mix in mixes)
    assert sorted(mixes[0].values()) == sorted(count for _, count in table)
    cold = workloads.cold_op(workload, 5)["class"]
    assert mixes[0][cold] == table[0][1]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_run_size_is_fixed_and_has_ten_ops_beyond_p90(workload):
    cycles = workloads.run_cycles(workload, workloads.RUN_SECONDS)
    assert cycles * len(workloads.cycle_ops(workload, 0, 0)) >= 100
    assert workloads.run_cycles(workload, 0.0) == 1


def test_measure_brackets_every_cycle_with_the_calibration_kernel(tmp_path):
    runner = worker.Runner(str(tmp_path))
    res = worker.measure(runner, "ensemble", seed=2, seconds=0.0)
    assert runner.failures == []
    assert [len(c) for c in res["latencies_s"]] == [20]
    assert len(res["calibration_s"]) == 2 and min(res["calibration_s"]) > 0.0
    # a cycle run at half the reference speed counts half its time
    slow = {"latencies_s": [[0.2, 0.4]],
            "calibration_s": [run.CALIBRATION_REF_S * 1.5, run.CALIBRATION_REF_S * 2.5]}
    assert run.scaled_latencies(slow) == pytest.approx([0.1, 0.2])


def test_configs_pin_the_work():
    cfg = workloads.cycle_ops("pipeline", 0, 0)[0]["config"]
    assert {"alpha", "beta", "cutoff", "leak_tol"} <= set(cfg["encoding"])
    assert set(cfg["gates"]) == {"ve_variant", "ev_variant"}
    assert {"mode", "shots", "theta_a", "theta_b"} <= set(cfg["bell"])
    heat = workloads.cycle_ops("heating", 0, 0)[0]["config"]
    assert {"gamma", "duration", "steps", "constant_rate"} <= set(heat["noise"])


# ---------------------------------------------------------------- checks ---

def test_pipeline_output_off_its_law_fails(tmp_path):
    for ev_variant in ("ideal", "displacement"):
        op = workloads.cold_op("pipeline", 0)
        op["config"]["gates"]["ev_variant"] = ev_variant
        output = _run_op(op, tmp_path)
        assert workloads.check(op, output) is None
        output["results"]["b_value"] += 1e-3
        assert workloads.check(op, output) is not None


def test_sampled_pipeline_output_off_its_law_fails(tmp_path):
    op = workloads.cold_op("pipeline", 0)
    op["config"]["bell"]["mode"] = "sampled"
    output = _run_op(op, tmp_path)
    assert workloads.check(op, output) is None
    output["results"]["b_value"] += 6.0 * output["results"]["b_std_error"]
    assert workloads.check(op, output) is not None


def test_heating_output_off_its_law_fails(tmp_path):
    op = workloads.cold_op("heating", 0)
    output = _run_op(op, tmp_path)
    assert workloads.check(op, output) is None
    for field, shift in (("n_mean", 1e-8), ("re_a", 1e-8), ("trace_drift", 1e-5)):
        bad = json.loads(json.dumps(output))
        bad["rows"][-1][field] += shift
        assert workloads.check(op, bad) is not None, field


def test_ensemble_output_off_its_law_fails(tmp_path):
    op = workloads.cold_op("ensemble", 0)
    output = _run_op(op, tmp_path)
    assert workloads.check(op, output) is None
    shifted = dict(output, flips=output["flips"] + output["trajectories"] // 5)
    assert workloads.check(op, shifted) is not None


def test_failed_exit_code_fails():
    op = workloads.cold_op("pipeline", 0)
    assert workloads.check(op, {"exit_code": 3}) is not None


# --------------------------------------------------------------- tracing ---

def test_tracer_rebinds_every_namespace_and_restores():
    import catbell
    import catbell.cli
    import catbell.hilbert
    original = catbell.hilbert.apply
    assert catbell.cli.apply is original and catbell.apply is original
    tracer = Tracer()
    tracer.install()
    try:
        assert catbell.cli.apply is not original
        assert catbell.apply is catbell.cli.apply is catbell.hilbert.apply
        assert catbell.cli.RUNNERS["full-pipeline"] is catbell.cli.run_full_pipeline
    finally:
        tracer.uninstall()
    assert catbell.hilbert.apply is original and catbell.cli.apply is original
    assert catbell.cli.RUNNERS["full-pipeline"].__name__ == "run_full_pipeline"
    assert not hasattr(catbell.cli.RUNNERS["full-pipeline"], "__wrapped__")


def _trace(workload: str, tmp_path) -> dict:
    runner = worker.Runner(str(tmp_path))
    res = worker.trace(runner, workload, seed=11, seconds=0.0, spans_path=None)
    assert runner.failures == []
    return res


@pytest.mark.parametrize("workload", ("pipeline", "ensemble"))
def test_self_times_account_for_traced_wall_time(workload, tmp_path):
    res = _trace(workload, tmp_path)
    metrics = run.layer_metrics(res)
    layers = res["summary"]["layers"]
    wall = res["traced_s"]
    every_span = sum(rec["self_s"] for rec in layers.values())
    layer_self = sum(layers[layer]["self_s"] for layer in run.LAYERS)
    overhead = max(metrics["trace.overhead_frac"], 0.01)
    # self times partition the op root spans, which fill the traced wall time
    assert every_span <= wall
    assert wall - every_span <= overhead * wall
    assert 0.0 <= metrics["trace.unattributed_frac"] < 1.0
    if workload == "pipeline":  # cli.main is the op: no benchmark code inside
        assert wall - layer_self <= overhead * wall


def test_swap_key_bookkeeping_opens_no_layer_span(tmp_path):
    spans_path = tmp_path / "spans.json"
    res = worker.trace(worker.Runner(str(tmp_path)), "pipeline", seed=11,
                       seconds=0.0, spans_path=str(spans_path))
    names = res["summary"]["names"]
    assert names["trace.bookkeeping"]["calls"] == names["gates.u_swap"]["calls"] > 0
    spans = json.loads(spans_path.read_text())["spans"]
    bookkeeping = {i for i, span in enumerate(spans) if span[1] == "trace.bookkeeping"}
    assert not any(span[4] in bookkeeping for span in spans)
    assert 0.0 <= run.layer_metrics(res)["gates.u_swap.repeat_ratio"] <= 1.0


def test_traced_counts_repeat_exactly(tmp_path):
    first = run.layer_metrics(_trace("ensemble", tmp_path))
    second = run.layer_metrics(_trace("ensemble", tmp_path))
    counts = [m for m in first if m.endswith((".calls", ".errors")) or m == "noise.jumps"]
    assert counts
    assert {m: first[m] for m in counts} == {m: second[m] for m in counts}
    assert first["noise.sample_trajectory.calls"] > 0


# ---------------------------------------------------------------- metrics ---

def test_reported_metrics_match_benchmark_json(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    for m in spec["end_to_end"]:
        assert run.unit_of(m["name"]) == m["unit"]
    names = list(run.layer_metrics(_trace("pipeline", tmp_path)))
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(names)
    for m in spec["per_layer"]:
        assert run.unit_of(m["name"]) == m["unit"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pipeline",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
