"""Smoke run of the benchmark's ops: one cold op per workload, checked.

Runs `workloads.cold_op(w, 0)` in-process through `worker.Runner`, the way
the benchmark's workers do, and holds its output to the workload's law, so
that a change of the program's API or numbers that would break the
benchmark fails here first.  Timing is not checked.
"""

from __future__ import annotations

import json
import subprocess
import sys
from math import sqrt
from pathlib import Path

import pytest
from conftest import child_env

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_cold_op_passes_its_check(workload, tmp_path):
    runner = worker.Runner(str(tmp_path))
    op = workloads.cold_op(workload, 0)
    _, output = runner.run(op)
    runner.verify(op, output)
    assert runner.attempted == 1
    assert output is not None
    assert runner.failures == []


def test_mode_b_ensemble_op_passes_its_check(tmp_path):
    # the cold op heats mode a, the leading axis; this one heats mode b,
    # which sits between mode a and the ions
    runner = worker.Runner(str(tmp_path))
    op = min((op for op in workloads.cycle_ops("ensemble", 0, 0)
              if op["mode"] == "b"), key=lambda op: op["alpha"])
    _, output = runner.run(op)
    runner.verify(op, output)
    assert runner.attempted == 1
    assert output is not None
    assert output["trajectories"] == workloads.TRAJECTORIES
    assert runner.failures == []


def test_alpha8_pipeline_op_passes_its_check(tmp_path, monkeypatch):
    # the cold op is alpha 2, ideal, exact; this is the largest register of
    # a cycle, through the displacement build and sampled readout
    monkeypatch.setenv("CATBELL_MAX_DIM", "65536")
    runner = worker.Runner(str(tmp_path))
    (op,) = [op for op in workloads.cycle_ops("pipeline", 0, 0)
             if op["class"] == "alpha8-displacement-sampled"]
    _, output = runner.run(op)
    runner.verify(op, output)
    assert runner.attempted == 1
    assert output["exit_code"] == 0
    assert runner.failures == []


def test_pipeline_op_hit_writes_the_miss_results(tmp_path):
    # a second op of a class in one process reuses the memoized coherent
    # stages, exchanges included; its results must be the cold op's, byte
    # for byte
    import catbell.pipeline
    runner = worker.Runner(str(tmp_path))
    (op,) = [op for op in workloads.cycle_ops("pipeline", 0, 0)
             if op["class"] == "alpha4-displacement-sampled"]
    catbell.pipeline._coherent_stages.cache_clear()
    outputs = []
    for _ in range(2):
        _, output = runner.run(op)
        runner.verify(op, output)
        outputs.append(output)
    info = catbell.pipeline._coherent_stages.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert runner.failures == []
    miss, hit = (json.dumps(out["results"]) for out in outputs)
    assert miss == hit


def test_heating_op_hit_writes_the_miss_results(tmp_path):
    # a second op of a class in one process reuses the memoized populations
    # of its encoding's cat; its rows must be the cold op's, byte for byte
    import catbell.pipeline
    runner = worker.Runner(str(tmp_path))
    (op,) = [op for op in workloads.cycle_ops("heating", 0, 0)
             if op["class"] == "alpha6"]
    catbell.pipeline._cat_populations.cache_clear()
    outputs = []
    for _ in range(2):
        _, output = runner.run(op)
        runner.verify(op, output)
        outputs.append(output)
    info = catbell.pipeline._cat_populations.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert runner.failures == []
    miss, hit = (json.dumps(out["rows"]) for out in outputs)
    assert miss == hit


def test_ensemble_op_output_does_not_depend_on_the_caches(tmp_path):
    # the op's register is bell_target's shared one, and the sampler keeps
    # its one-jump words and their finals on it: the op cold, warm, and again
    # after bell_target's cache is cleared must write the same output
    import catbell.encoding
    runner = worker.Runner(str(tmp_path))
    op = workloads.cold_op("ensemble", 0)
    outputs = []
    for clear in (True, False, True):  # cold, warm, cleared
        if clear:
            catbell.encoding.bell_target.cache_clear()
        _, output = runner.run(op)
        runner.verify(op, output)
        outputs.append(output)
        info = catbell.encoding.bell_target.cache_info()
        assert (info.misses, info.hits) == (1, 0 if clear else 1)
    assert runner.failures == []
    assert outputs[0]["jumps"] > 0
    assert outputs[0] == outputs[1] == outputs[2]


def test_full_pipeline_demo_tracks_linear_law():
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / "06_full_pipeline.py")],
                          env=child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = []
    for line in proc.stdout.splitlines():
        fields = line.split()
        if len(fields) == 4 and fields[0][0].isdigit():
            rows.append([float(f) for f in fields])
    assert [r[0] for r in rows] == [0.0, 0.1, 0.2, 0.3]
    for delta, b, law, fidelity in rows:
        assert law == round(2.0 * sqrt(2.0) * (1.0 - delta), 6)
        assert abs(b - law) <= 2e-6
        assert fidelity == 1.0
