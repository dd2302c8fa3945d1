"""Smoke run of the benchmark's ops: one cold op per workload, checked.

Runs `workloads.cold_op(w, 0)` in-process through `worker.Runner`, the way
the benchmark's workers do, and holds its output to the workload's law, so
that a change of the program's API or numbers that would break the
benchmark fails here first.  Timing is not checked.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
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
