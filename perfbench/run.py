"""Benchmark of catbell, end to end and per layer.

    python3 perfbench/run.py --workload pipeline|heating|ensemble \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each run starts fresh interpreters
(perfbench/worker.py) with one BLAS thread and `src/` on the path, one at a
time: a closed loop with one client.

--trace 0 reports the end-to-end metrics: throughput and latency of warm
ops, set-up time from a fresh interpreter to the end of the first op (median
of several fresh interpreters) and peak resident memory, with every time
scaled to a reference machine speed by a calibration kernel.
--trace 1 reports per-layer metrics from spans around calls into catbell's
modules, and the tracing overhead.  Every op's output is checked against its physical law
outside the timed window.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The full record, with the
generated inputs and the environment, goes to perfbench/out/results/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from tracer import LAYERS
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# On a shared 2-core machine the same work runs up to 1.7x slower for seconds
# to minutes at a time while other tenants load the host, and the slowdown is
# common to all code in the process.  Every time metric is therefore scaled to
# a reference machine speed: each timed value is multiplied by
# CALIBRATION_REF_S over the time of a fixed calibration kernel (no catbell
# code) measured in the same process next to it.  CALIBRATION_REF_S is the
# kernel's time on an unloaded core of the 2-core x86 box the benchmark was
# tuned on, so scaled times read as that box's times at full speed.
CALIBRATION_REF_S = 0.0025
SETUP_PROBES = 9        # fresh interpreters, the measuring one among them
DEADLINE_S = 170.0      # a run must end within 180 s
# registers up to alpha = 8 (59,536 amplitudes), as README.md documents
MAX_DIM = "65536"

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}
# per-layer metrics read from span aggregates: "<span name>.<field>"
SPAN_METRICS = (
    ("gates.u_swap", "self_s"), ("gates.u_swap", "calls"),
    ("hilbert.apply", "self_s"), ("hilbert.apply", "calls"),
    ("hilbert.partial_trace", "self_s"),
    ("bosonic.displacement", "self_s"), ("bosonic.displacement", "calls"),
    ("hilbert.matrix_exp", "self_s"), ("hilbert.matrix_exp", "calls"),
    ("encoding.logical_basis", "calls"),
    ("noise.lindblad_rhs", "self_s"), ("noise.lindblad_rhs", "calls"),
    ("noise.evolve_lindblad", "self_s"),
    ("noise.sample_trajectory", "self_s"), ("noise.sample_trajectory", "calls"),
    ("bell.chsh", "self_s"), ("bell.chsh", "calls"),
)


class BenchError(Exception):
    """A worker did not start, did not finish, or returned no result."""


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith("self_s"):
        return "s"
    if metric.endswith(("_frac", "_ratio")):
        return "fraction"
    return "count"


def worker_env() -> dict:
    env = dict(os.environ)  # the worker pins BLAS threads itself
    env["CATBELL_MAX_DIM"] = MAX_DIM
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def spawn(args: list[str], deadline: float) -> tuple[float, dict]:
    """Start a fresh worker; returns (seconds from start to READY, result)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), *args]
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                            env=worker_env(), text=True)
    timer = threading.Timer(max(1.0, deadline - perf_counter()), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready = perf_counter()
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    lines = rest.strip().splitlines()
    if first.strip() != "READY" or code != 0 or not lines:
        raise BenchError(f"worker {' '.join(args[:2])} exited with code {code}")
    try:
        return ready - start, json.loads(lines[-1])
    except ValueError as err:
        raise BenchError(f"worker printed no result: {err}") from err


def at_reference_speed(seconds: float, calibration_s: float) -> float:
    """A time measured next to a calibration kernel time, scaled to the
    reference machine speed."""
    return seconds * CALIBRATION_REF_S / calibration_s


def scaled_latencies(result: dict) -> list[float]:
    """A measuring worker's op latencies at the reference speed, each cycle
    scaled by the mean of the kernel times before and after it."""
    cal = result["calibration_s"]
    return [at_reference_speed(x, 0.5 * (before + after))
            for cycle, before, after in zip(result["latencies_s"], cal, cal[1:])
            for x in cycle]


def end_to_end(args, workdir: str, deadline: float) -> dict:
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--workdir", workdir]
    setups, raw_setups, setup_cal, attempted, failures = [], [], [], 0, []
    # set-up probes before and after the measuring worker, which is also one
    early = (SETUP_PROBES - 1) // 2
    for mode in ["setup"] * early + ["measure"] + ["setup"] * (SETUP_PROBES - 1 - early):
        setup, res = spawn(common + ["--mode", mode, "--seconds", str(args.seconds)],
                           deadline)
        setups.append(at_reference_speed(setup, res["setup_calibration_s"]))
        raw_setups.append(setup)
        setup_cal.append(res["setup_calibration_s"])
        attempted += res["attempted"]
        failures += res["failures"]
        if mode == "measure":
            main = res
    lat = scaled_latencies(main)
    metrics = {
        "ops_per_s": len(lat) / math.fsum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": statistics.quantiles(lat, n=10, method="inclusive")[8] * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    record = {"setup_samples_s": raw_setups, "setup_calibration_s": setup_cal,
              "latencies_s": main["latencies_s"],
              "calibration_s": main["calibration_s"],
              "classes": main["classes"],
              "environment": main["environment"],
              "inputs": {"cold_op": main["cold_op"], "cycles": main["inputs"]}}
    raw_ops_per_s = len(lat) / math.fsum(x for c in main["latencies_s"] for x in c)
    note = (f"{len(lat)} timed ops in {len(main['inputs']) - 1} cycles after a "
            f"warm-up cycle; set-up from {len(setups)} fresh interpreters; times "
            f"scaled to the reference speed (unscaled: ops_per_s "
            f"{raw_ops_per_s:.4g}, setup_s {statistics.median(raw_setups):.4g})")
    return {"metrics": metrics, "attempted": attempted, "failures": failures,
            "record": record, "note": note}


def layer_metrics(res: dict) -> dict:
    """Per-layer metrics from a traced worker's result."""
    names, layers = res["summary"]["names"], res["summary"]["layers"]
    unused = {"calls": 0, "self_s": 0.0}  # spans a workload never opens
    metrics = {f"{span}.{field}": names.get(span, unused)[field]
               for span, field in SPAN_METRICS}
    swaps = metrics["gates.u_swap.calls"]
    metrics["gates.u_swap.repeat_ratio"] = res["swap_repeats"] / swaps if swaps else 0.0
    metrics["noise.jumps"] = res["jumps"]
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layers[layer]["self_s"]
        metrics[f"{layer}.errors"] = layers[layer]["errors"]
    layer_self = sum(layers[layer]["self_s"] for layer in LAYERS)
    metrics["trace.overhead_frac"] = res["traced_s"] / res["plain_s"] - 1.0
    metrics["trace.unattributed_frac"] = 1.0 - layer_self / res["traced_s"]
    return metrics


def per_layer(args, workdir: str, deadline: float, spans_path: Path) -> dict:
    _, res = spawn(["--workload", args.workload, "--seed", str(args.seed),
                    "--workdir", workdir, "--mode", "trace",
                    "--seconds", str(args.seconds), "--spans", str(spans_path)],
                   deadline)
    record = {"ops": res["ops"], "cycles": res["cycles"],
              "plain_s": res["plain_s"], "traced_s": res["traced_s"],
              "spans_by_name": res["summary"]["names"],
              "spans_file": spans_path.name,
              "environment": res["environment"],
              "inputs": {"cold_op": res["cold_op"], "cycles": res["inputs"]}}
    return {"metrics": layer_metrics(res), "attempted": res["attempted"],
            "failures": res["failures"], "record": record,
            "note": f"{res['ops']} ops, each run untraced and traced"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="catbell benchmark: end-to-end (--trace 0) or per-layer "
                    "(--trace 1) metrics of one seeded workload")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "catbell" / "__init__.py").is_file():
        print(f"error: no catbell sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = perf_counter() + DEADLINE_S
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            run = per_layer(args, str(workdir), deadline,
                            results / f"{stem}-spans.json")
        else:
            run = end_to_end(args, str(workdir), deadline)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = run["attempted"], len(run["failures"])
    metrics = {name: {"value": value, "unit": unit_of(name)}
               for name, value in run["metrics"].items()}
    record = {"args": vars(args), "attempted": attempted, "failed": failed,
              "failed_frac": failed / attempted, "metrics": metrics,
              "failures": run["failures"][:20], **run["record"]}
    with open(results / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{run['note']}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  failed_frac = {failed / attempted:.6g} fraction "
          f"({failed} of {attempted} ops)")
    for failure in run["failures"][:3]:
        print(f"  failure: {failure['error'].strip().splitlines()[-1]}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
