"""One workload process of the catbell benchmark (started by run.py).

Modes:
  setup    import, run the cold op, report READY, time the calibration
           kernel, exit
  measure  as setup, then one untimed warm-up cycle, then the run's fixed
           number of cycles (workloads.run_cycles), timing the calibration
           kernel before and after each; reports every op latency
  trace    as measure, but every op runs once untraced and once traced
           (order alternating), for per-layer spans and the tracing overhead

The first line "READY" on stdout marks the end of the cold op; the last line
is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import traceback
from time import perf_counter

import workloads  # standard library only: numpy is not loaded yet

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


CALIBRATION_REPS = 5


class Runner:
    """Runs ops, times them, checks their outputs and keeps the tallies."""

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir
        self.attempted = 0
        self.failures: list = []

    def run(self, op: dict, tracer=None):
        """Run one op; returns (seconds, output or None).  With a tracer, the
        op runs inside a root span."""
        self.attempted += 1
        start = perf_counter()
        try:
            if op["kind"] == "cli":
                path = workloads.write_config(op, self.workdir)
                call = lambda: workloads.run_cli(path, self.workdir)  # noqa: E731
            else:
                call = lambda: workloads.run_ensemble(op)  # noqa: E731
            start = perf_counter()
            root = tracer.open() if tracer else None
            try:
                output = call()
            finally:
                if tracer:
                    tracer.close(root)
                elapsed = perf_counter() - start
            if op["kind"] == "cli":
                output = workloads.read_cli_output(op, self.workdir, output)
        except Exception:  # an op that raises counts as failed; keep going
            self.failures.append({"op": op, "error": traceback.format_exc()})
            return perf_counter() - start, None
        return elapsed, output

    def verify(self, op: dict, output) -> None:
        if output is None:
            return
        try:
            problem = workloads.check(op, output)
        except Exception:
            problem = traceback.format_exc()
        if problem is not None:
            self.failures.append({"op": op, "error": problem})


def environment() -> dict:
    """Library versions, BLAS threads and the machine, stored with results."""
    import ctypes
    import glob
    import platform

    import numpy
    import scipy

    info = {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "cpu_model": "unknown",
            "blas_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS}}
    for mod in (numpy, scipy):
        try:
            blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            info[f"{mod.__name__}_blas"] = blas.get("openblas configuration",
                                                    blas.get("name"))
        except (KeyError, TypeError, ValueError):
            info[f"{mod.__name__}_blas"] = "unknown"
        threads = {}
        libdir = os.path.join(os.path.dirname(mod.__file__), os.pardir,
                              mod.__name__ + ".libs")
        for path in glob.glob(os.path.join(libdir, "*openblas*")):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                func = getattr(lib, sym, None)
                if func is not None:
                    func.restype = ctypes.c_int
                    threads[os.path.basename(path)] = func()
                    break
        info[f"{mod.__name__}_blas_threads"] = threads
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return info


def _check_program_location() -> None:
    import catbell
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(catbell.__file__).startswith(src + os.sep):
        raise SystemExit(f"catbell imported from {catbell.__file__}, not from {src}")


_CALIBRATION_MATRIX = None


def calibration_s() -> float:
    """Mean time of CALIBRATION_REPS runs of a fixed kernel that calls no
    catbell code: an interpreter loop and a chain of small complex matrix
    products, about 2.5 ms on an unloaded core.  Its time tracks how fast the
    machine runs this process at the moment; one untimed run warms it up."""
    global _CALIBRATION_MATRIX
    import numpy as np
    if _CALIBRATION_MATRIX is None:
        rng = np.random.default_rng(0)
        _CALIBRATION_MATRIX = rng.standard_normal((48, 48)) + 1j * rng.standard_normal((48, 48))
    a = _CALIBRATION_MATRIX
    times = []
    for _ in range(CALIBRATION_REPS + 1):
        start = perf_counter()
        total = 0
        for i in range(20000):
            total += i * i % 7
        b = a
        for _ in range(40):
            b = a @ b
            b /= np.abs(b).max()
        times.append(perf_counter() - start)
    return statistics.fmean(times[1:])


def measure(runner: Runner, workload: str, seed: int, seconds: float) -> dict:
    """Latencies and classes of the timed ops, one list per cycle, and the
    calibration time before the first timed cycle and after each."""
    latencies: list[list[float]] = []
    classes: list[list[str]] = []
    calibration: list[float] = []
    inputs = []
    for cycle in range(workloads.run_cycles(workload, seconds) + 1):
        if cycle > 0:  # cycle 0 warms up
            calibration.append(calibration_s())
            latencies.append([])
            classes.append([])
        ops = workloads.cycle_ops(workload, seed, cycle)
        inputs.append(ops)
        for op in ops:
            elapsed, output = runner.run(op)
            runner.verify(op, output)
            if cycle > 0:
                latencies[-1].append(elapsed)
                classes[-1].append(op["class"])
    calibration.append(calibration_s())
    return {"latencies_s": latencies, "classes": classes,
            "calibration_s": calibration, "inputs": inputs,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def trace(runner: Runner, workload: str, seed: int, seconds: float,
          spans_path: str | None) -> dict:
    from tracer import Tracer, summarize

    cycles = workloads.run_cycles(workload, seconds)
    inputs = [workloads.cycle_ops(workload, seed, 0)]
    for op in inputs[0]:  # warm-up
        runner.verify(op, runner.run(op)[1])
    tracer = Tracer()
    plain_s = traced_s = 0.0
    ops = 0
    for cycle in range(1, cycles + 1):
        batch = workloads.cycle_ops(workload, seed, cycle)
        inputs.append(batch)
        for op in batch:
            for traced in ((False, True) if ops % 2 == 0 else (True, False)):
                if traced:
                    tracer.op = ops
                    tracer.install()
                    elapsed, output = runner.run(op, tracer)
                    tracer.uninstall()
                    traced_s += elapsed
                else:
                    elapsed, output = runner.run(op)
                    plain_s += elapsed
                runner.verify(op, output)
            ops += 1
    summary = summarize(tracer.spans)
    if spans_path:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["op", "name", "start", "end", "parent", "error"],
                       "spans": tracer.spans}, handle)
    return {"ops": ops, "cycles": cycles, "plain_s": plain_s,
            "traced_s": traced_s, "summary": summary,
            "swap_repeats": tracer.swap_repeats, "jumps": tracer.jumps,
            "inputs": inputs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"),
                        required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default=None,
                        help="write the traced run's spans to this file")
    args = parser.parse_args(argv)

    # one BLAS thread, set before anything imports numpy
    os.environ.update({var: "1" for var in BLAS_THREAD_VARS})
    runner = Runner(args.workdir)
    workloads.import_program(args.workload)
    _check_program_location()
    cold = workloads.cold_op(args.workload, args.seed)
    _, output = runner.run(cold)
    sys.stdout.write("READY\n")
    sys.stdout.flush()
    runner.verify(cold, output)

    result: dict = {"cold_op": cold, "setup_calibration_s": calibration_s()}
    if args.mode == "measure":
        result.update(measure(runner, args.workload, args.seed, args.seconds))
        result["environment"] = environment()
    elif args.mode == "trace":
        result.update(trace(runner, args.workload, args.seed, args.seconds,
                            args.spans))
        result["environment"] = environment()
    result["attempted"] = runner.attempted
    result["failures"] = runner.failures
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
