"""Measured half of one benchmark run, started by run.py in a fresh process.

    python3 perfbench/worker.py WORKDIR/spec.json

Loads the input units run.py pickled (nothing else is unpickled), checks a
small reference scene (which also warms the process up), then runs the
workload's measured calls for the requested seconds. With tracing it then makes one more pass over the units
with every layer wrapped in spans. Every call's outputs are checked; the
result goes to WORKDIR/result.json.
"""

from __future__ import annotations

import ctypes
import json
import os
import pickle
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np


class StepClock:
    """Times every ``ByteTracker.step`` call while installed."""

    def __init__(self, tracker_module):
        self.cls = tracker_module.ByteTracker
        self.latencies: list[float] = []

    def __enter__(self) -> "StepClock":
        self.original = original = self.cls.step
        latencies, clock = self.latencies, time.perf_counter

        def step(tracker, frame):
            start = clock()
            output = original(tracker, frame)
            latencies.append(clock() - start)
            return output

        self.cls.step = step
        return self

    def __exit__(self, *exc_info):
        self.cls.step = self.original


class Checker:
    """Counts measured calls and failed ones. A call fails when it raises or
    when its outputs break an invariant, differ from the stored outputs of its
    input unit, or differ from what the same unit gave earlier in this run."""

    def __init__(self, workloads, workload: str, expected: list[dict] | None):
        self.workloads, self.workload, self.expected = workloads, workload, expected
        self.first: dict[int, dict] = {}
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def check(self, unit: int, raw) -> dict:
        self.attempted += 1
        got = self.workloads.outputs(self.workload, raw)
        found = list(got.get("verdict_problems", []))
        if unit in self.first:
            found += self.workloads.differences(got, self.first[unit])
        else:
            self.first[unit] = got
            if self.expected is not None:
                found += self.workloads.differences(got, self.expected[unit])
        if found:
            self.failed += 1
            self.problems += [f"{self.workload} unit {unit}: {p}" for p in found]
        return got

    def crashed(self, unit: int):
        self.attempted += 1
        self.failed += 1
        self.problems.append(f"{self.workload} unit {unit}: {traceback.format_exc(limit=3)}")


def run_passes(workloads, spec, units, checker, clock, seconds, min_calls):
    """Call units in turn until ``seconds`` have passed and at least
    ``min_calls`` calls were made; stop at the first exception."""
    calls = []
    start = time.perf_counter()
    while len(calls) < min_calls or time.perf_counter() - start < seconds:
        unit = len(calls) % len(units)
        steps_before = len(clock.latencies)
        began = time.perf_counter()
        try:
            raw = workloads.run_unit(spec["workload"], units[unit], Path(spec["workdir"]))
        except Exception:
            checker.crashed(unit)
            break
        wall = time.perf_counter() - began
        output = checker.check(unit, raw)
        calls.append({"unit": unit, "wall_s": wall, "steps": len(clock.latencies) - steps_before, "output": output})
    return calls


def _latency_summary(latencies: list[float]) -> dict:
    """Step latency percentiles in milliseconds, with the sample count."""
    p50, p90, p99 = np.percentile(1e3 * np.asarray(latencies), [50, 90, 99])
    return {"p50": float(p50), "p90": float(p90), "p99": float(p99), "samples": len(latencies)}


def machine() -> dict:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "process_threads": _process_threads(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Thread count of the OpenBLAS NumPy loaded, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def _process_threads() -> int:
    try:
        with open("/proc/self/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import threading

    return threading.active_count()


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])
    import beltrack.tracker as tracker_module
    import tracing
    import workloads

    workload, workdir = spec["workload"], Path(spec["workdir"])
    result = {"machine": machine()}

    # Reference scene: stored outputs for every run, whatever the seed.
    reference = Checker(workloads, workload, workloads.load_expected(workload, "tiny", 0))
    ref_scenes = workloads.generate(workload, 0, "tiny")
    ref_inputs = None
    if workload == "steady-belt":
        ref_inputs = workloads.write_input(ref_scenes, workdir, "reference")
    ref_units = workloads.units(workload, ref_scenes, ref_inputs)
    with StepClock(tracker_module) as clock:
        run_passes(workloads, spec, ref_units, reference, clock, 0.0, len(ref_units))
    del ref_scenes, ref_units

    with open(workdir / "units.pickle", "rb") as handle:
        units = pickle.load(handle)
    checker = Checker(workloads, workload, spec["expected"])

    with StepClock(tracker_module) as clock:
        result["calls"] = run_passes(
            workloads, spec, units, checker, clock, spec["seconds"], len(units)
        )
    result["step_ms"] = _latency_summary(clock.latencies)
    if spec["trace"]:
        with tracing.Tracer() as tracer, StepClock(tracker_module) as traced_clock:
            result["traced_calls"] = run_passes(
                workloads, spec, units, checker, traced_clock, 0.0, len(units)
            )
        table = tracer.spans()
        steps = table["tracker.step"].pop("durations")
        tenth = len(steps) // 10
        result["step_ms_late_over_early"] = (
            float(np.median(steps[-tenth:]) / np.median(steps[:tenth])) if tenth else 0.0
        )
        for entry in table.values():
            entry.pop("durations", None)
        result["spans"] = table
        result["counts"] = dict(tracer.counts)
        result["span_count"] = len(tracer.starts)
        tracer.save(spec["spans_path"])

    if workload == "cluttered-oracle":
        result["known_defect_probe"] = workloads.known_defect_probe()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["machine"]["process_threads_end"] = _process_threads()
    result["attempted"] = reference.attempted + checker.attempted
    result["failed"] = reference.failed + checker.failed
    result["problems"] = reference.problems + checker.problems
    result["reference_checked"] = reference.expected is not None
    (workdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
