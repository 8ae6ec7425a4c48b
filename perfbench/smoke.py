"""Smoke test of the benchmark itself, on tiny scenes.

    python3 perfbench/smoke.py

For every workload, runs run.py untraced and traced for one second each and
checks the result line against BENCHMARK.json: exactly its metrics, each
with its unit, and every output check passed. The human-readable report
must name each metric with its unit, too. Then it tampers with a verdict
file and checks that the benchmark counts that call as failed, and that the
benchmark refuses to run without the package sources. Exits non-zero on the
first failure.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Printed by the report, though not part of the result line.
REPORT_ONLY = [("failed_ops_ratio", "ratio"), ("frame_ms_p50", "ms"), ("frame_ms_p99", "ms")]
ORACLE_ONLY = [("id_switches", "count"), ("vote_gain_pp", "pp")]


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = SPEC["command"] + [
        "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace),
    ]
    if cwd == ROOT:
        command += ["--size", "tiny"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_run(workload: str, trace: int):
    done = run_benchmark(workload, trace)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0, (workload, trace, done.stdout)
    assert result["attempted"] >= 1
    wanted = [(m["name"], m["unit"]) for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == [name for name, _ in wanted], result["metrics"].keys()
    printed = REPORT_ONLY + (ORACLE_ONLY if workload == "cluttered-oracle" else [])
    for name, unit in wanted + printed:
        if name in result["metrics"]:
            assert result["metrics"][name]["unit"] == unit, (name, result["metrics"][name])
        pattern = rf"^{re.escape(name)}\s+\S+ {re.escape(unit)}\b"
        assert any(re.match(pattern, line) for line in lines[:-1]), f"{workload}: no {name} line"
    if workload == "cluttered-oracle":
        assert "known_defect_probe:" in done.stdout
    print(f"ok   {workload} trace={trace}: {len(result['metrics'])} metrics")


def check_tampered_verdicts():
    sys.path.insert(0, str(ROOT / "src"))
    import worker
    import workloads

    workdir = ROOT / ".perfbench_work" / f"smoke-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        scenes = workloads.generate("steady-belt", 0, "tiny")
        paths = workloads.write_input(scenes, workdir, "detections")
        unit = workloads.units("steady-belt", scenes, paths)[0]
        stored = workloads.load_expected("steady-belt", "tiny", 0)
        repeated = worker.Checker(workloads, "steady-belt", stored)
        raw = workloads.run_unit("steady-belt", unit, workdir)
        repeated.check(0, raw)
        assert repeated.failed == 0, repeated.problems

        verdicts = workdir / "verdicts.jsonl"
        records = [json.loads(line) for line in verdicts.read_text().splitlines()]
        records[0]["binary"] = "normal" if records[0]["binary"] == "defect" else "defect"
        verdicts.write_text("".join(json.dumps(r) + "\n" for r in records))
        repeated.check(0, raw)
        assert repeated.failed == 1, "tampered verdicts passed the repeat check"
        fresh = worker.Checker(workloads, "steady-belt", stored)
        fresh.check(0, raw)
        assert fresh.failed == 1, "tampered verdicts passed the stored-output check"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("ok   tampered verdict file counted as a failed call")


def check_refuses_without_sources():
    bare = ROOT / ".perfbench_work" / f"bare-{os.getpid()}"
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        done = run_benchmark("steady-belt", 0, cwd=bare)
        assert done.returncode != 0 and not done.stdout.strip(), done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok   refuses to run without the beltrack sources")


def main() -> int:
    for workload in [w["name"] for w in SPEC["workloads"]]:
        for trace in (0, 1):
            check_run(workload, trace)
    check_tampered_verdicts()
    check_refuses_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
