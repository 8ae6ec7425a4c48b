"""Measure a baseline: untraced runs of each workload on several seeds, one
traced run, and one run on a held-out seed.

    python3 perfbench/baseline.py --seeds 0-9 --holdout 1000 [--workload NAME ...]

Runs the benchmark command of BENCHMARK.json one run at a time and writes
``baseline.json`` next to this file. Per workload it keeps each end-to-end
metric's values, median, quartiles and spread (quartile distance over the
median, as ``statistics.quantiles(values, n=4)`` gives the quartiles); the
per-layer metrics of the traced run on the first seed; and the held-out
seed's run, which is left out of the statistics so that a later claim can be
checked on a seed not used while writing the change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from record_expected import parse_seeds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE_PATH = HERE / "baseline.json"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, trace: int) -> dict:
    command = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: output checks failed:\n{done.stdout}")
    record = ROOT / ".perfbench_work" / "results" / f"{workload}-seed{seed}-full-trace{trace}.json"
    result["machine"] = json.loads(record.read_text())["machine"]
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--holdout", type=int, default=1000)
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in SPEC["workloads"]])
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    if args.holdout in seeds:
        raise SystemExit("the held-out seed must not be one of the baseline seeds")
    baseline = json.loads(BASELINE_PATH.read_text()) if BASELINE_PATH.exists() else {}
    baseline.update(run_seconds=SPEC["run_seconds"], seeds=seeds, holdout_seed=args.holdout)
    names = [w["name"] for w in SPEC["workloads"]]
    baseline["workloads"] = {k: v for k, v in baseline.get("workloads", {}).items() if k in names}
    for workload in args.workload or names:
        runs = []
        for seed in seeds:
            runs.append(run(workload, seed, 0))
            print(workload, seed, {k: round(v["value"], 4) for k, v in runs[-1]["metrics"].items()}, flush=True)
        end_to_end = {}
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            end_to_end[name] = summarize([r["metrics"][name]["value"] for r in runs])
            end_to_end[name]["unit"] = metric["unit"]
            print(f"  {name}: median {end_to_end[name]['median']:.6g} spread {end_to_end[name]['spread']:.4f} "
                  f"(bound {metric['bound']})", flush=True)
        traced = run(workload, seeds[0], 1)
        holdout = run(workload, args.holdout, 0)
        baseline.setdefault("workloads", {})[workload] = {
            "machine": runs[0]["machine"],
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "end_to_end": end_to_end,
            "per_layer_seed": seeds[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "holdout": {k: v["value"] for k, v in holdout["metrics"].items()},
        }
        BASELINE_PATH.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
