"""Record the outputs that benchmark runs check against (expected.json).

    python3 perfbench/record_expected.py --seeds 0-15 [--workload NAME ...]

Runs each workload's measured calls once per seed, untimed, and stores what
each input unit produced, merged into ``expected.json``. The tiny reference
scene (seed 0), which every run checks, is recorded as well. Outputs that
break an invariant are refused. Re-record only for a change that is meant to
alter outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def record(workload: str, seed: int, size: str, workdir: Path) -> list[dict]:
    scenes = workloads.generate(workload, seed, size)
    input_paths = None
    if workload == "steady-belt":
        input_paths = workloads.write_input(scenes, workdir, "detections")
    produced = []
    for unit in workloads.units(workload, scenes, input_paths):
        got = workloads.outputs(workload, workloads.run_unit(workload, unit, workdir))
        if got.get("verdict_problems"):
            raise SystemExit(f"{workload} seed {seed}: {got['verdict_problems']}")
        produced.append(got)
    return produced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-15 or 0,3,7")
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = parser.parse_args(argv)
    table = json.loads(workloads.EXPECTED_PATH.read_text()) if workloads.EXPECTED_PATH.exists() else {}
    workdir = ROOT / ".perfbench_work" / f"record-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        for workload in args.workload or workloads.WORKLOADS:
            jobs = [("tiny", 0)] + [("full", seed) for seed in parse_seeds(args.seeds)]
            for size, seed in jobs:
                produced = record(workload, seed, size, workdir)
                table.setdefault(workload, {}).setdefault(size, {})[str(seed)] = produced
                workloads.EXPECTED_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
                print(f"recorded {workload} {size} seed {seed}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
