"""The two benchmark workloads: seeded scenes, the measured call on each
input unit, and the checks on what that call produced.

Every call into beltrack goes through a module attribute
(``pipeline.run_pipeline``, not a name imported from it), so the tracer in
``tracing.py`` sees the calls the benchmark makes as well as the calls the
package makes internally.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np

import beltrack.io as bio
import beltrack.pipeline as pipeline
import beltrack.simulate as simulate

WORKLOADS = ("steady-belt", "cluttered-oracle")
EXPECTED_PATH = Path(__file__).with_name("expected.json")

#: steady-belt's belt is recorded as this many JSONL files, one per call, so
#: that a run of a few tens of seconds makes several calls.
BELT_FILES = 2
CLUTTER_SCENES = 3

#: Seed 0, two lanes, spawn jitter 3: the first object of lane 1 spawns at
#: frame -3, so its ground truth starts at frame -2.
KNOWN_DEFECT_SCENE = simulate.SimConfig(
    seed=0, n_lanes=2, spawn_jitter_frames=3, n_objects_per_lane=5
)


def scene_configs(workload: str, seed: int, size: str) -> list[simulate.SimConfig]:
    """The scenes one run of ``workload`` generates during set-up."""
    full = size == "full"
    if workload == "steady-belt":
        seeds = np.random.SeedSequence(seed).generate_state(BELT_FILES)
        return [
            simulate.SimConfig(
                seed=int(file_seed),
                n_lanes=3,
                n_objects_per_lane=200 if full else 5,
                spawn_jitter_frames=5,
                detection_dropout_prob=0.1,
                bbox_jitter_std=1.0,
                false_positive_rate=0.5,
                label_flip_prob=0.2,
            )
            for file_seed in seeds
        ]
    if workload == "cluttered-oracle":
        seeds = np.random.SeedSequence(seed).generate_state(CLUTTER_SCENES)
        return [
            simulate.SimConfig(
                seed=int(scene_seed),
                n_lanes=6,
                n_objects_per_lane=60 if full else 5,
                spawn_interval_frames=12,
                false_positive_rate=3.0,
                score_mean_true=0.75,
                score_std_true=0.15,
                detection_dropout_prob=0.15,
                bbox_jitter_std=1.5,
                label_flip_prob=0.25,
            )
            for scene_seed in seeds
        ]
    raise ValueError(f"unknown workload {workload!r}")


def generate(workload: str, seed: int, size: str) -> list:
    """Simulated scenes as (ground truth, frames) pairs."""
    return [simulate.generate_scene(config) for config in scene_configs(workload, seed, size)]


def write_input(scenes: list, directory: Path, stem: str) -> list[Path]:
    """The detection JSONL files that ``steady-belt`` ingests, one per scene."""
    paths = [directory / f"{stem}-{i}.jsonl" for i in range(len(scenes))]
    for (_, frames), path in zip(scenes, paths):
        bio.write_detections(frames, path)
    return paths


def units(workload: str, scenes: list, input_paths: list[Path] | None) -> list:
    """What each measured call receives: a JSONL path or one (frames, truth)
    scene."""
    if workload == "steady-belt":
        return list(input_paths)
    return [(frames, gt) for gt, frames in scenes]


def run_unit(workload: str, unit, workdir: Path):
    """The measured call: a whole batch job on one input unit."""
    if workload == "steady-belt":
        run = pipeline.PipelineRun(
            input_path=unit,
            verdicts_path=workdir / "verdicts.jsonl",
            summary_path=workdir / "summary.json",
        )
        pipeline.run_pipeline(run)
        return workdir
    frames, gt = unit
    return pipeline.evaluate_against_truth(frames, gt)


def outputs(workload: str, raw) -> dict:
    """What a measured call produced, in the form ``expected.json`` stores."""
    if workload == "cluttered-oracle":
        return asdict(raw)
    verdicts = (raw / "verdicts.jsonl").read_bytes()
    summary = (raw / "summary.json").read_bytes()
    return {
        "verdicts_sha256": hashlib.sha256(verdicts).hexdigest(),
        "summary_sha256": hashlib.sha256(summary).hexdigest(),
        "verdict_problems": verdict_problems(verdicts, summary),
    }


def verdict_problems(verdicts: bytes, summary: bytes) -> list[str]:
    """Consistency of the verdict file with itself and with the summary."""
    records = [json.loads(line) for line in verdicts.splitlines()]
    report = json.loads(summary)
    problems = []
    if len(records) != report.get("n_labeled_tracks"):
        problems.append(
            f"{len(records)} verdicts but summary n_labeled_tracks={report.get('n_labeled_tracks')}"
        )
    for record in records:
        if sum(record["votes"]) != record["k"]:
            problems.append(f"track {record['track_id']}: votes do not sum to k")
        if record["binary"] != ("normal" if record["category"] == 0 else "defect"):
            problems.append(f"track {record['track_id']}: binary label contradicts category")
    n_defect = sum(1 for record in records if record["binary"] == "defect")
    if n_defect != report.get("aggregated", {}).get("n_defect_tracks"):
        problems.append(f"{n_defect} defect verdicts but the summary counts a different number")
    return problems


def differences(actual: dict, expected: dict) -> list[str]:
    """Fields of ``expected`` that ``actual`` does not reproduce (floats to 1e-9)."""
    found = []
    for key, want in expected.items():
        got = actual.get(key, "<missing>")
        if isinstance(want, float) and isinstance(got, (int, float)):
            same = math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)
        else:
            same = got == want
        if not same:
            found.append(f"{key}: got {got!r}, expected {want!r}")
    return found


def load_expected(workload: str, size: str, seed: int) -> list[dict] | None:
    """Stored outputs per input unit, or None when this seed was never recorded."""
    table = json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.exists() else {}
    return table.get(workload, {}).get(size, {}).get(str(seed))


def quality(evaluations: list[dict]) -> dict:
    """Identity switches and vote gain pooled over the oracle scenes."""
    n_objects = sum(e["n_objects"] for e in evaluations)
    gain = sum(
        (e["aggregated_binary_accuracy"] - e["last_frame_binary_accuracy"]) * e["n_objects"]
        for e in evaluations
    )
    return {
        "id_switches": sum(e["id_switches"] for e in evaluations),
        "vote_gain_pp": 100.0 * gain / n_objects,
        "objects": n_objects,
    }


def known_defect_probe() -> str | None:
    """Evaluate one jittered scene; the error text while the defect stands."""
    gt, frames = simulate.generate_scene(KNOWN_DEFECT_SCENE)
    try:
        pipeline.evaluate_against_truth(frames, gt)
    except ValueError as error:
        return f"ValueError: {error}"
    return None
