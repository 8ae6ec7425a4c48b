"""Benchmark for beltrack: two seeded batch workloads measured end to end,
plus a traced run that gives per-layer numbers.

    python3 perfbench/run.py --workload steady-belt --seed 0 --seconds 40 --trace 0

Workloads (closed loop, one caller, each frame stepped after the previous):
  steady-belt       ``run_pipeline`` from a detection JSONL file to verdict
                    and summary files (the ``beltrack track`` path), on two
                    files of a dense, noisy belt.
  cluttered-oracle  ``evaluate_against_truth`` on three dense, noisy scenes.

Set-up runs here, three times: scene generation, plus the JSONL write on
steady-belt. Its median is ``setup_s``. The measured calls run in a fresh
child process (``worker.py``), so ``peak_rss_mb`` is that process's own.
Calls repeat until ``--seconds`` have passed and every input unit ran once.
Every call's outputs are checked against stored outputs (``expected.json``),
against a stored reference scene, and against earlier calls on the same
input. The metric names, units and their order come from BENCHMARK.json.

Untraced metrics: ``frames_per_s`` is tracker steps per wall second over all
measured calls; ``frame_ms_p90`` is the 90th percentile of
``ByteTracker.step`` latency. The report also prints the step latency p50
and p99 with their sample count, ``failed_ops_ratio`` with both counts, and
on cluttered-oracle ``id_switches``, ``vote_gain_pp`` (aggregated minus
last-frame binary accuracy, in percentage points, pooled over the scenes)
and the known-defect probe: a jittered scene whose truth starts before frame
0. The probe runs outside the measured calls and counts in the printed
``failed_ops_ratio``, not in the result line's ``failed``.

Everything but the last line is a human-readable report. The last line is
one JSON object with the keys correct, attempted, failed and metrics. A full
record of the run, machine details included, is written under
``.perfbench_work/results/``; a traced run also writes its spans there and
records each wrapped function's calls, total and self seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
#: A run must end within 180 s; leave the rest for set-up and reporting.
WORKER_DEADLINE_S = 170.0


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny scenes for a quick check of the benchmark itself",
    )
    return parser.parse_args(argv)


def set_up(workloads, args, workdir: Path) -> dict:
    """Generate the inputs SETUP_REPEATS times, timing each step, and leave
    the last copy where the worker reads it."""
    generate_s, write_s = [], []
    input_paths = None
    for _ in range(SETUP_REPEATS):
        scenes = None  # release the previous copy first
        start = time.perf_counter()
        scenes = workloads.generate(args.workload, args.seed, args.size)
        generate_s.append(time.perf_counter() - start)
        if args.workload == "steady-belt":
            start = time.perf_counter()
            input_paths = workloads.write_input(scenes, workdir, "detections")
            write_s.append(time.perf_counter() - start)
    setup_s = [g + w for g, w in zip(generate_s, write_s or [0.0] * len(generate_s))]
    described = {
        "scenes": len(scenes),
        "frames": sum(len(frames) for _, frames in scenes),
        "detections": sum(len(f.detections) for _, frames in scenes for f in frames),
        "truth_objects": sum(len(gt.objects) for gt, _ in scenes),
    }
    if args.workload == "steady-belt":
        described["jsonl_files"] = len(input_paths)
        described["jsonl_bytes"] = sum(path.stat().st_size for path in input_paths)
        described["jsonl_lines"] = described["detections"]
    with open(workdir / "units.pickle", "wb") as handle:
        pickle.dump(workloads.units(args.workload, scenes, input_paths), handle)
    return {
        "setup_s": setup_s,
        "generate_s": generate_s,
        "write_s": write_s,
        "input": described,
    }


def frames_per_s(calls: list[dict]) -> float:
    """Tracker steps per wall second over all the measured calls."""
    return sum(c["steps"] for c in calls) / sum(c["wall_s"] for c in calls)


def end_to_end(result: dict, setup: dict) -> dict:
    return {
        "setup_s": statistics.median(setup["setup_s"]),
        "frames_per_s": frames_per_s(result["calls"]),
        "frame_ms_p90": result["step_ms"]["p90"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(result: dict, setup: dict, quality: dict | None) -> dict:
    """Layer metrics of the traced pass. Times are given in seconds only for
    layers every workload exercises; the others are shares of the traced
    pass (or of set-up), which read 0 where a workload skips the layer."""
    spans, counts = result["spans"], result["counts"]
    pass_s = sum(c["wall_s"] for c in result["traced_calls"])

    def total(name):
        return spans[name]["total_s"]

    def calls(name):
        return spans[name]["calls"]

    def share(name, key="total_s"):
        return spans[name][key] / pass_s

    ingest_calls = calls("io.ingest_detections")
    # The traced pass ingests each JSONL file once.
    ingest_passes = ingest_calls // setup["input"].get("jsonl_files", 1)
    proposed = counts.get("assignment.proposed_pairs", 0)
    steps = calls("tracker.step")
    labeled = counts.get("tracker.labeled_tracks", 0)
    untraced_fps = frames_per_s(result["calls"])
    traced_fps = frames_per_s(result["traced_calls"])
    setup_s = statistics.median(setup["setup_s"])
    return {
        "io.ingest_calls": ingest_calls,
        "io.ingest_lines": ingest_passes * setup["input"].get("jsonl_lines", 0),
        "io.ingest_bytes": ingest_passes * setup["input"].get("jsonl_bytes", 0),
        "io.ingest_share": share("io.ingest_detections"),
        "kalman.predict_calls": calls("kalman.predict"),
        "kalman.predict_s": total("kalman.predict"),
        "kalman.update_calls": calls("kalman.update"),
        "kalman.update_s": total("kalman.update"),
        "kalman.state_to_box_calls": calls("kalman.state_to_box"),
        "kalman.state_to_box_s": total("kalman.state_to_box"),
        "kalman.initiate_calls": calls("kalman.initiate"),
        "model.iou_matrix_s": total("model.iou_matrix"),
        "model.iou_calls": counts.get("model.iou", 0),
        "assignment.cost_cells": counts.get("assignment.cost_cells", 0),
        "assignment.cost_matrix_s": total("assignment.cost_matrix"),
        "assignment.solve_calls": calls("assignment.solve"),
        "assignment.solve_empty_calls": counts.get("assignment.solve_empty_calls", 0),
        "assignment.solve_s": total("assignment.solve"),
        "assignment.gated_ratio": (
            (proposed - counts.get("assignment.accepted_pairs", 0)) / proposed if proposed else 0.0
        ),
        "assignment.round1_matches": counts.get("assignment.round1_matches", 0),
        "assignment.round2_matches": counts.get("assignment.round2_matches", 0),
        "tracker.step_calls": steps,
        "tracker.step_s": total("tracker.step"),
        "tracker.step_self_s": spans["tracker.step"]["self_s"],
        "tracker.active_tracks_mean": (
            counts.get("tracker.active_track_frames", 0) / steps if steps else 0.0
        ),
        "tracker.removed_tracks": counts.get("tracker.removed_tracks", 0),
        "tracker.step_ms_late_over_early": result["step_ms_late_over_early"],
        "tracker.step_ms_p50": result["step_ms"]["p50"],
        "tracker.step_ms_p99": result["step_ms"]["p99"],
        "tracker.id_switches": quality["id_switches"] if quality else 0,
        "aggregation.vote_calls": calls("aggregation.vote"),
        "aggregation.vote_s": total("aggregation.vote"),
        "aggregation.votes_per_labeled_track": calls("aggregation.vote") / labeled if labeled else 0.0,
        "aggregation.vote_gain_pp": quality["vote_gain_pp"] if quality else 0.0,
        "metrics.detection_map_share": share("metrics.detection_map"),
        "metrics.id_switches_share": share("metrics.id_switches"),
        "metrics.stability_report_share": share("metrics.stability_report"),
        "pipeline.run_pipeline_self_share": share("pipeline.run_pipeline", "self_s"),
        "pipeline.run_stream_share": share("pipeline.run_stream"),
        "pipeline.evaluate_self_share": share("pipeline.evaluate", "self_s"),
        "pipeline.write_verdicts_share": share("pipeline.write_verdicts"),
        "pipeline.write_summary_share": share("pipeline.write_summary"),
        "simulate.generate_scene_s": statistics.median(setup["generate_s"]),
        "io.write_detections_share": (
            statistics.median(setup["write_s"]) / setup_s if setup["write_s"] else 0.0
        ),
        "trace.frames_per_s": traced_fps,
        "trace.untraced_frames_per_s": untraced_fps,
        "trace.overhead_ratio": untraced_fps / traced_fps,
        "trace.spans": result["span_count"],
        "probe.known_defect_failures": int(bool(result.get("known_defect_probe"))),
    }


def report(args, spec: dict, setup: dict, result: dict, quality: dict | None) -> list[str]:
    """The human-readable part of the output, before the metric lines."""
    m = result["machine"]
    lines = [
        f"perfbench {args.workload} seed={args.seed} size={args.size} "
        f"seconds={args.seconds:g} trace={args.trace}",
        f"machine: nproc={m['nproc']} cpu={m['cpu']!r} python={m['python']} "
        f"numpy={m['numpy']} scipy={m['scipy']} blas_threads={m['blas_threads']} "
        f"process_threads={m['process_threads_end']}",
        "input: " + " ".join(f"{k}={v}" for k, v in setup["input"].items()),
    ]
    walls = [c["wall_s"] for c in result["calls"]]
    lines.append(
        f"measured calls: {len(walls)} in {sum(walls):.2f} s "
        f"({result['calls'][0]['steps']} tracker steps per call on unit 0); "
        f"step latency samples: {result['step_ms']['samples']}"
    )
    attempted, failed = result["attempted"], result["failed"]
    probe = result.get("known_defect_probe")
    probe_failed = int(bool(probe))
    probe_attempted = int(args.workload == "cluttered-oracle")
    total_attempted = attempted + probe_attempted
    lines.append(
        f"failed_ops_ratio {(failed + probe_failed) / total_attempted:.4f} ratio "
        f"({failed + probe_failed} failed / {total_attempted} attempted; "
        f"known-defect probe failures: {probe_failed})"
    )
    if probe_attempted:
        lines.append(f"known_defect_probe: {probe or 'passed'}")
    for pct in ("p50", "p99"):
        lines.append(
            f"frame_ms_{pct} {result['step_ms'][pct]:.6g} ms ({result['step_ms']['samples']} samples)"
        )
    if quality:
        lines.append(f"id_switches {quality['id_switches']} count ({quality['objects']} objects)")
        lines.append(f"vote_gain_pp {quality['vote_gain_pp']:.4f} pp")
    checks = "stored outputs for this seed" if spec["expected"] else "no stored outputs for this seed"
    ref = "reference scene checked" if result["reference_checked"] else "no stored reference scene"
    lines.append(f"output checks: {checks}; {ref}; repeated calls compared")
    lines += [f"FAILED CHECK: {problem}" for problem in result["problems"]]
    return lines


def main(argv=None) -> int:
    spec_file = ROOT / "BENCHMARK.json"
    if not spec_file.is_file():
        print(f"perfbench: {spec_file} is missing", file=sys.stderr)
        return 2
    benchmark = json.loads(spec_file.read_text())
    args = parse_args(argv, [w["name"] for w in benchmark["workloads"]])
    src = ROOT / "src"
    if not (src / "beltrack" / "__init__.py").is_file():
        print(f"perfbench: no beltrack sources under {src}", file=sys.stderr)
        return 2
    metric_spec = benchmark["per_layer" if args.trace else "end_to_end"]
    # One process, single-threaded BLAS: the child inherits this.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import workloads

    started = time.perf_counter()
    workdir = WORK_ROOT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    results_dir = WORK_ROOT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    workdir.mkdir(parents=True)
    stem = f"{args.workload}-seed{args.seed}-{args.size}-trace{args.trace}"
    try:
        setup = set_up(workloads, args, workdir)
        spec = {
            "workload": args.workload,
            "seconds": args.seconds,
            "trace": args.trace,
            "src": str(src),
            "workdir": str(workdir),
            "expected": workloads.load_expected(args.workload, args.size, args.seed),
            "spans_path": str(results_dir / f"{stem}-spans.npz"),
        }
        spec_path = workdir / "spec.json"
        spec_path.write_text(json.dumps(spec))
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path)],
            check=True,
            timeout=WORKER_DEADLINE_S - (time.perf_counter() - started),
        )
        result = json.loads((workdir / "result.json").read_text())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as error:
        print(f"perfbench: worker failed: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not result["calls"]:
        print("perfbench: no measured call completed", file=sys.stderr)
        for problem in result["problems"]:
            print(problem, file=sys.stderr)
        return 1

    quality = None
    if args.workload == "cluttered-oracle":
        first_pass = result["calls"][: setup["input"]["scenes"]]
        quality = workloads.quality([c["output"] for c in first_pass])
    values = per_layer(result, setup, quality) if args.trace else end_to_end(result, setup)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_spec}

    lines = report(args, spec, setup, result, quality)
    width = max(len(name) for name in metrics)
    for name, metric in metrics.items():
        lines.append(f"{name:<{width}} {metric['value']:.6g} {metric['unit']}")
    print("\n".join(lines))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": result["machine"],
        "input": setup["input"],
        "setup_s": setup["setup_s"],
        "call_walls_s": [c["wall_s"] for c in result["calls"]],
        "step_ms": result["step_ms"],
        "quality": quality,
        "known_defect_probe": result.get("known_defect_probe"),
        "problems": result["problems"],
        "spans": result.get("spans"),
        "metrics": metrics,
    }
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
