"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them on
success). The criteria check the solver against an exhaustive oracle, the
geometry against pixel counting, the tracker against simulator ground truth,
and the aggregation gains against their binomial/analytic expectations.
"""

import numpy as np
import pytest

from beltrack import (
    BinaryQuality,
    ByteTracker,
    FrameDetections,
    SimConfig,
    Track,
    TrackStatus,
    aggregated_report,
    decode_boxes,
    evaluate_against_truth,
    kf_initiate,
    kf_predict,
    kf_update,
    majority_vote,
    solve_assignment,
    temporal_stability,
)
from beltrack.cli import main as cli_main
from beltrack.metrics import detection_map
from beltrack.model import corners, iou_matrix
from beltrack.simulate import generate_scene

from oracles import (
    FRESH,
    brute_force_assignment,
    dense_covariance,
    frame_of,
    frames_of,
    pixel_iou,
)

N, D = BinaryQuality.NORMAL, BinaryQuality.DEFECT


def report(number, description, passed):
    print(f"criterion {number:2d} [{'PASS' if passed else 'FAIL'}] {description}")
    assert passed, f"criterion {number} failed: {description}"


def test_criterion_01_assignment_optimality():
    rng = np.random.default_rng(1001)
    ok = True
    for _ in range(1000):
        shape = (int(rng.integers(1, 8)), int(rng.integers(1, 8)))
        costs = rng.uniform(0.0, 1.0, size=shape)
        result = solve_assignment(costs, max_cost=np.inf)
        total = sum(costs[r, c] for r, c in result.matches)
        expected, _ = brute_force_assignment(costs)
        if total != expected:
            ok = False
            break
    report(1, "assignment total cost equals brute-force minimum on 1000 matrices", ok)


def test_criterion_02_iou_pixel_oracle():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(1000):
        a = (int(rng.integers(0, 65)), int(rng.integers(0, 65)),
             int(rng.integers(1, 65)), int(rng.integers(1, 65)))
        b = (int(rng.integers(0, 65)), int(rng.integers(0, 65)),
             int(rng.integers(1, 65)), int(rng.integers(1, 65)))
        overlap = iou_matrix(corners(np.array([a], float)), corners(np.array([b], float)))[0, 0]
        worst = max(worst, abs(overlap - pixel_iou(a, b)))
    report(2, f"iou matches pixel rasterization within 1e-12 (worst {worst:.2e})", worst <= 1e-12)


def asymmetry(matrix):
    return np.max(np.abs(matrix - matrix.T))


def test_criterion_03_kalman_roundtrip_convergence_symmetry():
    rng = np.random.default_rng(1003)

    worst_rt = 0.0
    for _ in range(200):
        box = np.concatenate([rng.uniform(0, 300, 2), rng.uniform(4, 90, 2)])  # x, y, w, h
        decoded, valid = decode_boxes(kf_initiate(box).mean[:, None])
        error = np.abs(decoded[[0, 1, 6, 7], 0] - box).max() if valid[0] else np.inf
        worst_rt = max(worst_rt, error)

    # fixed observation at detection-jitter offset from the initial box
    state = kf_initiate(np.array([50.0, 50.0, 20.0, 20.0]))
    target = np.array([52.0, 51.0, 20.0, 20.0])
    target_measurement = np.array([62.0, 61.0, 1.0, 20.0])  # cx, cy, w / h, h
    residual = np.inf
    for _ in range(50):
        state = kf_update(kf_predict(state), target)
        residual = np.max(np.abs(state.mean[:4] - target_measurement))

    state = kf_initiate(np.array([100.0, 100.0, 30.0, 30.0]))
    worst_asym = 0.0
    for _ in range(1000):
        state = kf_predict(state)
        worst_asym = max(worst_asym, asymmetry(dense_covariance(state.blocks)))
        observed = np.concatenate([rng.uniform(50, 150, 2), rng.uniform(10, 50, 2)])
        state = kf_update(state, observed)
        worst_asym = max(worst_asym, asymmetry(dense_covariance(state.blocks)))

    ok = worst_rt < 1e-9 and residual < 1e-3 and worst_asym < 1e-9
    report(
        3,
        f"kalman round trip {worst_rt:.1e} (<1e-9), convergence {residual:.1e} (<1e-3 in 50), "
        f"symmetry {worst_asym:.1e} (<1e-9)",
        ok,
    )


def test_criterion_04_tracker_identity_preservation():
    failures = []
    for seed in range(20):
        config = SimConfig(
            seed=seed, n_lanes=2, n_objects_per_lane=15, frame_width=150.0,
            belt_velocity=4.0, box_size_mean=36.0, lane_spacing=100.0,
            spawn_interval_frames=20, detection_dropout_prob=0.1, bbox_jitter_std=1.0,
            false_positive_rate=0.0,
        )
        gt, frames = generate_scene(config)
        evaluation = evaluate_against_truth(frames, gt)
        if evaluation.id_switches != 0 or evaluation.n_tracks != evaluation.n_objects:
            failures.append((seed, evaluation.id_switches, evaluation.n_tracks))
    report(
        4,
        f"20 dropout/jitter scenes: 0 id switches and exact track counts (failures: {failures})",
        not failures,
    )


def test_criterion_05_byte_low_confidence_recovery():
    size, velocity = 24.0, 6.0

    def stream(include_lows):
        frames = []
        for t in range(10):
            score = 0.3 if 2 <= t <= 4 else 0.9
            if score < 0.6 and not include_lows:
                frames.append(FrameDetections(t))
                continue
            frames.append(frame_of(t, [(velocity * t, 50.0, size, size, score, FRESH)]))
        return frames

    def track_count(frames):
        tracker = ByteTracker()
        for frame in frames:
            tracker.step(frame)
        return len(tracker.finalize())

    with_lows = track_count(stream(include_lows=True))
    without_lows = track_count(stream(include_lows=False))
    ok = with_lows == 1 and without_lows >= 2
    report(
        5,
        f"score dip: {with_lows} track with lows kept, {without_lows} fragments without",
        ok,
    )


def test_criterion_06_majority_vote_gain():
    # Flip noise q=0.3 over 200 objects with k >= 21: the binomial oracle
    # P(Binom(21, 0.7) >= 11) ~= 0.974 bounds the vote accuracy, while the
    # last-frame baseline is right only when the final flip misses (1 - q).
    aggregated, last_frame = [], []
    min_k = np.inf
    for seed in range(10):
        config = SimConfig(
            seed=seed, n_lanes=2, n_objects_per_lane=100, frame_width=120.0,
            belt_velocity=5.0, box_size_mean=30.0, spawn_interval_frames=20,
            label_flip_prob=0.3,
        )
        gt, frames = generate_scene(config)
        min_k = min(min_k, min(len(obj.boxes) for obj in gt.objects))
        evaluation = evaluate_against_truth(frames, gt)
        aggregated.append(evaluation.aggregated_binary_accuracy)
        last_frame.append(evaluation.last_frame_category_accuracy)

    margins = [a - f for a, f in zip(aggregated, last_frame)]
    mean_last = float(np.mean(last_frame))
    ok = (
        min_k >= 21
        and all(a >= 0.95 for a in aggregated)
        and all(m >= 0.20 for m in margins)
        and 0.65 <= mean_last <= 0.75
    )
    report(
        6,
        f"vote gain over 10 seeds: min aggregated {min(aggregated):.3f} (>=0.95), "
        f"mean last-frame {mean_last:.3f} (0.70+/-0.05), min margin {min(margins):.3f} (>=0.20)",
        ok,
    )


def test_criterion_07_temporal_stability_formula():
    exact = temporal_stability([D, D, D, D]) == 1.0 and temporal_stability([D, N, D, N]) == 0.25

    # All-fresh scene so every flip crosses the binary boundary, making the
    # Bernoulli change-rate expectation 2q(1-q) exact.
    q, k = 0.3, 50
    analytic = 1 - 2 * q * (1 - q) * (k - 1) / k
    values = []
    for seed in (0, 1, 2):
        config = SimConfig(
            seed=seed, n_lanes=2, n_objects_per_lane=40, frame_width=225.0,
            belt_velocity=5.0, box_size_mean=30.0, spawn_interval_frames=20,
            label_flip_prob=q, defect_probability=0.0,
        )
        gt, frames = generate_scene(config)
        assert {len(obj.boxes) for obj in gt.objects} == {k}
        values.append(evaluate_against_truth(frames, gt).mean_frame_wise_stability)

    rng = np.random.default_rng(1007)
    verdicts = []
    for track_id in range(30):
        labels = rng.integers(0, 4, size=int(rng.integers(1, 40)))
        track = Track(
            id=track_id, state=None, status=TrackStatus.REMOVED,
            last_update_frame=len(labels) - 1, hit_count=len(labels),
            frames=np.arange(len(labels), dtype=np.int64),
            boxes=np.tile([0.0, 0.0, 30.0, 30.0], (len(labels), 1)),
            categories=labels.astype(np.int64),
        )
        verdicts.append(majority_vote(track))
    aggregated_exact = aggregated_report(verdicts).mean_stability == 1.0

    worst = max(abs(v - analytic) for v in values)
    ok = exact and worst <= 0.05 and aggregated_exact
    report(
        7,
        f"stability: hand cases exact, frame-wise within {worst:.3f} of analytic "
        f"{analytic:.4f} (<=0.05), aggregated mode exactly 1.0",
        ok,
    )


def test_criterion_08_defect_ratio_recovery():
    deviations = []
    for seed in range(10):
        config = SimConfig(
            seed=100 + seed, n_lanes=5, n_objects_per_lane=100, frame_width=120.0,
            belt_velocity=5.0, box_size_mean=30.0, spawn_interval_frames=15,
            defect_probability=0.3, label_flip_prob=0.1,
        )
        gt, frames = generate_scene(config)
        evaluation = evaluate_against_truth(frames, gt)
        deviations.append(abs(evaluation.estimated_defect_ratio - 0.3))
    ok = all(dev <= 0.06 for dev in deviations)
    report(
        8,
        f"defect ratio over 10 seeds of 500 objects: max deviation {max(deviations):.3f} (<=0.06)",
        ok,
    )


def test_criterion_09_detection_map_sanity():
    def frames_of_squares(entries):
        return frames_of([(frame, x, y, 10, 10, score) for frame, x, y, score in entries])

    gt1 = frames_of_squares([(0, 0, 0, 1.0)])
    perfect = detection_map(gt1, gt1) == 1.0
    tp_then_fp = detection_map(frames_of_squares([(0, 0, 0, 0.9), (0, 80, 80, 0.8)]), gt1) == 1.0
    gt2 = frames_of_squares([(0, 0, 0, 1.0), (0, 50, 50, 1.0)])
    half = detection_map(frames_of_squares([(0, 0, 0, 0.9)]), gt2) == 0.5

    rng = np.random.default_rng(1009)
    invariant = True
    for _ in range(100):
        gt_entries = [
            (int(rng.integers(3)), float(rng.uniform(0, 80)), float(rng.uniform(0, 80)), 1.0)
            for _ in range(int(rng.integers(1, 8)))
        ]
        det_entries = [
            (f, x + float(rng.uniform(-2, 2)), y + float(rng.uniform(-2, 2)),
             float(rng.uniform(0.1, 1.0)))
            for f, x, y, _ in gt_entries if rng.random() < 0.8
        ]
        det_entries += [
            (int(rng.integers(3)), float(rng.uniform(100, 200)), float(rng.uniform(100, 200)),
             float(rng.uniform(0.1, 1.0)))
            for _ in range(int(rng.integers(0, 4)))
        ]
        gt = frames_of_squares(gt_entries)
        dets = frames_of_squares(det_entries)
        baseline = detection_map(dets, gt)
        for transform in (lambda s: s**2, lambda s: s**0.5, lambda s: 0.25 + s / 2):
            rescaled = [
                FrameDetections(f.frame_index, f.boxes, transform(f.scores)) for f in dets
            ]
            if abs(detection_map(rescaled, gt) - baseline) > 1e-12:
                invariant = False

    ok = perfect and tp_then_fp and half and invariant
    report(
        9,
        "detection AP: perfect=1.0, hand PR cases exact, monotone-rescale invariant",
        ok,
    )


def test_criterion_10_determinism(tmp_path):
    sim_args = [
        "simulate", "--seed", "123", "--n-lanes", "2", "--n-objects-per-lane", "8",
        "--frame-width", "150", "--detection-dropout-prob", "0.1",
        "--bbox-jitter-std", "1.0", "--label-flip-prob", "0.2",
    ]
    payloads = []
    for name in ("first", "second"):
        dets = tmp_path / f"{name}_dets.jsonl"
        truth = tmp_path / f"{name}_truth.jsonl"
        verdicts = tmp_path / f"{name}_verdicts.jsonl"
        summary = tmp_path / f"{name}_summary.json"
        assert cli_main(sim_args + ["--output-detections", str(dets), "--output-truth", str(truth)]) == 0
        assert cli_main([
            "track", "--input", str(dets),
            "--output-verdicts", str(verdicts), "--output-summary", str(summary),
        ]) == 0
        payloads.append(
            dets.read_bytes() + truth.read_bytes() + verdicts.read_bytes() + summary.read_bytes()
        )
    ok = payloads[0] == payloads[1]
    report(10, "fixed seed+config reproduces byte-identical stream, verdict, and report files", ok)
