"""Evaluation metrics: video-level quality reports, detection average
precision, and identity-switch counting against simulator ground truth.

Temporal stability divides the change count by the full track length k (not
k - 1), so a maximally oscillating track scores 1/k rather than 0.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .aggregation import TrackVerdict, frame_wise_verdicts
from .model import BinaryQuality, BoundingBox, FrameDetections, Track, iou_matrix
from .simulate import SceneGroundTruth

FrameChoice = Literal["last", "first", "random"]
StabilityGranularity = Literal["binary", "category"]


@dataclass(frozen=True)
class VideoQualityReport:
    """Track-level quality summary for one video stream."""

    defect_ratio: float
    per_track_stability: dict[int, float]
    mean_stability: float
    n_total_tracks: int
    n_defect_tracks: int


def defect_ratio(verdicts: Sequence[TrackVerdict]) -> float:
    """Fraction of tracks whose final label is defect."""
    if not verdicts:
        raise ValueError("defect ratio is undefined for an empty verdict list")
    n_defect = sum(1 for v in verdicts if v.final_binary is BinaryQuality.DEFECT)
    return n_defect / len(verdicts)


def aggregated_report(verdicts: Sequence[TrackVerdict]) -> VideoQualityReport:
    """Score one video's voted tracks: each reports its verdict on every
    frame, so its label sequence is constant and its stability exactly 1.0."""
    return VideoQualityReport(
        defect_ratio=defect_ratio(verdicts),
        per_track_stability={v.track_id: 1.0 for v in verdicts},
        mean_stability=1.0,
        n_total_tracks=len(verdicts),
        n_defect_tracks=sum(1 for v in verdicts if v.final_binary is BinaryQuality.DEFECT),
    )


def temporal_stability(labels: Sequence) -> float:
    """1 - (number of adjacent label changes) / (sequence length).

    Works on any label sequence (binary or multi-class); a constant sequence
    scores exactly 1.0.
    """
    if len(labels) == 0:
        raise ValueError("temporal stability is undefined for an empty label sequence")
    changes = sum(1 for a, b in zip(labels, labels[1:]) if a != b)
    return 1.0 - changes / len(labels)


def stability_report(
    tracks: Sequence[Track],
    *,
    frame_choice: FrameChoice = "last",
    granularity: StabilityGranularity = "binary",
    rng: np.random.Generator | None = None,
) -> VideoQualityReport:
    """Score one video's tracks frame by frame, without voting.

    Stability is taken over the raw per-frame label sequences, and each
    track is decided by a single frame (``frame_choice``; the default mimics
    an exit-gate camera reading the last frame).
    """
    if not tracks:
        raise ValueError("stability report needs at least one labeled track")
    if frame_choice == "random" and rng is None:
        rng = np.random.default_rng(0)

    per_track: dict[int, float] = {}
    n_defect = 0
    for track in tracks:
        binaries = frame_wise_verdicts(track)
        if granularity == "binary":
            sequence: Sequence = binaries
        else:
            sequence = [label for _, label in track.predictions]
        per_track[track.id] = temporal_stability(sequence)
        if frame_choice == "first":
            final = binaries[0]
        elif frame_choice == "random":
            final = binaries[int(rng.integers(len(binaries)))]
        else:
            final = binaries[-1]
        if final is BinaryQuality.DEFECT:
            n_defect += 1

    return VideoQualityReport(
        defect_ratio=n_defect / len(tracks),
        per_track_stability=per_track,
        mean_stability=float(np.mean(list(per_track.values()))),
        n_total_tracks=len(tracks),
        n_defect_tracks=n_defect,
    )


def detection_map(
    dets: Sequence[FrameDetections],
    gt: Sequence[FrameDetections],
    iou_threshold: float = 0.5,
) -> float:
    """Single-class average precision with all-point interpolation.

    Detections are swept in descending score order (stable on ties, so the
    result depends only on the score ranking); each is greedily matched to
    the highest-IoU unmatched ground-truth box of its frame at the given
    threshold, the lowest index breaking ties. Frames never share a truth
    box, so each frame's detections are swept on their own.
    """
    gt_boxes = {f.frame_index: [d.box for d in f.detections] for f in gt}
    n_gt = sum(len(boxes) for boxes in gt_boxes.values())
    if n_gt == 0:
        raise ValueError("average precision is undefined without ground-truth boxes")

    flat = [(det.score, f.frame_index, det.box) for f in dets for det in f.detections]
    flat.sort(key=lambda item: -item[0])
    ranks_by_frame: dict[int, list[int]] = {}
    for k, (_, frame, _) in enumerate(flat):
        ranks_by_frame.setdefault(frame, []).append(k)

    tp = np.zeros(len(flat))
    for frame, ranks in ranks_by_frame.items():
        truth = gt_boxes.get(frame)
        if not truth:
            continue
        overlap = iou_matrix([flat[k][2] for k in ranks], truth)
        overlap[overlap < iou_threshold] = -1.0  # too little overlap to match
        for row, k in enumerate(ranks):
            j = int(np.argmax(overlap[row]))
            if overlap[row, j] > 0.0:
                tp[k] = 1.0
                overlap[:, j] = -1.0  # this truth box is taken

    cum_tp = np.cumsum(tp)
    cum_fp = np.cumsum(1.0 - tp)
    recall = cum_tp / n_gt
    precision = cum_tp / np.maximum(cum_tp + cum_fp, 1.0)

    # All-point interpolation: integrate the running precision envelope.
    mrec = np.concatenate(([0.0], recall, [1.0]))
    mpre = np.concatenate(([0.0], precision, [0.0]))
    for i in range(len(mpre) - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    steps = np.nonzero(mrec[1:] != mrec[:-1])[0]
    return float(np.sum((mrec[steps + 1] - mrec[steps]) * mpre[steps + 1]))


def covering_tracks(
    tracks: Sequence[Track], gt: SceneGroundTruth, iou_threshold: float = 0.5
) -> dict[int, list[int]]:
    """object_id -> the id of the track covering the object on each frame
    where one does, in frame order; objects no track covers are left out.

    On each (object, frame) the covering track is the one whose box overlaps
    the true box with IoU at or above the threshold, best overlap winning and
    the lowest id breaking ties.
    """
    candidates: dict[int, list[tuple[int, BoundingBox]]] = {}
    for track in tracks:
        for frame, box in track.history:
            candidates.setdefault(frame, []).append((track.id, box))
    truth: dict[int, list[BoundingBox]] = {}
    for obj in gt.objects:
        for frame, box in obj.boxes:
            truth.setdefault(frame, []).append(box)

    # frame -> the covering track id (or None) of each truth box, in object order
    covering: dict[int, list[int | None]] = {}
    for frame, truth_boxes in truth.items():
        # Columns in id order, so argmax's first maximum is the lowest id.
        columns = sorted(candidates.get(frame, []), key=lambda c: c[0])
        if not columns:
            covering[frame] = [None] * len(truth_boxes)
            continue
        overlap = iou_matrix(truth_boxes, [box for _, box in columns])
        best = np.argmax(overlap, axis=1)
        covering[frame] = [
            columns[j][0] if overlap[i, j] >= iou_threshold else None
            for i, j in enumerate(best.tolist())
        ]

    coverage: dict[int, list[int]] = {}
    cursor = {frame: iter(ids) for frame, ids in covering.items()}
    for obj in gt.objects:
        ids = [i for i in (next(cursor[frame]) for frame, _ in obj.boxes) if i is not None]
        if ids:
            coverage[obj.object_id] = ids
    return coverage


def switches_in(coverage: dict[int, list[int]]) -> int:
    """Identity handoffs: how often an object's covering track changes.
    Frames no track covers are skipped, so a gap alone is not a switch."""
    return sum(
        sum(1 for a, b in zip(ids, ids[1:]) if a != b) for ids in coverage.values()
    )


def majority_tracks(coverage: dict[int, list[int]]) -> dict[int, int]:
    """object_id -> the track covering it on the most frames (ties: lowest id)."""
    assignment = {}
    for object_id, ids in coverage.items():
        counts = Counter(ids)
        top = max(counts.values())
        assignment[object_id] = min(t for t, n in counts.items() if n == top)
    return assignment


def count_id_switches(
    tracks: Sequence[Track], gt: SceneGroundTruth, iou_threshold: float = 0.5
) -> int:
    """Identity handoffs over ground-truth objects (see ``covering_tracks``)."""
    return switches_in(covering_tracks(tracks, gt, iou_threshold))
