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

from .aggregation import TrackVerdict
from .model import BinaryQuality, FrameDetections, Track, corners, frame_runs, iou_matrix
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
        labels = track.labels  # temporal_stability rejects an empty sequence
        defects = (labels > 0).tolist()  # the binary collapse: index 0 is normal
        sequence = defects if granularity == "binary" else labels.tolist()
        per_track[track.id] = temporal_stability(sequence)
        if frame_choice == "random":
            n_defect += defects[int(rng.integers(len(defects)))]
        else:
            n_defect += defects[0 if frame_choice == "first" else -1]

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
    box, so each frame's detections are swept on their own. Several ``gt``
    entries for one frame count as one frame holding all their boxes.
    """
    gt_frames, gt_boxes, _ = _columns(gt)
    if len(gt_frames) == 0:
        raise ValueError("average precision is undefined without ground-truth boxes")
    pooled = np.argsort(gt_frames, kind="stable")
    truth = _frame_slices(gt_frames[pooled], corners(gt_boxes[pooled]))

    frames, boxes, scores = _columns(dets)
    order = np.argsort(-scores, kind="stable")  # sweep order: k-th entry has rank k
    ranked_frames = frames[order]
    # Ranks grouped by frame, ascending within each frame.
    by_frame = np.argsort(ranked_frames, kind="stable")
    tp = np.zeros(len(order))
    for frame, ranks in _frame_slices(ranked_frames[by_frame], by_frame).items():
        truth_corners = truth.get(frame)
        if truth_corners is None:
            continue
        overlap = iou_matrix(corners(boxes[order[ranks]]), truth_corners)
        overlap[overlap < iou_threshold] = -1.0  # too little overlap to match
        # A row with no candidate now never gains one: columns only get taken.
        for row in np.flatnonzero((overlap > 0.0).any(axis=1)).tolist():
            j = overlap[row].argmax()
            if overlap[row, j] > 0.0:
                tp[ranks[row]] = 1.0
                overlap[:, j] = -1.0  # this truth box is taken

    cum_tp = np.cumsum(tp)
    cum_fp = np.cumsum(1.0 - tp)
    recall = cum_tp / len(gt_frames)
    precision = cum_tp / np.maximum(cum_tp + cum_fp, 1.0)

    # All-point interpolation: integrate the running precision envelope.
    mrec = np.concatenate(([0.0], recall, [1.0]))
    mpre = np.maximum.accumulate(np.concatenate(([0.0], precision, [0.0]))[::-1])[::-1]
    steps = np.nonzero(mrec[1:] != mrec[:-1])[0]
    return float(np.sum((mrec[steps + 1] - mrec[steps]) * mpre[steps + 1]))


def _columns(frames: Sequence[FrameDetections]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every detection of the frames, in order: frame index, box and score."""
    counts = [len(f.scores) for f in frames]
    return (
        np.repeat(np.array([f.frame_index for f in frames], dtype=np.int64), counts),
        np.concatenate([f.boxes for f in frames] or [np.zeros((0, 4))]),
        np.concatenate([f.scores for f in frames] or [np.zeros(0)]),
    )


def _frame_slices(frame_column: np.ndarray, rows: np.ndarray) -> dict[int, np.ndarray]:
    """frame -> its part of ``rows``, for an ascending frame column aligned
    with ``rows``."""
    return {frame: rows[a:b] for frame, a, b in frame_runs(frame_column)}


def covering_tracks(
    tracks: Sequence[Track], gt: SceneGroundTruth, iou_threshold: float = 0.5
) -> dict[int, list[int]]:
    """object_id -> the id of the track covering the object on each frame
    where one does, in frame order; objects no track covers are left out.

    On each (object, frame) the covering track is the one whose box overlaps
    the true box with IoU at or above the threshold, best overlap winning and
    the lowest id breaking ties.
    """
    # Every track box, ordered by frame and then id, so that argmax's first
    # maximum is the lowest id.
    frames = np.concatenate([np.zeros(0, np.int64), *(track.frames for track in tracks)])
    boxes = np.concatenate([np.zeros((0, 4)), *(track.boxes for track in tracks)])
    track_ids = np.repeat([t.id for t in tracks], [len(t.frames) for t in tracks]).astype(np.int64)
    order = np.lexsort((track_ids, frames))
    track_ids = track_ids[order]
    track_corners = corners(boxes[order])
    candidates = _frame_slices(frames[order], np.arange(len(order)))

    # covering[i] is the covering track of the i-th true box (in the truth's
    # object order), -1 where none covers it.
    truth_corners = corners(gt.boxes)
    covering = np.full(len(gt.frames), -1, dtype=np.int64)
    by_frame = np.argsort(gt.frames, kind="stable")
    for frame, rows in _frame_slices(gt.frames[by_frame], by_frame).items():
        columns = candidates.get(frame)
        if columns is None:
            continue
        overlap = iou_matrix(truth_corners[rows], track_corners[columns])
        best = overlap.argmax(axis=1)
        hit = overlap[np.arange(len(rows)), best] >= iou_threshold
        covering[rows[hit]] = track_ids[columns[best[hit]]]

    coverage: dict[int, list[int]] = {}
    ids = covering.tolist()
    stops = np.cumsum(gt.counts).tolist()
    for object_id, start, stop in zip(gt.object_ids.tolist(), [0, *stops], stops):
        covered = [i for i in ids[start:stop] if i >= 0]
        if covered:
            coverage[object_id] = covered
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

