"""Independent reference implementations used to check the fast paths.

IoU by counting raster cells and assignment by exhaustive permutation
search share no code with the package, and scipy's
``linear_sum_assignment`` (which the package does not use) is the reference
for the solver's optimum. The metric references are plain loops over the
pairwise ``iou``, checked against the package's
``iou_matrix`` versions. The Kalman references step one filter with dense
8x8 matrix products, converting its per-axis blocks to the dense covariance
and back, checked against the package's batched per-axis filter. The
ingest reference parses and checks one line at a time into ``Detection``
rows, checked against the package's table-at-once parse. The vote
reference counts a track's labels one by one, checked against the
package's ``bincount`` over the track's category column.
"""

import json
import math
from itertools import permutations
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

from beltrack import (
    BoundingBox,
    CategoryLabel,
    Detection,
    FrameDetections,
    InputError,
    KalmanState,
    iou,
)

# The filter's fixed noise weights (ByteTrack's), restated for the references.
_POSITION_STD = 1.0 / 20
_VELOCITY_STD = 1.0 / 160
_MEASUREMENT_STD = 1.0 / 20
_F = np.eye(8)
_F[:4, 4:] = np.eye(4)
_H = np.eye(4, 8)


def dense_covariance(blocks: np.ndarray) -> np.ndarray:
    """One filter's (3, 4) per-axis blocks (rows pp, pv, vv) as the dense 8x8
    covariance over (cx, cy, a, h, vcx, vcy, va, vh)."""
    dense = np.zeros((8, 8))
    for axis in range(4):
        pp, pv, vv = blocks[:, axis]
        dense[axis, axis], dense[axis + 4, axis + 4] = pp, vv
        dense[axis, axis + 4] = dense[axis + 4, axis] = pv
    return dense


def per_axis_blocks(dense: np.ndarray) -> np.ndarray:
    """The (3, 4) per-axis blocks of one filter's dense 8x8 covariance.
    Asserts that every entry outside the blocks is exactly 0 and that the
    blocks are symmetric, so nothing is lost."""
    axes = np.arange(4)
    blocks = np.array([dense[axes, axes], dense[axes, axes + 4], dense[axes + 4, axes + 4]])
    assert np.array_equal(dense[axes + 4, axes], blocks[1]), "asymmetric block"
    outside = dense - dense_covariance(blocks)
    assert not outside.any(), f"nonzero entry outside the blocks: {np.abs(outside).max()}"
    return blocks


def kf_predict_reference(state: KalmanState) -> KalmanState:
    """One filter's predict as the dense product F P F^T + Q."""
    h = state.mean[3]
    q_std = np.array([_POSITION_STD * h] * 4 + [_VELOCITY_STD * h] * 4)
    mean = _F @ state.mean
    covariance = _F @ dense_covariance(state.blocks) @ _F.T + np.diag(q_std**2)
    return KalmanState(mean=mean, blocks=per_axis_blocks(0.5 * (covariance + covariance.T)))


def kf_update_reference(state: KalmanState, observed: BoundingBox) -> KalmanState:
    """One filter's Joseph-form measurement update with dense matrices."""
    h = state.mean[3]
    r = np.diag(np.full(4, (_MEASUREMENT_STD * h) ** 2))
    measurement = np.array([observed.cx, observed.cy, observed.w / observed.h, observed.h])
    innovation = measurement - _H @ state.mean
    prior = dense_covariance(state.blocks)
    s = _H @ prior @ _H.T + r
    gain = np.linalg.solve(s.T, (_H @ prior)).T
    mean = state.mean + gain @ innovation
    i_kh = np.eye(8) - gain @ _H
    covariance = i_kh @ prior @ i_kh.T + gain @ r @ gain.T
    return KalmanState(mean=mean, blocks=per_axis_blocks(0.5 * (covariance + covariance.T)))


def stacked(states: list[KalmanState]) -> KalmanState:
    """Single filters as one batch, row i the i-th filter."""
    return KalmanState(
        mean=np.stack([s.mean for s in states]), blocks=np.stack([s.blocks for s in states])
    )


def pixel_iou(a: BoundingBox, b: BoundingBox) -> float:
    """IoU of integer-coordinate boxes by counting unit cells on a grid."""
    x0 = int(min(a.x, b.x))
    y0 = int(min(a.y, b.y))
    x1 = int(max(a.x + a.w, b.x + b.w))
    y1 = int(max(a.y + a.h, b.y + b.h))
    grid_a = np.zeros((y1 - y0, x1 - x0), dtype=bool)
    grid_b = np.zeros_like(grid_a)
    grid_a[int(a.y) - y0 : int(a.y + a.h) - y0, int(a.x) - x0 : int(a.x + a.w) - x0] = True
    grid_b[int(b.y) - y0 : int(b.y + b.h) - y0, int(b.x) - x0 : int(b.x + b.w) - x0] = True
    inter = np.logical_and(grid_a, grid_b).sum()
    union = np.logical_or(grid_a, grid_b).sum()
    return float(inter) / float(union)


def brute_force_assignment(costs: np.ndarray) -> tuple[float, list[tuple[int, int]]]:
    """Minimum-total-cost matching of cardinality min(rows, cols) by trying
    every permutation. Feasible up to about 8x8."""
    costs = np.asarray(costs, dtype=float)
    n_rows, n_cols = costs.shape
    if n_rows == 0 or n_cols == 0:
        return 0.0, []
    best_total, best_pairs = np.inf, []
    if n_rows <= n_cols:
        for cols in permutations(range(n_cols), n_rows):
            total = sum(costs[i, c] for i, c in enumerate(cols))
            if total < best_total:
                best_total = total
                best_pairs = [(i, c) for i, c in enumerate(cols)]
    else:
        for rows in permutations(range(n_rows), n_cols):
            total = sum(costs[r, j] for j, r in enumerate(rows))
            if total < best_total:
                best_total = total
                best_pairs = [(r, j) for j, r in enumerate(rows)]
    best_pairs = sorted(best_pairs)
    # canonical row-major summation so exact-equality comparisons are
    # insensitive to float association order
    return float(sum(costs[r, c] for r, c in best_pairs)), best_pairs


def scipy_assignment(costs: np.ndarray) -> tuple[float, list[tuple[int, int]]]:
    """scipy's minimum-total-cost matching of min(rows, cols) pairs, as
    (total, sorted pairs), summed row-major like ``brute_force_assignment``."""
    rows, cols = linear_sum_assignment(np.asarray(costs, dtype=float))
    pairs = sorted(zip(rows.tolist(), cols.tolist()))
    return float(sum(costs[r, c] for r, c in pairs)), pairs


def covering_tracks_reference(tracks, gt, iou_threshold=0.5):
    """``metrics.covering_tracks`` as a loop: for every (object, frame), the
    track with the best overlap at or above the threshold, lowest id on ties."""
    by_frame = {}
    for track in tracks:
        for frame, box in track.history:
            by_frame.setdefault(frame, []).append((track.id, box))
    coverage = {}
    for obj in gt.objects:
        ids = []
        for frame, gt_box in obj.history:
            best_id, best_overlap = None, 0.0
            for track_id, box in by_frame.get(frame, []):
                overlap = iou(box, gt_box)
                if overlap < iou_threshold:
                    continue
                if (
                    best_id is None
                    or overlap > best_overlap
                    or (overlap == best_overlap and track_id < best_id)
                ):
                    best_id, best_overlap = track_id, overlap
            if best_id is not None:
                ids.append(best_id)
        if ids:
            coverage[obj.object_id] = ids
    return coverage


def detection_map_reference(dets, gt, iou_threshold=0.5):
    """``metrics.detection_map`` as a loop: one sweep over all detections in
    descending score order, each taking the best still-free truth box.
    Several ``gt`` entries for one frame pool their boxes."""
    gt_boxes = {}
    for f in gt:
        gt_boxes.setdefault(f.frame_index, []).extend(d.box for d in f.detections)
    n_gt = sum(len(boxes) for boxes in gt_boxes.values())
    flat = [(det.score, f.frame_index, det.box) for f in dets for det in f.detections]
    flat.sort(key=lambda item: -item[0])
    gt_taken = {frame: [False] * len(boxes) for frame, boxes in gt_boxes.items()}
    tp = np.zeros(len(flat))
    for k, (_, frame, box) in enumerate(flat):
        best_iou, best_j = 0.0, -1
        for j, gt_box in enumerate(gt_boxes.get(frame, [])):
            if gt_taken[frame][j]:
                continue
            overlap = iou(box, gt_box)
            if overlap >= iou_threshold and overlap > best_iou:
                best_iou, best_j = overlap, j
        if best_j >= 0:
            gt_taken[frame][best_j] = True
            tp[k] = 1.0
    cum_tp = np.cumsum(tp)
    cum_fp = np.cumsum(1.0 - tp)
    recall = cum_tp / n_gt
    precision = cum_tp / np.maximum(cum_tp + cum_fp, 1.0)
    mrec = np.concatenate(([0.0], recall, [1.0]))
    mpre = np.concatenate(([0.0], precision, [0.0]))
    for i in range(len(mpre) - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    steps = np.nonzero(mrec[1:] != mrec[:-1])[0]
    return float(np.sum((mrec[steps + 1] - mrec[steps]) * mpre[steps + 1]))


def majority_vote_reference(labels, num_categories, tie_break, collapse_first):
    """``aggregation.majority_vote`` as a loop over category indices: the
    vote counts and the winning index."""
    counts = [0] * num_categories
    for label in labels:
        counts[label] += 1
    if collapse_first:
        normal_votes, defect_votes = counts[0], sum(counts[1:])
        if defect_votes > normal_votes or (
            defect_votes == normal_votes and tie_break == "prefer_defect"
        ):
            return counts, counts.index(max(counts[1:]), 1)
        return counts, 0
    tied = [c for c in range(num_categories) if counts[c] == max(counts)]
    if tie_break == "prefer_defect" and len(tied) > 1 and tied[0] == 0:
        return counts, tied[1]  # the lowest tied defect
    return counts, tied[0]


_DETECTION_FIELDS = ("frame", "x", "y", "w", "h", "score")


def _whole_number(name, value):
    if not value.is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if abs(value) >= 2.0**53:
        raise ValueError(f"{name} is out of range, got {value!r}")
    return int(value)


def _reference_detection(line, num_categories):
    """One JSONL line as a checked ``Detection``, every check in the order
    the package makes it."""
    record = json.loads(line)
    if not isinstance(record, dict):
        raise ValueError("expected a JSON object")
    for key in _DETECTION_FIELDS:
        if key not in record:
            raise ValueError(f"missing field {key!r}")
    fields = {key: record[key] for key in _DETECTION_FIELDS}
    if record.get("category") is not None:
        fields["category"] = record["category"]
    for key, value in fields.items():
        if type(value) not in (int, float):
            raise ValueError(f"{key} must be a number, got {json.dumps(value)}")
    numbers = {key: float(value) for key, value in fields.items()}
    if "category" in numbers and math.isnan(numbers["category"]):
        raise ValueError(f"category must be an integer, got {numbers['category']!r}")
    frame = _whole_number("frame", numbers["frame"])
    label = None
    if "category" in numbers:
        label = CategoryLabel(_whole_number("category", numbers["category"]), num_categories)
    box = BoundingBox(numbers["x"], numbers["y"], numbers["w"], numbers["h"])
    return Detection(frame, box, numbers["score"], label)


def ingest_detections_reference(path, *, skip_malformed=False, num_categories=4):
    """``io.ingest_detections`` as a per-line loop: each line is parsed and
    checked on its own into a ``Detection``, then the rows are grouped by
    frame in file order."""
    path = Path(path)
    detections = []
    with path.open(encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                detections.append(_reference_detection(line, num_categories))
            except json.JSONDecodeError as exc:
                if not skip_malformed:
                    raise InputError(f"{path}:{line_number}: invalid JSON ({exc.msg})") from exc
            except (TypeError, ValueError, OverflowError) as exc:
                if not skip_malformed:
                    raise InputError(f"{path}:{line_number}: {exc}") from exc
    grouped = {}
    for det in detections:
        grouped.setdefault(det.frame_index, []).append(det)
    return [FrameDetections(frame, grouped[frame]) for frame in sorted(grouped)]
