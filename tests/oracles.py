"""Independent reference implementations used to check the fast paths,
and builders of the package's columnar values from rows.

IoU by counting raster cells and assignment by exhaustive permutation
search share no code with the package, and scipy's
``linear_sum_assignment`` (which the package does not use) is the reference
for the solver's optimum. The scalar ``iou`` of two boxes is checked against
the package's ``iou_matrix``, and the metric references are plain loops over
it, checked against the package's ``iou_matrix`` versions. The Kalman
references step one filter with dense 8x8 matrix products, converting its
per-axis blocks to the dense covariance and back, checked against the
package's batched per-axis filter. The scalar ingest reference parses and
checks one line at a time into ``Detection`` rows, checked against the
package's table-at-once check, and ``detection_row`` checks one table row
the same way. The per-line readers call ``json.loads`` once per line, as
the package's JSONL readers do only for a block with a bad line, and are
checked against the block parse. The vote reference counts a track's labels
one by one, checked against the package's ``bincount`` over the track's
category column.
"""

import json
import math
from array import array
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
    decode_boxes,
)
import beltrack.io as bio
from beltrack.model import category_labels
from beltrack.simulate import SceneGroundTruth

#: The default categories, in index order.
FRESH, BRUISE, ROT, SCAB = category_labels(4)


def frame_of(frame_index, rows=(), num_categories=4):
    """A frame from (x, y, w, h, score) or (x, y, w, h, score, category)
    tuples; the category is an index, a ``CategoryLabel`` or None (no
    label)."""
    categories = [getattr(row[5], "index", row[5]) if len(row) > 5 else None for row in rows]
    return FrameDetections(
        frame_index,
        np.array([row[:4] for row in rows], dtype=float).reshape(-1, 4),
        [row[4] for row in rows],
        [-1 if c is None else c for c in categories],
        num_categories,
    )


def frames_of(rows, num_categories=4):
    """Frames in frame order from (frame, x, y, w, h, score[, category])
    tuples, each frame's rows in the order given."""
    grouped = {}
    for row in rows:
        grouped.setdefault(row[0], []).append(row[1:])
    return [frame_of(t, grouped[t], num_categories) for t in sorted(grouped)]


def detection(frame_index, box, score, label):
    """A ``Detection`` of a checked box and label, once its frame index and
    score are checked."""
    if frame_index < 0:
        raise ValueError(f"frame_index must be >= 0, got {frame_index}")
    if not 0.0 <= score <= 1.0:
        raise ValueError(f"score must be in [0, 1], got {score}")
    return Detection(frame_index, box, score, label)


def detection_row(frame_index, box, score, category, num_categories):
    """One table row as a checked ``Detection``; category -1 is no label."""
    label = None if category == -1 else CategoryLabel(category, num_categories)
    return detection(frame_index, BoundingBox(*box), score, label)


def decoded_box(state: KalmanState) -> list[float]:
    """One filter's state as the (x, y, w, h) box ``decode_boxes`` gives;
    asserts that the state encodes one."""
    boxes, valid = decode_boxes(state.mean[:, None])
    assert valid[0], f"state encodes no box: {state.mean[:4]}"
    return boxes[[0, 1, 6, 7], 0].tolist()


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


def kf_update_reference(state: KalmanState, observed) -> KalmanState:
    """One filter's Joseph-form measurement update with dense matrices, on
    an observed (x, y, w, h) box."""
    h = state.mean[3]
    r = np.diag(np.full(4, (_MEASUREMENT_STD * h) ** 2))
    x, y, w, box_h = observed
    measurement = np.array([x + w / 2.0, y + box_h / 2.0, w / box_h, box_h])
    innovation = measurement - _H @ state.mean
    prior = dense_covariance(state.blocks)
    s = _H @ prior @ _H.T + r
    gain = np.linalg.solve(s.T, (_H @ prior)).T
    mean = state.mean + gain @ innovation
    i_kh = np.eye(8) - gain @ _H
    covariance = i_kh @ prior @ i_kh.T + gain @ r @ gain.T
    return KalmanState(mean=mean, blocks=per_axis_blocks(0.5 * (covariance + covariance.T)))


def stacked(states: list[KalmanState]) -> KalmanState:
    """Single filters as one batch, column i (the last axis) the i-th filter."""
    return KalmanState(
        mean=np.stack([s.mean for s in states], axis=-1),
        blocks=np.stack([s.blocks for s in states], axis=-1),
    )


def pixel_iou(a, b) -> float:
    """IoU of integer-coordinate (x, y, w, h) boxes by counting unit cells
    on a grid."""
    (ax, ay, aw, ah), (bx, by, bw, bh) = a, b
    x0 = int(min(ax, bx))
    y0 = int(min(ay, by))
    x1 = int(max(ax + aw, bx + bw))
    y1 = int(max(ay + ah, by + bh))
    grid_a = np.zeros((y1 - y0, x1 - x0), dtype=bool)
    grid_b = np.zeros_like(grid_a)
    grid_a[int(ay) - y0 : int(ay + ah) - y0, int(ax) - x0 : int(ax + aw) - x0] = True
    grid_b[int(by) - y0 : int(by + bh) - y0, int(bx) - x0 : int(bx + bw) - x0] = True
    inter = np.logical_and(grid_a, grid_b).sum()
    union = np.logical_or(grid_a, grid_b).sum()
    return float(inter) / float(union)


def iou(a, b) -> float:
    """Intersection over union of two (x, y, w, h) boxes: 0 when disjoint,
    1 when identical.

    Areas are computed from the same corner coordinates the intersection
    uses, so identical boxes score exactly 1.0 under floating point; the
    union is summed over halved areas so that it cannot overflow.
    """
    (ax, ay, aw, ah), (bx, by, bw, bh) = a, b
    a_right, a_bottom = ax + aw, ay + ah
    b_right, b_bottom = bx + bw, by + bh
    iw = min(a_right, b_right) - max(ax, bx)
    ih = min(a_bottom, b_bottom) - max(ay, by)
    inter = iw * ih
    if iw <= 0.0 or ih <= 0.0 or inter == 0.0:  # disjoint, or too small for a float
        return 0.0
    area_a = (a_right - ax) * (a_bottom - ay)
    area_b = (b_right - bx) * (b_bottom - by)
    return inter / 2 / (area_a / 2 + area_b / 2 - inter / 2)


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
        for t, box in zip(track.frames.tolist(), track.boxes.tolist()):
            by_frame.setdefault(t, []).append((track.id, box))
    coverage = {}
    for obj in gt.objects:
        ids = []
        for t, gt_box in zip(obj.frames.tolist(), obj.boxes.tolist()):
            best_id, best_overlap = None, 0.0
            for track_id, box in by_frame.get(t, []):
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
        gt_boxes.setdefault(f.frame_index, []).extend(f.boxes.tolist())
    n_gt = sum(len(boxes) for boxes in gt_boxes.values())
    flat = [
        (score, f.frame_index, box)
        for f in dets
        for box, score in zip(f.boxes.tolist(), f.scores.tolist())
    ]
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
    return detection(frame, box, numbers["score"], label)


def ingest_detections_scalar_reference(path, *, skip_malformed=False, num_categories=4):
    """``ingest_detections`` as a per-line loop: each line is parsed and
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
    return frames_of(
        [
            (d.frame_index, d.box.x, d.box.y, d.box.w, d.box.h, d.score, d.category_observation)
            for d in detections
        ],
        num_categories,
    )


def ingest_detections_reference(path, *, skip_malformed=False, num_categories=4):
    """``ingest_detections`` with one ``json.loads`` per line: each line
    parsed by ``bio._parse_line``, the first parse error ending the
    read unless ``skip_malformed``, the rows checked as one table."""
    path = Path(path)
    if not path.exists():
        raise InputError(f"detection file not found: {path}")
    rows, line_numbers = array("d"), array("q")
    errors = []
    with path.open(encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                rows.extend(bio._parse_line(line, bio.DETECTION_FIELDS, "category"))
            except (ValueError, OverflowError) as exc:
                errors.append((line_number, bio._line_error(exc)))
                if not skip_malformed:
                    break  # an earlier line may still fail the table check
                continue
            line_numbers.append(line_number)
    table = np.frombuffer(rows).reshape(-1, len(bio._COLUMNS))
    lines = np.frombuffer(line_numbers, dtype=np.int64)
    return bio._frames_from_table(path, table, lines, errors, skip_malformed, num_categories)


def read_ground_truth_reference(path, num_categories=4):
    """``read_ground_truth`` with one ``json.loads`` per line: each line
    parsed by ``bio._parse_line``, checked by ``bio._check_truth_row`` and
    then against the lines before it, the first bad line aborting the read."""
    path = Path(path)
    if not path.exists():
        raise InputError(f"ground-truth file not found: {path}")
    rows = array("d")
    categories = {}
    seen = set()
    with path.open(encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                row = bio._parse_line(line, bio.TRUTH_FIELDS, None)
                bio._check_truth_row(row)
                category = CategoryLabel(int(row[-1]), num_categories)
            except (ValueError, OverflowError) as exc:
                raise InputError(f"{path}:{line_number}: {bio._line_error(exc)}") from exc
            frame, object_id = int(row[0]), int(row[1])
            if categories.setdefault(object_id, category) != category:
                raise InputError(
                    f"{path}:{line_number}: object {object_id} changes category "
                    f"({categories[object_id].index} -> {category.index})"
                )
            if (object_id, frame) in seen:
                raise InputError(
                    f"{path}:{line_number}: object {object_id} appears twice on frame {frame}"
                )
            seen.add((object_id, frame))
            rows.extend(row)
    table = np.frombuffer(rows).reshape(-1, len(bio.TRUTH_FIELDS))
    frames, object_ids = table[:, 0].astype(np.int64), table[:, 1].astype(np.int64)
    order = np.lexsort((frames, object_ids))
    ids, counts = np.unique(object_ids, return_counts=True)
    return SceneGroundTruth(
        ids,
        [categories[object_id].index for object_id in ids.tolist()],
        counts,
        frames[order],
        table[order, 2:6],
        num_categories,
    )
