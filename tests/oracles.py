"""Independent reference implementations used to check the fast paths,
and builders of the package's columnar values from rows.

IoU by counting raster cells and assignment by exhaustive permutation
search share no code with the package, and scipy's
``linear_sum_assignment`` (which the package does not use) is the reference
for the solver's optimum. The scalar ``iou`` of two boxes is checked against
the package's ``iou_matrix``, and the metric references are plain loops over
it, checked against the package's candidate-pair join; the object and
track loops of ``evaluate_reference`` (a ``Counter`` majority, one
``temporal_stability`` per track) against the package's array code over
the covering column and the track table. The Kalman
references step one filter with dense 8x8 matrix products, converting its
per-axis blocks to the dense covariance and back, checked against the
package's batched per-axis filter. The scalar checks (``check_box``,
``check_detection_row``, ``check_truth_row``) check one row at a time, in
the package's report order, and are checked against its list of column
checks; the scalar ingest reference parses and checks one line at a time
with them, checked against the package's table-at-once check. The per-line
readers call ``json.loads`` once per line, as the package's JSONL readers
do only for a block with a bad line, and are checked against the block
parse; the ground-truth one checks each line with ``check_truth_row`` and
then against the lines before it. The vote reference counts a track's labels
one by one, checked against the package's one ``bincount`` over the
(track, category) pairs of a whole track table; ``evaluate_reference`` votes
with it. ``table_of`` builds a track table from ``Track``s, and
``stability_report_reference`` scores one track by track, with
``temporal_stability``. ``live_tracks`` reads a tracker's live tables, which
hold the lifecycle of the tracks that are not yet removed. The writer
references call ``json.dumps`` once per record, checked byte for byte
against the package's block formatter. The scene reference runs the
simulator's noise stage as a loop that draws, jitters, clips and flips one
detection row at a time, checked against the package's stream-order draws
applied as columns.
"""

import json
import math
from array import array
from collections import Counter
from itertools import permutations
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from beltrack import (
    AggregationConfig,
    DetectionTable,
    FrameDetections,
    InputError,
    KalmanState,
    SceneEvaluation,
    TrackTable,
    decode_boxes,
    run_stream,
)
import beltrack.io as bio
import beltrack.simulate as simulate
from beltrack.model import category_labels, frame_runs
from beltrack.simulate import SceneGroundTruth

class LiveTrack(NamedTuple):
    """One live track as its tracker's tables hold it."""

    status: int  # a ``beltrack.tracker`` status code: TENTATIVE, ACTIVE or LOST
    hits: int
    last_frame: int  # the last frame it was matched on
    state: KalmanState  # views of its filter in the tracker's filter table


def live_tracks(tracker) -> dict[int, LiveTrack]:
    """A ``ByteTracker``'s live tracks by id, in id order. Each ``state``
    is a view: copy it to keep it past the tracker's next step."""
    filters = KalmanState.view(tracker._filters)
    return {
        track_id: LiveTrack(
            status, hits, last, KalmanState(filters.mean[:, i], filters.blocks[..., i])
        )
        for i, (track_id, status, hits, last) in enumerate(tracker._life.T.tolist())
    }


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


def detections_of(rows, num_categories=4):
    """The detection table of (frame, x, y, w, h, score[, category])
    tuples, each frame's rows in the order given."""
    grouped = {}
    for row in rows:
        grouped.setdefault(row[0], []).append(row[1:])
    return DetectionTable.from_frames(
        [frame_of(t, grouped[t], num_categories) for t in sorted(grouped)]
    )


def check_box(x, y, w, h):
    """Raise ``ValueError`` unless (x, y, w, h) is a box the package accepts:
    every field, edge, the area and the aspect w/h finite, and w, h and w/h
    positive, checked in that order."""
    for name, value in (("x", x), ("y", y), ("w", w), ("h", h)):
        if not math.isfinite(value):
            raise ValueError(f"box field {name!r} must be finite, got {value!r}")
    if w <= 0 or h <= 0:
        raise ValueError(f"box size must be positive, got w={w}, h={h}")
    for name, value in (
        ("right", x + w), ("bottom", y + h), ("area", w * h), ("aspect w/h", w / h)
    ):
        if not math.isfinite(value):
            raise ValueError(f"box {name} must be finite, got {value!r}")
    if not w / h > 0:
        raise ValueError(f"box aspect w/h must be positive, got {w / h!r}")


def check_label(category, num_categories):
    if not 0 <= category < num_categories:
        raise ValueError(f"category index {category} out of range [0, {num_categories})")


def check_detection_row(frame_index, box, score, category, num_categories):
    """Raise ``ValueError`` unless one table row holds a detection, checking
    its label (category None: no label), its box, its frame index and its
    score, in that order."""
    if category is not None:
        check_label(category, num_categories)
    check_box(*box)
    if frame_index < 0:
        raise ValueError(f"frame_index must be >= 0, got {frame_index}")
    if not 0.0 <= score <= 1.0:
        raise ValueError(f"score must be in [0, 1], got {score}")


def check_truth_row(row, num_categories):
    """Raise ``ValueError`` unless a parsed ground-truth row (frame, object
    id, x, y, w, h, category) holds a truth line, checking its whole
    numbers, its label, its box and its frame, in that order."""
    frame, object_id, x, y, w, h, category = row
    for key, value in (("frame", frame), ("object_id", object_id), ("true_category", category)):
        _whole_number(key, value)
    check_label(int(category), num_categories)
    check_box(x, y, w, h)
    if frame < 0:
        raise ValueError(f"frame_index must be >= 0, got {int(frame)}")


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


def table_of(tracks, num_categories=4):
    """A ``TrackTable`` of ``Track``s, in the order given, with their
    category count (``num_categories`` if there are none)."""
    tracks = list(tracks)
    return TrackTable(
        np.array([track.id for track in tracks], dtype=np.int64),
        np.array([len(track.frames) for track in tracks], dtype=np.int64),
        np.concatenate([np.zeros(0, np.int64), *(track.frames for track in tracks)]),
        np.concatenate([np.zeros((0, 4)), *(track.boxes for track in tracks)]),
        np.concatenate([np.zeros(0, np.int64), *(track.categories for track in tracks)]),
        tracks[0].num_categories if tracks else num_categories,
    )


def truth_of_rows(rows):
    """Fresh ground truth with one object per (frame, x, y, w, h, ...) tuple
    (ids 1, 2, ...), its row in the order given; further fields such as a
    score are ignored."""
    n = len(rows)
    return SceneGroundTruth(
        np.arange(1, n + 1), np.zeros(n), np.ones(n), [row[0] for row in rows],
        np.array([row[1:5] for row in rows], dtype=float).reshape(-1, 4),
    )


def temporal_stability(labels) -> float:
    """A track's frame-wise stability as ``metrics.stability_report`` scores
    it: 1 - (number of adjacent label changes) / (sequence length), on any
    label sequence (binary or multi-class)."""
    if len(labels) == 0:
        raise ValueError("temporal stability is undefined for an empty label sequence")
    changes = sum(1 for a, b in zip(labels, labels[1:]) if a != b)
    return 1.0 - changes / len(labels)


def stability_report_reference(tracks, frame_choice="last", granularity="binary"):
    """``metrics.stability_report`` as a loop over the labeled tracks: the
    category of each one's chosen frame, a ``random`` one drawn per track in
    table order from ``default_rng(0)``, and its ``temporal_stability``, as
    two columns."""
    rng = np.random.default_rng(0)
    chosen_categories, stability = [], []
    for track in tracks:
        labels = track.labels.tolist()
        if not labels:
            continue
        defects = [c > 0 for c in labels]
        stability.append(temporal_stability(defects if granularity == "binary" else labels))
        chosen = {"first": 0, "last": -1}.get(frame_choice)
        chosen_categories.append(labels[int(rng.integers(len(labels))) if chosen is None else chosen])
    return np.array(chosen_categories, dtype=np.int64), np.array(stability, dtype=float)


def covering_tracks_reference(tracks, gt, iou_threshold=0.5):
    """``metrics.covering_tracks`` as a loop: for every truth row, the id of
    the track with the best overlap at or above the threshold (lowest id on
    ties), -1 where none reaches it."""
    by_frame = {}
    for track in tracks:
        for t, box in zip(track.frames.tolist(), track.boxes.tolist()):
            by_frame.setdefault(t, []).append((track.id, box))
    covering = []
    for t, gt_box in zip(gt.frames.tolist(), gt.boxes.tolist()):
        best_id, best_overlap = -1, 0.0
        for track_id, box in by_frame.get(t, []):
            overlap = iou(box, gt_box)
            if overlap < iou_threshold:
                continue
            if (
                best_id == -1
                or overlap > best_overlap
                or (overlap == best_overlap and track_id < best_id)
            ):
                best_id, best_overlap = track_id, overlap
        covering.append(best_id)
    return covering


def covered_ids(covering, gt):
    """Per object, the ids of the tracks covering its rows, frames no track
    covers left out."""
    stops = np.cumsum(gt.counts).tolist()
    return [[i for i in covering[a:b] if i >= 0] for a, b in zip([0, *stops], stops)]


def switches_reference(covering, gt):
    """``metrics.switches_in`` as a loop over each object's covering ids."""
    return sum(
        sum(1 for a, b in zip(ids, ids[1:]) if a != b) for ids in covered_ids(covering, gt)
    )


def majority_tracks_reference(covering, gt):
    """``metrics.majority_tracks`` with a ``Counter``: each object's most
    frequent covering id, the lowest among equals, -1 if it has none."""
    assignment = []
    for ids in covered_ids(covering, gt):
        counts = Counter(ids)
        top = max(counts.values(), default=0)
        assignment.append(min((t for t, n in counts.items() if n == top), default=-1))
    return assignment


def detection_map_reference(dets, gt, iou_threshold=0.5):
    """``metrics.detection_map`` as a loop: one sweep over all detections in
    descending score order, each taking the best still-free truth box, the
    first of its frame's truth rows on ties."""
    gt_boxes = {}
    for frame, box in zip(gt.frames.tolist(), gt.boxes.tolist()):
        gt_boxes.setdefault(frame, []).append(box)
    n_gt = len(gt.frames)
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
    """``aggregation.majority_vote`` of one track as a loop over its label
    indices: the vote counts and the winning index."""
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


def evaluate_reference(frames, gt, tracker_config=None, aggregation=None, iou_threshold=0.5):
    """``pipeline.evaluate_against_truth`` as loops over tracks and objects,
    on the references above; the tracker is the package's."""
    aggregation = aggregation or AggregationConfig()
    tracks = list(run_stream(frames, tracker_config))
    voted = {
        track.id: (track, majority_vote_reference(
            track.labels.tolist(), track.num_categories,
            aggregation.tie_break, aggregation.collapse_before_vote,
        )[1])
        for track in tracks if len(track.labels)
    }
    covering = covering_tracks_reference(tracks, gt, iou_threshold)
    agg_bin = agg_cat = last_cat = last_bin = 0
    for track_id, true_index in zip(
        majority_tracks_reference(covering, gt), gt.categories.tolist()
    ):
        if track_id not in voted:
            continue
        track, voted_index = voted[track_id]
        last_index = int(track.labels[-1])
        agg_cat += voted_index == true_index
        agg_bin += (voted_index == 0) == (true_index == 0)
        last_cat += last_index == true_index
        last_bin += (last_index == 0) == (true_index == 0)
    stabilities = [
        temporal_stability(
            (track.labels > 0).tolist() if aggregation.stability_granularity == "binary"
            else track.labels.tolist()
        )
        for track, _ in voted.values()
    ]
    n = len(gt.object_ids)
    n_defect = sum(winner > 0 for _, winner in voted.values())
    return SceneEvaluation(
        n_objects=n,
        n_tracks=len(tracks),
        n_unmatched_objects=majority_tracks_reference(covering, gt).count(-1),
        id_switches=switches_reference(covering, gt),
        detection_ap=detection_map_reference(frames, gt, iou_threshold) if n else 0.0,
        aggregated_binary_accuracy=agg_bin / n if n else 0.0,
        aggregated_category_accuracy=agg_cat / n if n else 0.0,
        last_frame_category_accuracy=last_cat / n if n else 0.0,
        last_frame_binary_accuracy=last_bin / n if n else 0.0,
        estimated_defect_ratio=n_defect / len(voted) if voted else None,
        true_defect_ratio=sum(c > 0 for c in gt.categories.tolist()) / n if n else 0.0,
        mean_frame_wise_stability=float(np.mean(stabilities)) if stabilities else None,
    )


_DETECTION_FIELDS = ("frame", "x", "y", "w", "h", "score")


def _whole_number(name, value):
    if not value.is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if abs(value) >= 2.0**53:
        raise ValueError(f"{name} is out of range, got {value!r}")
    return int(value)


def _reference_detection(line, num_categories):
    """One JSONL line as a checked (frame, x, y, w, h, score, category)
    tuple (category None: no label), every check in the order the package
    makes it."""
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
    category = None
    if "category" in numbers:
        category = _whole_number("category", numbers["category"])
    box = (numbers["x"], numbers["y"], numbers["w"], numbers["h"])
    check_detection_row(frame, box, numbers["score"], category, num_categories)
    return (frame, *box, numbers["score"], category)


def ingest_detections_scalar_reference(path, *, skip_malformed=False, num_categories=4):
    """``ingest_detections`` as a per-line loop: each line is parsed and
    checked on its own into a row, then the rows are grouped by frame in
    file order."""
    path = Path(path)
    rows = []
    with path.open(encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                rows.append(_reference_detection(line, num_categories))
            except json.JSONDecodeError as exc:
                if not skip_malformed:
                    raise InputError(f"{path}:{line_number}: invalid JSON ({exc.msg})") from exc
            except (TypeError, ValueError, OverflowError) as exc:
                if not skip_malformed:
                    raise InputError(f"{path}:{line_number}: {exc}") from exc
    return detections_of(rows, num_categories)


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
                errors.append((line_number, str(exc)))
                if not skip_malformed:
                    break  # an earlier line may still fail the table check
                continue
            line_numbers.append(line_number)
    table = np.frombuffer(rows).reshape(-1, len(bio._COLUMNS))
    lines = np.frombuffer(line_numbers, dtype=np.int64)
    columns = bio._checked_rows(path, table, lines, errors, skip_malformed, num_categories)
    return DetectionTable._from_checked_rows(*columns, num_categories)


def read_ground_truth_reference(path, num_categories=4):
    """``read_ground_truth`` with one ``json.loads`` per line: each line
    parsed by ``bio._parse_line``, checked by ``check_truth_row`` and then
    against the lines before it, the first bad line aborting the read."""
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
                check_truth_row(row, num_categories)
            except (ValueError, OverflowError) as exc:
                raise InputError(f"{path}:{line_number}: {exc}") from exc
            frame, object_id, category = int(row[0]), int(row[1]), int(row[-1])
            if categories.setdefault(object_id, category) != category:
                raise InputError(
                    f"{path}:{line_number}: object {object_id} changes category "
                    f"({categories[object_id]} -> {category})"
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
        [categories[object_id] for object_id in ids.tolist()],
        counts,
        frames[order],
        table[order, 2:6],
        num_categories,
    )


def write_detections_reference(frames, path):
    """``write_detections`` with one ``json.dumps`` per record."""
    with Path(path).open("w", encoding="utf-8") as handle:
        for frame in frames:
            for (x, y, w, h), score, category in zip(
                frame.boxes.tolist(), frame.scores.tolist(), frame.categories.tolist()
            ):
                record = {"frame": frame.frame_index, "x": x, "y": y, "w": w, "h": h,
                          "score": score, "category": None if category < 0 else category}
                handle.write(json.dumps(record) + "\n")


def write_ground_truth_reference(gt, path):
    """``write_ground_truth`` with one ``json.dumps`` per record."""
    object_ids = np.repeat(gt.object_ids, gt.counts).tolist()
    categories = np.repeat(gt.categories, gt.counts).tolist()
    with Path(path).open("w", encoding="utf-8") as handle:
        for object_id, category, frame, (x, y, w, h) in zip(
            object_ids, categories, gt.frames.tolist(), gt.boxes.tolist()
        ):
            record = {"frame": frame, "object_id": object_id, "x": x, "y": y, "w": w, "h": h,
                      "true_category": category}
            handle.write(json.dumps(record) + "\n")


def write_verdicts_reference(result, path):
    """``write_verdicts`` with one ``json.dumps`` per record."""
    verdicts = result.verdicts
    with Path(path).open("w", encoding="utf-8") as handle:
        for track_id, category, votes, stability in zip(
            verdicts.track_ids.tolist(), verdicts.categories.tolist(), verdicts.votes.tolist(),
            result.frame_wise_stability.tolist(),
        ):
            record = {
                "track_id": track_id,
                "category": category,
                "binary": "normal" if category == 0 else "defect",
                "k": sum(votes),
                "votes": votes,
                "stability_frame_wise": stability,
            }
            handle.write(json.dumps(record) + "\n")


def generate_scene_reference(config):
    """``generate_scene`` with its noise stage as a loop that draws and
    builds one detection row at a time, checked against the package's draws
    in stream order applied as columns."""
    rng = np.random.default_rng(config.seed)
    truth = simulate._ground_truth(rng, config)
    row_frames = truth.frames

    # The rows of each frame, in object order.
    by_frame = np.argsort(row_frames, kind="stable")
    visible = {frame: by_frame[a:b] for frame, a, b in frame_runs(row_frames[by_frame])}
    row_category = np.repeat(truth.categories, truth.counts)

    # One (frame, x, y, w, h, score, category) row per detection, in stream order.
    rows: list[tuple] = []
    last_frame = int(row_frames.max()) if len(row_frames) else -1
    n_frames = max(config.n_frames, last_frame + 1)
    for frame in range(n_frames):
        seen = visible.get(frame, by_frame[:0])
        boxes, true_indices = truth.boxes[seen].tolist(), row_category[seen].tolist()
        for (x, y, w, h), true_index in zip(boxes, true_indices):
            if config.detection_dropout_prob > 0 and rng.random() < config.detection_dropout_prob:
                continue
            if config.bbox_jitter_std > 0:
                dx, dy = rng.normal(0.0, config.bbox_jitter_std, size=2)
                x, y = x + dx, y + dy
            score = float(rng.normal(config.score_mean_true, config.score_std_true))
            score = min(max(score, 0.0), 1.0)
            index = true_index
            if config.label_flip_prob > 0 and rng.random() < config.label_flip_prob:
                others = [c for c in range(config.num_categories) if c != true_index]
                index = others[int(rng.integers(len(others)))]
            rows.append((frame, x, y, w, h, score, index))
        if config.false_positive_rate > 0:
            for _ in range(int(rng.poisson(config.false_positive_rate))):
                size = max(4.0, float(rng.normal(config.box_size_mean, max(config.box_size_std, 1.0))))
                x = float(rng.uniform(0.0, max(config.frame_width - size, 1.0)))
                y = float(rng.uniform(0.0, max(config.frame_height - size, 1.0)))
                score = float(rng.normal(config.score_mean_fp, config.score_std_fp))
                score = min(max(score, 0.0), 1.0)
                category = int(rng.integers(config.num_categories))
                rows.append((frame, x, y, size, size, score, category))

    table = np.array(rows, dtype=float).reshape(-1, 7)
    detections = DetectionTable(
        table[:, 0], table[:, 1:5], table[:, 5], table[:, 6], config.num_categories
    )
    return truth, detections
