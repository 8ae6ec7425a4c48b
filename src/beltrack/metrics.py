"""Evaluation metrics: the defect ratio of a verdict table, the frame-wise
baseline as columns beside it (each track's deciding frame's category and
its temporal stability), and detection average precision and identity
switches against simulator ground truth, which score only the candidate
pairs of one blocked overlap join (``_overlaps``).

Temporal stability divides the change count by the full track length k (not
k - 1), so a maximally oscillating track scores 1/k rather than 0.
"""

from __future__ import annotations

from typing import Iterator, Literal

import numpy as np

from .aggregation import VerdictTable
from .model import DetectionTable, TrackTable, corners, pair_iou
from .simulate import SceneGroundTruth

FrameChoice = Literal["last", "first", "random"]
StabilityGranularity = Literal["binary", "category"]


def defect_ratio(verdicts: VerdictTable) -> float:
    """Fraction of tracks whose final label is defect."""
    if not len(verdicts):
        raise ValueError("defect ratio is undefined for an empty verdict table")
    return int(np.count_nonzero(verdicts.categories)) / len(verdicts)


def stability_report(
    tracks: TrackTable,
    *,
    frame_choice: FrameChoice = "last",
    granularity: StabilityGranularity = "binary",
) -> tuple[np.ndarray, np.ndarray]:
    """Score one video's labeled tracks frame by frame, without voting, in
    one pass over the table's labeled rows: two columns over those tracks,
    in id order (the rows of ``majority_vote``'s verdict table), both empty
    when no track is labeled.

    The first column is the category of the single frame that decides each
    track (``frame_choice``; the default mimics an exit-gate camera reading
    the last frame; ``random`` draws every track's frame with one
    ``integers`` call of ``default_rng(0)``). The second is each track's
    stability, taken over its raw per-frame label sequence.
    """
    labeled = tracks.labeled()
    lengths, labels = labeled.counts, labeled.categories
    sequence = labels > 0 if granularity == "binary" else labels  # index 0 is normal
    changes = np.concatenate(([0], np.cumsum(sequence[1:] != sequence[:-1])))
    stops = np.cumsum(lengths)
    starts = stops - lengths
    stability = 1.0 - (changes[stops - 1] - changes[starts]) / lengths
    if frame_choice == "random":
        chosen = starts + np.random.default_rng(0).integers(lengths)
    else:
        chosen = starts if frame_choice == "first" else stops - 1
    return labels[chosen], stability


def detection_map(
    dets: DetectionTable,
    gt: SceneGroundTruth,
    iou_threshold: float = 0.5,
) -> float:
    """Single-class average precision with all-point interpolation.

    Detections are swept in descending score order (stable on ties, so the
    result depends only on the score ranking); each is greedily matched to
    the highest-IoU unmatched true box of its frame with IoU above 0 and at
    or above the threshold, the lowest truth row breaking ties. A candidate
    pair (see ``_overlaps``) whose detection and truth box have no other
    candidate matches whatever the order; only the rest are swept.
    """
    tp, n_gt = _true_positives(dets, gt, iou_threshold)
    cum_tp = np.cumsum(tp)
    cum_fp = np.cumsum(1.0 - tp)
    recall = cum_tp / n_gt
    precision = cum_tp / np.maximum(cum_tp + cum_fp, 1.0)

    # All-point interpolation: integrate the running precision envelope.
    mrec = np.concatenate(([0.0], recall, [1.0]))
    mpre = np.maximum.accumulate(np.concatenate(([0.0], precision, [0.0]))[::-1])[::-1]
    steps = np.nonzero(mrec[1:] != mrec[:-1])[0]
    return float(np.sum((mrec[steps + 1] - mrec[steps]) * mpre[steps + 1]))


def _true_positives(dets, gt, iou_threshold) -> tuple[np.ndarray, int]:
    """Each detection's match (1.0) or not in rank order, and the truth box
    count; the candidates die with this frame, before the precision arrays."""
    if len(gt.frames) == 0:
        raise ValueError("average precision is undefined without ground-truth boxes")
    order = np.argsort(-dets.scores, kind="stable")  # sweep order: k-th entry has rank k
    ranks = np.argsort(dets.frames[order], kind="stable")  # by frame, in rank order within
    found = _overlaps(order[ranks], dets.frames, dets.boxes, gt.frames, gt.boxes, iou_threshold)
    parts = [(ranks[k], truth, overlap) for k, truth, overlap in found]
    rank, truth, overlap = (np.concatenate(c) for c in zip((_NO_ROWS, _NO_ROWS, np.zeros(0)), *parts))
    tp = np.zeros(len(order))
    alone = (np.bincount(rank)[rank] == 1) & (np.bincount(truth)[truth] == 1)
    tp[rank[alone]] = 1.0
    rest = np.flatnonzero(~alone)  # swept by rank, then best overlap, then lowest truth index
    rest = rest[np.lexsort((truth[rest], -overlap[rest], rank[rest]))]
    taken, last = set(), -1
    for r, t in zip(rank[rest].tolist(), truth[rest].tolist()):
        if r != last and t not in taken:
            taken.add(t)
            tp[r], last = 1.0, r
    return tp, len(gt.frames)


#: ``a`` rows per block of ``_overlaps``, which bounds the pairs held at once.
_BLOCK = 512
_NO_ROWS = np.zeros(0, dtype=np.int64)


def _overlaps(
    a_rows: np.ndarray, a_frames: np.ndarray, a_boxes: np.ndarray,
    b_frames: np.ndarray, b_boxes: np.ndarray, iou_threshold: float,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per block of ``a_rows`` (a rows by ascending frame), (k, j, IoU) of each
    same-frame pair of (x, y, w, h) boxes ``a_rows[k]`` and j with IoU above 0
    and at or above the threshold. With b sorted by (frame, left edge), an a
    row scores only the b rows of its frame with left edge in [left_a - reach,
    right_a), reach being the largest w of those frames' b rows."""
    b_order = np.lexsort((b_boxes[:, 0], b_frames))
    b_frames = b_frames[b_order]
    for start in range(0, len(a_rows), _BLOCK):
        rows = a_rows[start : start + _BLOCK]
        frames, a = a_frames[rows], corners(a_boxes[rows])
        # The b rows of the block's frames, and each a row's frame run in them.
        first = np.searchsorted(b_frames, frames[0])
        run_frames = b_frames[first : np.searchsorted(b_frames, frames[-1], "right")]
        run_boxes = b_boxes[b_order[first : first + len(run_frames)]]
        run_start, run_stop = (np.searchsorted(run_frames, frames, side) for side in ("left", "right"))
        # A b box meeting an a box has fl(left_b + w_b) > left_a; rounding to
        # nearest passes no float, so left_a <= left_b + w_b, and left_a - reach
        # rounds (monotone) to at most left_b: no rounding of x + w escapes.
        reach, b = run_boxes[:, 2].max(initial=0.0), corners(run_boxes)
        # Complex keys (real, imaginary parts side by side; 1j * inf would be
        # nan) sort by real, then imaginary part: one search finds each window
        # by (frame run start, left edge); a frame b lacks clips empty.
        keys = np.column_stack((np.searchsorted(run_frames, run_frames), b[0])).view(complex)
        ends = np.column_stack((np.tile(run_start, 2), np.concatenate((a[0] - reach, a[2]))))
        lo, hi = np.searchsorted(keys[:, 0], ends.view(complex)[:, 0]).reshape(2, -1)
        lo, hi = np.maximum(lo, run_start), np.minimum(hi, run_stop)
        counts = np.maximum(hi - lo, 0)
        k = np.repeat(np.arange(len(rows)), counts)
        j = np.arange(len(k)) + np.repeat(lo - np.cumsum(counts) + counts, counts)
        overlap = pair_iou(a[:, k], b[:, j])
        keep = (overlap >= iou_threshold) & (overlap > 0.0)
        yield start + k[keep], b_order[first + j[keep]], overlap[keep]


def covering_tracks(
    tracks: TrackTable, gt: SceneGroundTruth, iou_threshold: float = 0.5
) -> np.ndarray:
    """The covering column: for each truth row, in the truth's row order,
    the id of the track covering that true box, -1 where none does (so
    track ids must be non-negative).

    On each (object, frame) the covering track is the one whose box overlaps
    the true box with IoU at or above the threshold, best overlap winning and
    the lowest id breaking ties, among the candidate pairs of ``_overlaps``.
    The threshold must be in (0, 1]: at 0, a box that misses would cover.
    """
    if not 0.0 < iou_threshold <= 1.0:  # nan fails too
        raise ValueError(f"iou_threshold must be in (0, 1], got {iou_threshold}")
    track_ids = np.repeat(tracks.ids, tracks.counts)
    covering = np.full(len(gt.frames), -1, dtype=np.int64)
    by_frame = np.argsort(gt.frames, kind="stable")
    found = _overlaps(by_frame, gt.frames, gt.boxes, tracks.frames, tracks.boxes, iou_threshold)
    for k, rows, overlap in found:
        ids = track_ids[rows]
        best = np.lexsort((ids, -overlap, k))  # per true box: best overlap, then lowest id
        best = best[np.diff(k[best], prepend=-1) != 0]
        covering[by_frame[k[best]]] = ids[best]
    return covering


def _covered_rows(covering: np.ndarray, gt: SceneGroundTruth) -> tuple[np.ndarray, np.ndarray]:
    """The object index (position in ``gt.object_ids``) and the covering
    track id of every covered truth row, in the truth's row order."""
    objects = np.repeat(np.arange(len(gt.counts)), gt.counts)
    covered = covering >= 0
    return objects[covered], covering[covered]


def switches_in(covering: np.ndarray, gt: SceneGroundTruth) -> int:
    """Identity handoffs: how often an object's covering track changes.
    Rows no track covers are skipped, so a gap alone is not a switch."""
    objects, ids = _covered_rows(covering, gt)
    return int(np.count_nonzero((ids[1:] != ids[:-1]) & (objects[1:] == objects[:-1])))


def majority_tracks(covering: np.ndarray, gt: SceneGroundTruth) -> np.ndarray:
    """The track covering each object (in the truth's object order) on the
    most frames, the lowest id breaking ties; -1 for an uncovered object."""
    objects, ids = _covered_rows(covering, gt)
    order = np.lexsort((ids, objects))
    objects, ids = objects[order], ids[order]
    # One run per (object, track) pair, in (object, id) order, so the stable
    # sort on -frames keeps the lowest id first among each object's longest.
    starts = np.flatnonzero((np.diff(objects, prepend=-1) != 0) | (np.diff(ids, prepend=-1) != 0))
    frames = np.diff(starts, append=len(ids))
    best = starts[np.lexsort((-frames, objects[starts]))]
    best = best[np.diff(objects[best], prepend=-1) != 0]
    assignment = np.full(len(gt.counts), -1, dtype=np.int64)
    assignment[objects[best]] = ids[best]
    return assignment
