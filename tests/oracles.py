"""Independent reference implementations used to check the fast paths.

IoU by counting raster cells and assignment by exhaustive permutation
search share no code with the package. The metric references are plain
loops over the pairwise ``iou``, checked against the package's
``iou_matrix`` versions.
"""

from itertools import permutations

import numpy as np

from beltrack import BoundingBox, iou


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
        for frame, gt_box in obj.boxes:
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
    descending score order, each taking the best still-free truth box."""
    gt_boxes = {f.frame_index: [d.box for d in f.detections] for f in gt}
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
