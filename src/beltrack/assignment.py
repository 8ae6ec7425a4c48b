"""IoU cost matrices and optimal linear assignment with cost gating."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .model import iou_matrix

#: Cost matrix with one row per track and one column per detection.
#: IoU-derived entries are 1 - IoU, i.e. in [0, 1].
CostMatrix = np.ndarray


@dataclass(frozen=True)
class AssignmentResult:
    """One-to-one matching; the three fields partition all row/column indices."""

    matches: tuple[tuple[int, int], ...]
    unmatched_tracks: tuple[int, ...]
    unmatched_detections: tuple[int, ...]


def build_cost_matrix(track_boxes: np.ndarray, det_boxes: np.ndarray) -> CostMatrix:
    """Entry (i, j) is 1 - IoU(track_boxes[i], det_boxes[j]); both are (n, 4)
    corner arrays (see ``model.corners``)."""
    return 1.0 - iou_matrix(track_boxes, det_boxes)


def solve_assignment(costs: CostMatrix, max_cost: float) -> AssignmentResult:
    """Minimum-total-cost matching, then gate out pairs costing more than max_cost.

    Gating is applied after solving: the optimal matching is computed on the
    full matrix and any matched pair above the threshold is demoted to
    unmatched on both sides. Degenerate (empty) matrices yield all-unmatched.
    """
    costs = np.asarray(costs, dtype=float)
    n_rows, n_cols = costs.shape
    if costs.size == 0:
        return AssignmentResult((), tuple(range(n_rows)), tuple(range(n_cols)))

    rows, cols = linear_sum_assignment(costs)
    matches = []
    matched_rows: set[int] = set()
    matched_cols: set[int] = set()
    for r, c in zip(rows, cols):
        if costs[r, c] > max_cost:
            continue
        matches.append((int(r), int(c)))
        matched_rows.add(int(r))
        matched_cols.add(int(c))
    matches.sort()
    return AssignmentResult(
        matches=tuple(matches),
        unmatched_tracks=tuple(i for i in range(n_rows) if i not in matched_rows),
        unmatched_detections=tuple(j for j in range(n_cols) if j not in matched_cols),
    )
