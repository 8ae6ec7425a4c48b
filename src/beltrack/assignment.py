"""IoU cost matrices and optimal linear assignment with cost gating.

The solver is exact and needs only NumPy. Let ``top`` be the largest cost
of a matrix. A matching of ``min(n, m)`` pairs costs ``min(n, m) * top``
less the saving ``top - c`` of each of its pairs cheaper than ``top``. The
optimum is therefore a matching of greatest saving within each connected
group of cheaper pairs, plus the rows left over paired with the columns left
over, each such pair at cost ``top``. An IoU matrix is sparse: nearly every
group has a single row or a single column and takes its cheapest pair, so
the general solver (shortest augmenting paths, the method scipy's
``linear_sum_assignment`` uses) runs only on the rare larger groups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    """Entry (i, j) is 1 - IoU(track i, detection j); both are (4, n) corner
    rows (see ``model.corners``)."""
    costs = iou_matrix(track_boxes, det_boxes)
    return np.subtract(1.0, costs, out=costs)


def solve_assignment(costs: CostMatrix, max_cost: float) -> AssignmentResult:
    """Minimum-total-cost matching, then gate out pairs costing more than max_cost.

    Gating is applied after solving: the optimal matching of ``min(n, m)``
    pairs is computed on the full matrix and any matched pair above the
    threshold is demoted to unmatched on both sides. Degenerate (empty)
    matrices yield all-unmatched; a nan or infinite cost is a ValueError.

    Where several matchings share the optimum, a group of cheaper-than-top
    pairs with one row or one column takes its cheapest pair, the lowest row
    and then the lowest column among equals; a larger group takes the first
    optimum its augmenting-path search reaches (rows in index order, the
    lowest column among equal reduced costs); and the rows left over take
    the columns left over in index order.
    """
    costs = np.asarray(costs, dtype=float)
    n_rows, n_cols = costs.shape
    if costs.size == 0:
        return AssignmentResult((), tuple(range(n_rows)), tuple(range(n_cols)))
    top = float(costs.max())
    # The pairs cheaper than ``top`` as (cost, row, column), by cost and
    # then row-major among equal costs.
    cells = np.flatnonzero(costs < top)
    values = costs.take(cells).tolist()
    cheap = sorted((cost, *divmod(cell, n_cols)) for cost, cell in zip(values, cells.tolist()))
    # A nan makes ``top`` nan; the least cost is ``top`` or the first cheap one.
    if not (math.isfinite(top) and math.isfinite(cheap[0][0] if cheap else top)):
        raise ValueError("cost matrix entries must be finite")
    matches = [(r, c) for cost, r, c in _group_matching(costs, top, cheap) if cost <= max_cost]

    matched_rows = {r for r, _ in matches}
    matched_cols = {c for _, c in matches}
    free_rows = [i for i in range(n_rows) if i not in matched_rows]
    free_cols = [j for j in range(n_cols) if j not in matched_cols]
    # Every leftover pair costs ``top``, so the gate keeps all of them or
    # none; and when it keeps them, it kept every cheap pair too.
    if top <= max_cost:
        k = min(len(free_rows), len(free_cols))
        matches += zip(free_rows[:k], free_cols[:k])
        free_rows, free_cols = free_rows[k:], free_cols[k:]
    matches.sort()
    return AssignmentResult(tuple(matches), tuple(free_rows), tuple(free_cols))


def _group_matching(
    costs: np.ndarray, top: float, cheap: list[tuple[float, int, int]]
) -> list[tuple[float, int, int]]:
    """An optimal matching of the cheap pairs (``(cost, row, column)`` in
    cost order), group by group: the first pair of a group with one row or
    one column, and the shortest-augmenting-path optimum of a larger group's
    submatrix, cut to its cheap pairs."""
    # Union-find over rows r and columns ~c; a group is keyed by its root.
    parent: dict[int, int] = {}
    for _, r, c in cheap:
        a, b = r, ~c
        while a in parent:
            a = parent[a]
        while b in parent:
            b = parent[b]
        if a != b:
            parent[a] = b
    groups: dict[int, list[tuple[float, int, int]]] = {}
    for pair in cheap:
        a = pair[1]
        while a in parent:
            a = parent[a]
        if a in groups:
            groups[a].append(pair)
        else:
            groups[a] = [pair]

    matching = []
    for group in groups.values():
        if len(group) > 1:
            rows = sorted({r for _, r, _ in group})
            cols = sorted({c for _, _, c in group})
            if len(rows) > 1 and len(cols) > 1:
                sub = costs[np.ix_(rows, cols)]
                for i, j in _shortest_augmenting_paths(sub):
                    if sub[i, j] < top:
                        matching.append((float(sub[i, j]), rows[i], cols[j]))
                continue
        matching.append(group[0])  # one row or one column: its cheapest pair
    return matching


def _shortest_augmenting_paths(costs: np.ndarray) -> list[tuple[int, int]]:
    """Minimum-cost matching of min(n, m) pairs of a small dense matrix: the
    Hungarian method with potentials, one shortest augmenting path (Dijkstra
    on reduced costs) per row. Plain Python, O(n^2 m)."""
    transposed = costs.shape[0] > costs.shape[1]
    table = (costs.T if transposed else costs).tolist()
    n, m = len(table), len(table[0])
    # Columns are 1..m, with 0 the virtual start; row_of[j] is the 1-based row
    # on column j (0 for none).
    u, v = [0.0] * (n + 1), [0.0] * (m + 1)
    row_of, came_from = [0] * (m + 1), [0] * (m + 1)
    for i in range(1, n + 1):
        row_of[0], j0 = i, 0
        dist, used = [math.inf] * (m + 1), [False] * (m + 1)
        while row_of[j0]:
            used[j0] = True
            i0, line = row_of[j0], table[row_of[j0] - 1]
            delta, j1 = math.inf, 0
            for j in range(1, m + 1):
                if not used[j]:
                    reduced = line[j - 1] - u[i0] - v[j]
                    if reduced < dist[j]:
                        dist[j], came_from[j] = reduced, j0
                    if dist[j] < delta:
                        delta, j1 = dist[j], j
            for j in range(m + 1):
                if used[j]:
                    u[row_of[j]] += delta
                    v[j] -= delta
                else:
                    dist[j] -= delta
            j0 = j1
        while j0:
            j1 = came_from[j0]
            row_of[j0] = row_of[j1]
            j0 = j1
    pairs = [(row_of[j] - 1, j - 1) for j in range(1, m + 1) if row_of[j]]
    return [(j, i) for i, j in pairs] if transposed else pairs
