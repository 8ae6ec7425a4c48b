import numpy as np
import pytest

from beltrack import BoundingBox, build_cost_matrix, solve_assignment
from beltrack.model import corners, xywh_array

from oracles import brute_force_assignment


def total_cost(costs, result):
    return sum(costs[r, c] for r, c in result.matches)


def assert_partition(result, n_rows, n_cols):
    rows = [r for r, _ in result.matches] + list(result.unmatched_tracks)
    cols = [c for _, c in result.matches] + list(result.unmatched_detections)
    assert sorted(rows) == list(range(n_rows))
    assert sorted(cols) == list(range(n_cols))


def cost_matrix(track_boxes, det_boxes):
    return build_cost_matrix(corners(xywh_array(track_boxes)), corners(xywh_array(det_boxes)))


class TestBuildCostMatrix:
    def test_identical_boxes_cost_zero(self):
        box = BoundingBox(0, 0, 2, 2)
        assert cost_matrix([box], [box])[0, 0] == 0.0

    def test_disjoint_boxes_cost_one(self):
        costs = cost_matrix([BoundingBox(0, 0, 1, 1)], [BoundingBox(9, 9, 1, 1)])
        assert costs[0, 0] == 1.0

    def test_partial_overlap(self):
        costs = cost_matrix([BoundingBox(0, 0, 2, 2)], [BoundingBox(1, 0, 2, 2)])
        assert costs[0, 0] == pytest.approx(2 / 3, abs=1e-12)

    def test_empty_inputs(self):
        assert cost_matrix([], []).shape == (0, 0)
        assert cost_matrix([], [BoundingBox(0, 0, 1, 1)]).shape == (0, 1)


class TestSolveAssignment:
    def test_single_perfect_match(self):
        result = solve_assignment(np.array([[0.0]]), max_cost=0.5)
        assert result.matches == ((0, 0),)
        assert result.unmatched_tracks == ()
        assert result.unmatched_detections == ()

    def test_empty_matrix(self):
        result = solve_assignment(np.zeros((0, 0)), max_cost=1.0)
        assert result.matches == ()

    def test_degenerate_shapes_all_unmatched(self):
        result = solve_assignment(np.zeros((0, 3)), max_cost=1.0)
        assert result.unmatched_detections == (0, 1, 2)
        result = solve_assignment(np.zeros((2, 0)), max_cost=1.0)
        assert result.unmatched_tracks == (0, 1)

    def test_off_diagonal_optimum_with_gating(self):
        # Anti-diagonal total 4 beats diagonal total 5, but both chosen
        # pairs cost 2 > 1 so gating rejects them.
        costs = np.array([[1.0, 2.0], [2.0, 4.0]])
        gated = solve_assignment(costs, max_cost=1.0)
        assert gated.matches == ()
        assert gated.unmatched_tracks == (0, 1)
        assert gated.unmatched_detections == (0, 1)

        kept = solve_assignment(costs, max_cost=2.0)
        assert kept.matches == ((0, 1), (1, 0))
        assert total_cost(costs, kept) == 4.0

    def test_matches_brute_force_on_random_matrices(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            n_rows = int(rng.integers(1, 8))
            n_cols = int(rng.integers(1, 8))
            costs = rng.uniform(0, 1, size=(n_rows, n_cols))
            result = solve_assignment(costs, max_cost=np.inf)
            expected_total, _ = brute_force_assignment(costs)
            assert total_cost(costs, result) == pytest.approx(expected_total, abs=1e-12)
            assert len(result.matches) == min(n_rows, n_cols)
            assert_partition(result, n_rows, n_cols)

    def test_partition_property_with_gating(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            n_rows = int(rng.integers(0, 7))
            n_cols = int(rng.integers(0, 7))
            costs = rng.uniform(0, 1, size=(n_rows, n_cols))
            max_cost = float(rng.uniform(0, 1))
            result = solve_assignment(costs, max_cost)
            assert_partition(result, n_rows, n_cols)
            for r, c in result.matches:
                assert costs[r, c] <= max_cost

    def test_row_shift_invariance(self):
        # Adding a constant to one row leaves the optimal match set unchanged
        # (ties have probability zero on continuous random matrices).
        rng = np.random.default_rng(29)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            costs = rng.uniform(0, 1, size=(n, n))
            shifted = costs.copy()
            row = int(rng.integers(n))
            shifted[row] += float(rng.uniform(0.1, 5.0))
            base = solve_assignment(costs, max_cost=np.inf)
            moved = solve_assignment(shifted, max_cost=np.inf)
            assert base.matches == moved.matches
