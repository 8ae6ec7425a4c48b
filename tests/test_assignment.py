import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beltrack import BoundingBox, build_cost_matrix, solve_assignment
from beltrack.model import corners, xywh_array

from oracles import brute_force_assignment, scipy_assignment


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


@st.composite
def cost_matrices(draw):
    """0-8 x 0-8 matrices of three kinds: continuous costs, small integers
    with many ties, and 1 - IoU of integer boxes on a small field (sparse,
    with exact ties at 1.0 and between equal overlaps)."""
    n_rows, n_cols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    kind = draw(st.sampled_from(["continuous", "integer", "iou"]))
    if kind != "iou":
        cells = st.floats(0.0, 1.0) if kind == "continuous" else st.integers(0, 3)
        values = draw(st.lists(cells, min_size=n_rows * n_cols, max_size=n_rows * n_cols))
        return np.array(values, dtype=float).reshape(n_rows, n_cols)
    box = st.tuples(st.integers(0, 20), st.integers(0, 20), st.integers(1, 8), st.integers(1, 8))
    track_boxes = draw(st.lists(box, min_size=n_rows, max_size=n_rows))
    det_boxes = draw(st.lists(box, min_size=n_cols, max_size=n_cols))
    return cost_matrix([BoundingBox(*b) for b in track_boxes], [BoundingBox(*b) for b in det_boxes])


class TestExactSolver:
    @settings(max_examples=400, deadline=None)
    @given(costs=cost_matrices(), max_cost=st.floats(0.0, 1.0))
    def test_optimal_full_matching_then_gate(self, costs, max_cost):
        n_rows, n_cols = costs.shape
        full = solve_assignment(costs, max_cost=np.inf)
        expected_total, _ = scipy_assignment(costs)
        assert total_cost(costs, full) == pytest.approx(expected_total, abs=1e-9)
        assert len(full.matches) == min(n_rows, n_cols)
        assert_partition(full, n_rows, n_cols)

        gated = solve_assignment(costs, max_cost)
        assert_partition(gated, n_rows, n_cols)
        assert gated.matches == tuple(p for p in full.matches if costs[p] <= max_cost)

    def test_same_matches_as_scipy_on_continuous_matrices(self):
        # Continuous costs have no ties, so the optimum is unique.
        rng = np.random.default_rng(31)
        for _ in range(500):
            costs = rng.uniform(0, 1, size=(int(rng.integers(1, 12)), int(rng.integers(1, 12))))
            assert list(solve_assignment(costs, max_cost=np.inf).matches) == scipy_assignment(costs)[1]

    def test_group_of_three_rows_and_three_columns(self):
        # The overlaps r0-c0-r1-c2-r2 and r0-c1 form one group; taking the
        # cheapest pair (0, 0) first would leave row 1 at cost 1.
        costs = np.array([
            [0.10, 0.20, 1.00, 1.00],
            [0.15, 1.00, 0.30, 1.00],
            [1.00, 1.00, 0.25, 1.00],
        ])
        result = solve_assignment(costs, max_cost=0.8)
        assert result.matches == ((0, 1), (1, 0), (2, 2))
        assert result.unmatched_detections == (3,)
        assert total_cost(costs, result) == pytest.approx(brute_force_assignment(costs)[0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cost_rejected(self, bad):
        costs = np.array([[0.2, 1.0], [1.0, 0.3]])
        costs[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            solve_assignment(costs, max_cost=0.8)

    def test_leftover_rows_take_leftover_columns_in_index_order(self):
        costs = np.ones((3, 4))
        costs[1, 2] = 0.4
        result = solve_assignment(costs, max_cost=1.0)
        assert result.matches == ((0, 0), (1, 2), (2, 1))
        assert result.unmatched_tracks == ()
        assert result.unmatched_detections == (3,)
        # Below the top cost, the gate drops every leftover pair.
        gated = solve_assignment(costs, max_cost=0.99)
        assert gated.matches == ((1, 2),)
        assert gated.unmatched_tracks == (0, 2)
        assert gated.unmatched_detections == (0, 1, 3)

    def test_a_row_its_group_leaves_over_takes_the_lowest_free_column(self):
        # Rows 0-2 and columns 1-3 form one group; its best pairs are (0, 2)
        # and (1, 1), so row 2 is left over and takes column 0, not column 3.
        costs = np.array([
            [1.0, 0.10, 0.20, 0.25],
            [1.0, 0.30, 1.00, 1.00],
            [1.0, 0.35, 1.00, 1.00],
        ])
        assert solve_assignment(costs, max_cost=1.0).matches == ((0, 2), (1, 1), (2, 0))
        assert solve_assignment(costs, max_cost=0.8).matches == ((0, 2), (1, 1))

    def test_ties_in_a_one_row_or_one_column_group_go_to_the_lowest_index(self):
        costs = np.array([[1.0, 0.5, 1.0, 0.5], [1.0, 1.0, 1.0, 1.0]])
        assert solve_assignment(costs, max_cost=0.8).matches == ((0, 1),)
        assert solve_assignment(costs.T, max_cost=0.8).matches == ((1, 0),)
