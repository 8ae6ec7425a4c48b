import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beltrack import build_cost_matrix, solve_assignment
from beltrack.model import corners

from oracles import brute_force_assignment, scipy_assignment


def total_cost(costs, result):
    return sum(costs[r, c] for r, c in result.matches)


def assert_partition(result, n_rows, n_cols):
    rows = [r for r, _ in result.matches] + list(result.unmatched_tracks)
    cols = [c for _, c in result.matches] + list(result.unmatched_detections)
    assert sorted(rows) == list(range(n_rows))
    assert sorted(cols) == list(range(n_cols))


def cost_matrix(track_boxes, det_boxes):
    """``build_cost_matrix`` of two lists of (x, y, w, h) boxes."""
    return build_cost_matrix(
        corners(np.array(track_boxes, dtype=float).reshape(-1, 4)),
        corners(np.array(det_boxes, dtype=float).reshape(-1, 4)),
    )


class TestBuildCostMatrix:
    def test_identical_boxes_cost_zero(self):
        box = (0, 0, 2, 2)
        assert cost_matrix([box], [box])[0, 0] == 0.0

    def test_disjoint_boxes_cost_one(self):
        costs = cost_matrix([(0, 0, 1, 1)], [(9, 9, 1, 1)])
        assert costs[0, 0] == 1.0

    def test_partial_overlap(self):
        costs = cost_matrix([(0, 0, 2, 2)], [(1, 0, 2, 2)])
        assert costs[0, 0] == pytest.approx(2 / 3, abs=1e-12)

    def test_empty_inputs(self):
        assert cost_matrix([], []).shape == (0, 0)
        assert cost_matrix([], [(0, 0, 1, 1)]).shape == (0, 1)


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
    return cost_matrix(track_boxes, det_boxes)


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


#: Cells of the field ``cell_matrices`` draws on, each 100 px wide; a box
#: reaches at most 40 px into its cell, so boxes of two cells never meet.
N_CELLS = 6


@st.composite
def cell_matrices(draw, shared: bool):
    """1 - IoU of integer track and detection boxes, each in one cell of a
    row of cells. Every box of a cell covers the cell's point (10..15,
    10..15), so the boxes of one cell all overlap and those of two cells
    never do: the groups of cheap pairs are the cells. A cross-cell pair
    keeps the top cost at 1, so every same-cell pair is cheap.

    Without ``shared`` no two tracks and no two detections share a cell, so
    no row or column repeats among the cheap pairs. With it, tracks 0 and 1
    and detection 0 sit in cell 0, so detection 0's column repeats. Offsets
    and sizes come from a few values, so equal costs are common."""
    n_rows = draw(st.integers(2 if shared else 1, 8))
    n_cols = draw(st.integers(2, 8))
    if shared:
        track_cells = [0, 0] + draw(st.lists(st.integers(0, N_CELLS - 1), min_size=n_rows - 2,
                                             max_size=n_rows - 2))
        det_cells = [0] + draw(st.lists(st.integers(0, N_CELLS - 1), min_size=n_cols - 2,
                                        max_size=n_cols - 2)) + [N_CELLS - 1]
    else:
        n_rows, n_cols = min(n_rows, N_CELLS), min(n_cols, N_CELLS)
        track_cells = draw(st.permutations(range(N_CELLS)))[:n_rows]
        det_cells = draw(st.permutations(range(N_CELLS)))[:n_cols]
        # One cross-cell pair at least: some detection outside track 0's cell.
        if all(c == track_cells[0] for c in det_cells):
            n_cols += 1
            det_cells = [*det_cells, (track_cells[0] + 1) % N_CELLS]
    offset, extent = st.sampled_from([0, 5, 10]), st.sampled_from([15, 20, 30])

    def boxes(cells):
        return [(100 * c + draw(offset), draw(offset), draw(extent), draw(extent)) for c in cells]

    return cost_matrix(boxes(track_cells), boxes(det_cells)), list(track_cells), list(det_cells)


def repeats_a_line(costs):
    """Whether a row or a column holds two cheap cells (below the top cost)."""
    rows, cols = np.nonzero(costs < costs.max())
    return len(set(rows.tolist())) < len(rows) or len(set(cols.tolist())) < len(cols)


class TestSparseIouMatrices:
    """Both branches of the solver, the pairs taken whole where no row or
    column repeats and the groups solved otherwise, against scipy's
    optimum, the partition and the tie rule."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), shared=st.booleans(), max_cost=st.sampled_from([0.5, 0.8, 1.0]))
    def test_optimal_partition_and_tie_rule(self, data, shared, max_cost):
        costs, track_cells, det_cells = data.draw(cell_matrices(shared))
        assert repeats_a_line(costs) == shared
        n_rows, n_cols = costs.shape
        full = solve_assignment(costs, max_cost=np.inf)
        assert total_cost(costs, full) == pytest.approx(scipy_assignment(costs)[0], abs=1e-9)
        assert_partition(full, n_rows, n_cols)
        gated = solve_assignment(costs, max_cost)
        assert_partition(gated, n_rows, n_cols)
        assert gated.matches == tuple(p for p in full.matches if costs[p] <= max_cost)
        # A cell with one track or one detection is a group with one row or
        # one column: it takes its cheapest pair, the lowest row and then the
        # lowest column among equals.
        for cell in set(track_cells) & set(det_cells):
            rows = [r for r, c in enumerate(track_cells) if c == cell]
            cols = [c for c, d in enumerate(det_cells) if d == cell]
            if len(rows) == 1 or len(cols) == 1:
                best = min((costs[r, c], r, c) for r in rows for c in cols)
                assert best[1:] in full.matches
                assert sum(r in rows and c in cols for r, c in full.matches) == 1

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), shared=st.booleans(), bad=st.sampled_from([np.nan, np.inf, -np.inf]))
    def test_a_non_finite_cost_raises_in_either_branch(self, data, shared, bad):
        costs, _, _ = data.draw(cell_matrices(shared))
        row = data.draw(st.integers(0, costs.shape[0] - 1))
        col = data.draw(st.integers(0, costs.shape[1] - 1))
        costs[row, col] = bad
        with pytest.raises(ValueError, match="finite"):
            solve_assignment(costs, max_cost=0.8)
