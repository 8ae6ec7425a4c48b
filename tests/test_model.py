import math
import re

import numpy as np
import pytest

from beltrack import (
    BoundingBox,
    CategoryLabel,
    Detection,
    FrameDetections,
    kf_initiate,
)
from beltrack import model
from beltrack.model import corners, iou_matrix, split_frames

from oracles import frame_of, iou, pixel_iou


def boxes_iou(rows, cols):
    """``iou_matrix`` of two lists of (x, y, w, h) boxes."""
    return iou_matrix(
        corners(np.array(rows, dtype=float).reshape(-1, 4)),
        corners(np.array(cols, dtype=float).reshape(-1, 4)),
    )


def pair_iou(a, b):
    return float(boxes_iou([a], [b])[0, 0])


class TestBoundingBox:
    def test_rejects_non_positive_size(self):
        with pytest.raises(ValueError):
            BoundingBox(0, 0, 0, 1)
        with pytest.raises(ValueError):
            BoundingBox(0, 0, 1, -2)

    def test_rejects_non_finite_coordinates(self):
        with pytest.raises(ValueError):
            BoundingBox(math.nan, 0, 1, 1)
        with pytest.raises(ValueError):
            BoundingBox(0, math.inf, 1, 1)

    @pytest.mark.parametrize("box, extent", [
        ((0, 0, 1e200, 1e200), "area"),
        ((1e308, 0, 1e308, 1), "right"),
        ((0, 1e308, 1, 1e308), "bottom"),
        ((-1.7e308, 1e308, 1, 1e308), "bottom"),  # x + w + y + h is finite
        ((0, 0, 1e10, 1e-300), "aspect w/h"),
    ])
    def test_rejects_boxes_whose_extent_overflows(self, box, extent):
        with pytest.raises(ValueError, match=f"box {extent} must be finite"):
            BoundingBox(*box)

    def test_rejects_aspect_that_underflows(self):
        # The tracker's filter encodes w/h; 1e-300 / 1e300 is 0.0.
        with pytest.raises(ValueError, match="box aspect w/h must be positive, got 0.0"):
            BoundingBox(0, 0, 1e-300, 1e300)

    def test_center_and_edges(self):
        box = np.array([10.0, 10.0, 4.0, 8.0])
        assert kf_initiate(box).mean[:2].tolist() == [12, 14]
        assert corners(box[None]).ravel().tolist() == [10, 10, 14, 18]


class TestIou:
    def test_identical_boxes(self):
        assert pair_iou((0, 0, 2, 2), (0, 0, 2, 2)) == 1.0

    def test_disjoint_boxes(self):
        assert pair_iou((0, 0, 1, 1), (5, 5, 1, 1)) == 0.0

    def test_partial_overlap(self):
        # intersection 1x2=2, union 4+4-2=6
        assert pair_iou((0, 0, 2, 2), (1, 0, 2, 2)) == pytest.approx(1 / 3, abs=1e-12)

    def test_touching_edges_count_as_disjoint(self):
        assert pair_iou((0, 0, 1, 1), (1, 0, 1, 1)) == 0.0

    def test_symmetry_and_range_on_random_boxes(self):
        rng = np.random.default_rng(7)
        rows = np.column_stack([rng.uniform(-50, 50, (500, 2)), rng.uniform(0.5, 40, (500, 2))])
        cols = np.column_stack([rng.uniform(-50, 50, (500, 2)), rng.uniform(0.5, 40, (500, 2))])
        matrix = boxes_iou(rows, cols)
        assert np.array_equal(matrix, boxes_iou(cols, rows).T)
        assert ((matrix >= 0.0) & (matrix <= 1.0)).all()
        assert (np.diag(boxes_iou(rows, rows)) == 1.0).all()

    def test_matches_pixel_counting_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            a = (*rng.integers(0, 65, 2).tolist(), *rng.integers(1, 65, 2).tolist())
            b = (*rng.integers(0, 65, 2).tolist(), *rng.integers(1, 65, 2).tolist())
            assert pair_iou(a, b) == pytest.approx(pixel_iou(a, b), abs=1e-12)

    def test_iou_matrix_agrees_with_scalar(self):
        rng = np.random.default_rng(3)
        rows = [(*rng.uniform(0, 30, 2), *rng.uniform(1, 20, 2)) for _ in range(5)]
        cols = [(*rng.uniform(0, 30, 2), *rng.uniform(1, 20, 2)) for _ in range(7)]
        matrix = boxes_iou(rows, cols)
        for i, a in enumerate(rows):
            for j, b in enumerate(cols):
                assert matrix[i, j] == pytest.approx(iou(a, b), abs=1e-12)

    @pytest.mark.parametrize("box", [
        (1e20, 0.0, 1.0, 1.0),  # its right edge rounds to its left: no area
        (0.0, 0.0, 1e-200, 1e-200),  # its area underflows to 0
    ])
    def test_iou_matrix_scores_boxes_without_a_float_area_zero(self, box):
        # The union of two such boxes is 0, and 0/0 would be nan.
        BoundingBox(*box)  # a box the package accepts
        assert boxes_iou([box] * 2, [box] * 2).tolist() == [[0.0, 0.0], [0.0, 0.0]]
        assert iou(box, box) == 0.0

    def test_box_with_the_largest_float_areas_overlaps_itself_fully(self):
        # Two areas of 1.5e308 sum past the float range: the union is formed
        # over halved areas, so it stays finite.
        box = (0, 0, 1e154, 1.5e154)
        assert iou(box, box) == 1.0
        assert boxes_iou([box], [box]).tolist() == [[1.0]]

    def test_pair_iou_equals_iou_matrix_bit_for_bit(self):
        rng = np.random.default_rng(5)
        extremes = [(1e20, 0.0, 1.0, 1.0), (0.0, 0.0, 1e-200, 1e-200), (0.0, 0.0, 1e154, 1.5e154)]
        rows = [(*rng.uniform(0, 30, 2), *rng.uniform(1, 20, 2)) for _ in range(9)] + extremes
        cols = [(*rng.uniform(0, 30, 2), *rng.uniform(1, 20, 2)) for _ in range(8)] + extremes
        a = corners(np.array(rows, dtype=float))
        b = corners(np.array(cols, dtype=float))
        i, j = np.divmod(np.arange(len(rows) * len(cols)), len(cols))
        assert np.array_equal(model.pair_iou(a[:, i], b[:, j]), iou_matrix(a, b).ravel())

    def test_iou_matrix_empty(self):
        assert boxes_iou([], []).shape == (0, 0)
        assert boxes_iou([(0, 0, 1, 1)], []).shape == (1, 0)


class TestCategories:
    def test_index_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            CategoryLabel(4)
        with pytest.raises(ValueError):
            CategoryLabel(-1)


class TestDetection:
    def test_score_range_enforced(self):
        for score in (1.5, -0.1):
            with pytest.raises(ValueError, match=f"score must be in \\[0, 1\\], got {score}"):
                frame_of(0, [(0, 0, 1, 1, score)])

    def test_negative_frame_rejected(self):
        with pytest.raises(ValueError, match="frame_index must be >= 0, got -1"):
            frame_of(-1, [(0, 0, 1, 1, 0.5)])

    def test_frame_columns_are_read_only(self):
        boxes = np.array([[0.0, 0.0, 1.0, 1.0]])
        frame = FrameDetections(0, boxes, [0.5], [2])
        assert frame.boxes.tolist() == [[0.0, 0.0, 1.0, 1.0]]
        assert frame.scores.tolist() == [0.5]
        assert frame.categories.tolist() == [2]
        with pytest.raises(ValueError):
            frame.boxes[0, 0] = 9.0
        with pytest.raises(AttributeError):
            frame.scores = np.zeros(1)
        boxes[0, 0] = 9.0  # the frame holds a copy, and the input stays writeable
        assert frame.boxes[0, 0] == 0.0

    def test_frame_rejects_mixed_category_counts(self):
        # One count holds for the frame: a label of a larger set is rejected
        # with the words of CategoryLabel.
        with pytest.raises(ValueError, match=re.escape("category index 5 out of range [0, 4)")):
            frame_of(0, [(0, 0, 1, 1, 0.5, 2), (0, 0, 1, 1, 0.5, 5)])
        assert frame_of(0, [(0, 0, 1, 1, 0.5, 5)], num_categories=6).categories.tolist() == [5]

    def test_category_count_only_matters_where_a_row_has_a_label(self):
        unlabeled = frame_of(0, [(0, 0, 1, 1, 0.5)])
        assert unlabeled.num_categories == 4
        assert split_frames(
            np.zeros(1, dtype=np.int64), unlabeled.boxes, unlabeled.scores,
            unlabeled.categories, 6,
        ) == [unlabeled]
        assert frame_of(0, [(0, 0, 1, 1, 0.5, 1)], 6) != frame_of(0, [(0, 0, 1, 1, 0.5, 1)], 4)

    def test_frame_detections_requires_consistent_frames(self):
        # The rows carry the frame's index.
        frame = frame_of(3, [(0, 0, 1, 1, 0.5)])
        assert frame.detections == (Detection(3, BoundingBox(0, 0, 1, 1), 0.5),)
        with pytest.raises(ValueError, match="a score and a category per row"):
            FrameDetections(3, np.zeros((2, 4)), [0.5])
