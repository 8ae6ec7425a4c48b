import math

import numpy as np
import pytest

from beltrack import (
    BinaryQuality,
    BoundingBox,
    CategoryLabel,
    Detection,
    FrameDetections,
    iou,
    to_binary,
)
from beltrack.model import (
    BRUISE,
    FRESH,
    ROT,
    SCAB,
    corners,
    iou_matrix,
    split_frames,
    xywh_array,
)

from oracles import pixel_iou


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
        box = BoundingBox(10, 10, 4, 8)
        assert (box.cx, box.cy) == (12, 14)
        assert (box.right, box.bottom) == (14, 18)


class TestIou:
    def test_identical_boxes(self):
        box = BoundingBox(0, 0, 2, 2)
        assert iou(box, box) == 1.0

    def test_disjoint_boxes(self):
        assert iou(BoundingBox(0, 0, 1, 1), BoundingBox(5, 5, 1, 1)) == 0.0

    def test_partial_overlap(self):
        # intersection 1x2=2, union 4+4-2=6
        value = iou(BoundingBox(0, 0, 2, 2), BoundingBox(1, 0, 2, 2))
        assert value == pytest.approx(1 / 3, abs=1e-12)

    def test_touching_edges_count_as_disjoint(self):
        assert iou(BoundingBox(0, 0, 1, 1), BoundingBox(1, 0, 1, 1)) == 0.0

    def test_symmetry_and_range_on_random_boxes(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            a = BoundingBox(*rng.uniform(-50, 50, 2), *rng.uniform(0.5, 40, 2))
            b = BoundingBox(*rng.uniform(-50, 50, 2), *rng.uniform(0.5, 40, 2))
            ab = iou(a, b)
            assert ab == iou(b, a)
            assert 0.0 <= ab <= 1.0
            assert iou(a, a) == 1.0

    def test_matches_pixel_counting_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            a = BoundingBox(
                int(rng.integers(0, 65)), int(rng.integers(0, 65)),
                int(rng.integers(1, 65)), int(rng.integers(1, 65)),
            )
            b = BoundingBox(
                int(rng.integers(0, 65)), int(rng.integers(0, 65)),
                int(rng.integers(1, 65)), int(rng.integers(1, 65)),
            )
            assert iou(a, b) == pytest.approx(pixel_iou(a, b), abs=1e-12)

    def test_iou_matrix_agrees_with_scalar(self):
        rng = np.random.default_rng(3)
        rows = [BoundingBox(*rng.uniform(0, 30, 2), *rng.uniform(1, 20, 2)) for _ in range(5)]
        cols = [BoundingBox(*rng.uniform(0, 30, 2), *rng.uniform(1, 20, 2)) for _ in range(7)]
        matrix = iou_matrix(corners(xywh_array(rows)), corners(xywh_array(cols)))
        for i, a in enumerate(rows):
            for j, b in enumerate(cols):
                assert matrix[i, j] == pytest.approx(iou(a, b), abs=1e-12)

    @pytest.mark.parametrize("box", [
        (1e20, 0.0, 1.0, 1.0),  # its right edge rounds to its left: no area
        (0.0, 0.0, 1e-200, 1e-200),  # its area underflows to 0
    ])
    def test_iou_matrix_scores_boxes_without_a_float_area_zero(self, box):
        # The union of two such boxes is 0, and 0/0 would be nan.
        boxes = corners(xywh_array([BoundingBox(*box)] * 2))
        assert iou_matrix(boxes, boxes).tolist() == [[0.0, 0.0], [0.0, 0.0]]
        assert iou(BoundingBox(*box), BoundingBox(*box)) == 0.0

    def test_iou_matrix_empty(self):
        empty = corners(xywh_array([]))
        assert iou_matrix(empty, empty).shape == (0, 0)
        assert iou_matrix(corners(xywh_array([BoundingBox(0, 0, 1, 1)])), empty).shape == (1, 0)


class TestCategories:
    def test_to_binary_total_on_default_categories(self):
        assert to_binary(FRESH) is BinaryQuality.NORMAL
        for label in (BRUISE, ROT, SCAB):
            assert to_binary(label) is BinaryQuality.DEFECT

    def test_to_binary_deterministic_for_any_category_count(self):
        for c in range(6):
            label = CategoryLabel(c, num_categories=6)
            expected = BinaryQuality.NORMAL if c == 0 else BinaryQuality.DEFECT
            assert to_binary(label) is expected

    def test_index_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            CategoryLabel(4)
        with pytest.raises(ValueError):
            CategoryLabel(-1)

    def test_canonical_names(self):
        assert FRESH.name == "fresh"
        assert ROT.name == "rot_defect"


class TestDetection:
    def test_score_range_enforced(self):
        box = BoundingBox(0, 0, 1, 1)
        with pytest.raises(ValueError):
            Detection(0, box, 1.5)
        with pytest.raises(ValueError):
            Detection(0, box, -0.1)

    def test_negative_frame_rejected(self):
        with pytest.raises(ValueError):
            Detection(-1, BoundingBox(0, 0, 1, 1), 0.5)

    def test_frame_columns_are_read_only(self):
        frame = FrameDetections(0, [Detection(0, BoundingBox(0, 0, 1, 1), 0.5, ROT)])
        assert frame.boxes.tolist() == [[0.0, 0.0, 1.0, 1.0]]
        assert frame.scores.tolist() == [0.5]
        assert frame.categories.tolist() == [2]
        with pytest.raises(ValueError):
            frame.boxes[0, 0] = 9.0
        with pytest.raises(AttributeError):
            frame.scores = np.zeros(1)

    def test_frame_rejects_mixed_category_counts(self):
        box = BoundingBox(0, 0, 1, 1)
        with pytest.raises(ValueError, match="mixes category counts"):
            FrameDetections(0, [Detection(0, box, 0.5, ROT), Detection(0, box, 0.5, CategoryLabel(1, 6))])

    def test_category_count_only_matters_where_a_row_has_a_label(self):
        box = BoundingBox(0, 0, 1, 1)
        unlabeled = FrameDetections(0, [Detection(0, box, 0.5)])
        assert unlabeled.num_categories == 4
        assert split_frames(
            np.zeros(1, dtype=np.int64), unlabeled.boxes, unlabeled.scores,
            unlabeled.categories, 6,
        ) == [unlabeled]
        assert FrameDetections(0, [Detection(0, box, 0.5, CategoryLabel(1, 6))]) != FrameDetections(
            0, [Detection(0, box, 0.5, CategoryLabel(1, 4))]
        )

    def test_frame_detections_requires_consistent_frames(self):
        det = Detection(3, BoundingBox(0, 0, 1, 1), 0.5)
        with pytest.raises(ValueError):
            FrameDetections(4, [det])
        frame = FrameDetections(3, [det])
        assert frame.detections == (det,)
