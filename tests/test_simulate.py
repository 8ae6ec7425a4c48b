import dataclasses
import math

import numpy as np
import pytest

from beltrack import ConfigError
from beltrack.simulate import SceneGroundTruth, SimConfig, generate_scene


def stream_fingerprint(gt, frames):
    parts = [gt.object_ids.tolist(), gt.categories.tolist(), gt.counts.tolist()]
    parts += [gt.frames.tolist(), gt.boxes.tolist()]
    for frame in frames:
        parts.append((
            frame.frame_index, frame.boxes.tolist(), frame.scores.tolist(),
            frame.categories.tolist(),
        ))
    return parts


def truth_rows(gt):
    """(object, frame, (x, y, w, h)) of every truth row."""
    return [
        (obj, f, tuple(box))
        for obj in gt.objects
        for f, box in zip(obj.frames.tolist(), obj.boxes.tolist())
    ]


def detection_rows(frames):
    """(frame, (x, y, w, h), category) of every detection."""
    return [
        (frame.frame_index, tuple(box), category)
        for frame in frames
        for box, category in zip(frame.boxes.tolist(), frame.categories.tolist())
    ]


def center(box):
    x, y, w, h = box
    return x + w / 2.0, y + h / 2.0


class TestNoiselessScene:
    CONFIG = SimConfig(
        seed=5, n_lanes=1, n_objects_per_lane=1, frame_width=100.0,
        belt_velocity=5.0, box_size_mean=30.0,
    )

    def test_detections_equal_ground_truth(self):
        gt, frames = generate_scene(self.CONFIG)
        obj = gt.objects[0]
        truth = {f: box for _, f, box in truth_rows(gt)}
        seen = {}
        for frame in frames:
            assert len(frame.scores) == 1
            assert frame.categories.tolist() == [obj.true_category.index]
            seen[frame.frame_index] = tuple(frame.boxes[0].tolist())
        assert seen == truth

    def test_lifetime_from_crossing_geometry(self):
        gt, _ = generate_scene(self.CONFIG)
        # crossing distance frame_width + size at belt_velocity px/frame
        expected = math.ceil((100.0 + 30.0) / 5.0) - 1
        assert expected == 25
        assert len(gt.objects[0].boxes) == expected

    def test_centers_advance_exactly_belt_velocity(self):
        gt, _ = generate_scene(self.CONFIG)
        obj = gt.objects[0]
        assert (np.diff(obj.frames) == 1).all()
        x, y, w, h = obj.boxes.T
        assert np.allclose(np.diff(x + w / 2.0), 5.0, rtol=0.0, atol=1e-12)
        assert (y + h / 2.0 == y[0] + h[0] / 2.0).all()


class TestDeterminism:
    NOISY = SimConfig(
        seed=13, n_lanes=2, n_objects_per_lane=8, frame_width=200.0,
        detection_dropout_prob=0.15, bbox_jitter_std=1.5, false_positive_rate=0.5,
        label_flip_prob=0.25, box_size_std=3.0, spawn_jitter_frames=3,
    )

    def test_same_seed_bit_identical(self):
        first = stream_fingerprint(*generate_scene(self.NOISY))
        second = stream_fingerprint(*generate_scene(self.NOISY))
        assert first == second

    def test_different_seed_differs(self):
        other = dataclasses.replace(self.NOISY, seed=14)
        assert stream_fingerprint(*generate_scene(self.NOISY)) != stream_fingerprint(
            *generate_scene(other)
        )

    def test_structural_counts_match_across_seeds_without_jitter(self):
        base = SimConfig(seed=1, n_lanes=2, n_objects_per_lane=5, frame_width=150.0)
        other = dataclasses.replace(base, seed=2)
        gt_a, frames_a = generate_scene(base)
        gt_b, frames_b = generate_scene(other)
        assert len(gt_a.objects) == len(gt_b.objects)
        assert [len(o.boxes) for o in gt_a.objects] == [len(o.boxes) for o in gt_b.objects]
        assert [f.frame_index for f in frames_a] == [f.frame_index for f in frames_b]


class TestLabelNoise:
    def test_zero_flip_probability_gives_true_categories(self):
        config = SimConfig(
            seed=3, n_lanes=2, n_objects_per_lane=4, frame_width=150.0,
            detection_dropout_prob=0.2, bbox_jitter_std=1.0, label_flip_prob=0.0,
        )
        gt, frames = generate_scene(config)
        truth = truth_rows(gt)
        for t, box, category in detection_rows(frames):
            # identify the source object by its lane center
            cx, cy = center(box)
            candidates = [
                obj for obj, f, true_box in truth
                if f == t and abs(center(true_box)[1] - cy) < 40
                and abs(center(true_box)[0] - cx) < 10
            ]
            assert len(candidates) == 1
            assert category == candidates[0].true_category.index

    def test_flip_rate_concentrates_around_q(self):
        config = SimConfig(
            seed=4, n_lanes=2, n_objects_per_lane=10, frame_width=300.0,
            label_flip_prob=0.3,
        )
        gt, frames = generate_scene(config)
        # no jitter in this config, so detections carry exact truth positions
        true_cat = {
            (f, box[0], center(box)[1]): obj.true_category.index for obj, f, box in truth_rows(gt)
        }
        flips = total = 0
        for t, box, category in detection_rows(frames):
            total += 1
            flips += category != true_cat[(t, box[0], center(box)[1])]
        assert total > 500
        assert flips / total == pytest.approx(0.3, abs=0.05)


class TestDefectFraction:
    def test_binomial_concentration(self):
        config = SimConfig(
            seed=21, n_lanes=5, n_objects_per_lane=100, frame_width=120.0,
            defect_probability=0.3,
        )
        gt, _ = generate_scene(config)
        assert len(gt.objects) == 500
        n_defect = sum(1 for obj in gt.objects if obj.true_category.index != 0)
        assert n_defect / len(gt.objects) == pytest.approx(0.3, abs=0.06)


class TestLaneSeparation:
    def test_objects_never_overlap_within_lane(self):
        # spawn_interval * velocity = 100 > 2 * box size
        config = SimConfig(
            seed=8, n_lanes=3, n_objects_per_lane=10, frame_width=250.0,
            spawn_interval_frames=20, belt_velocity=5.0, box_size_mean=32.0,
            box_size_std=4.0,
        )
        gt, _ = generate_scene(config)
        by_frame = {}
        for _, f, box in truth_rows(gt):
            by_frame.setdefault(f, []).append(box)
        for boxes in by_frame.values():
            for i, (ax, ay, aw, ah) in enumerate(boxes):
                for bx, by, bw, bh in boxes[i + 1 :]:
                    if ay + ah / 2.0 == by + bh / 2.0:  # same lane
                        assert ax + aw <= bx or bx + bw <= ax


class TestSceneStatistics:
    def test_empty_scene(self):
        config = SimConfig(seed=0, n_lanes=1, n_objects_per_lane=0)
        gt, frames = generate_scene(config)
        assert gt.objects == ()
        assert len(frames) == 0 and len(frames.frames) == 0


class TestConfigValidation:
    def test_probability_ranges(self):
        with pytest.raises(ConfigError):
            SimConfig(defect_probability=1.5)
        with pytest.raises(ConfigError):
            SimConfig(detection_dropout_prob=-0.1)

    def test_geometry_invariants(self):
        with pytest.raises(ConfigError):
            SimConfig(lane_spacing=0)
        with pytest.raises(ConfigError):
            SimConfig(belt_velocity=-1)

    def test_weights_shape(self):
        with pytest.raises(ConfigError):
            SimConfig(defect_category_weights=(1.0, 1.0))
        with pytest.raises(ConfigError):
            SimConfig(defect_category_weights=(0.0, 0.0, 0.0))

    @pytest.mark.parametrize("num_categories", [1, 0, -3])
    def test_fewer_than_two_categories(self, num_categories):
        # One category and no defect weights once reached min(()).
        weights = (1.0,) * max(num_categories - 1, 0)
        with pytest.raises(ConfigError, match="num_categories must be >= 2"):
            SimConfig(num_categories=num_categories, defect_category_weights=weights)


class TestTruthTableChecks:
    # A truth built in memory holds the rules a truth file's rows are read
    # under, so the library call and the written file score the same truth.

    def test_box_that_is_not_finite_rejected(self):
        with pytest.raises(ValueError, match="box field 'x' must be finite"):
            SceneGroundTruth([1], [0], [2], [0, 0], [[0, 0, 10, 10], [math.nan, 0, 10, 10]])

    @pytest.mark.parametrize(("frame", "box", "words"), [
        (-1, [0, 0, 10, 10], "frame_index must be >= 0"),
        (0, [0, 0, 0, 10], "box size must be positive"),
        (0, [0, 0, 1e200, 1e200], "box area must be finite"),
    ])
    def test_row_checks_apply(self, frame, box, words):
        with pytest.raises(ValueError, match=words):
            SceneGroundTruth([1, 2], [0, 1], [1, 1], [3, frame], [[0, 0, 10, 10], box])

    @pytest.mark.parametrize("frames", [[0, 0], [1, 0]])
    def test_frames_must_rise_within_an_object(self, frames):
        with pytest.raises(ValueError, match="strictly increasing"):
            SceneGroundTruth([1, 2], [0, 0], [1, 2], [5, *frames], [[0, 0, 10, 10]] * 3)

    def test_objects_share_frames(self):
        gt = SceneGroundTruth([1, 2, 3], [0, 1, 0], [2, 0, 1], [3, 4, 3], [[0, 0, 10, 10]] * 3)
        assert gt.frames.tolist() == [3, 4, 3]
