import dataclasses
import math

import numpy as np
import pytest

from beltrack import ConfigError
from beltrack.simulate import SimConfig, generate_scene


def stream_fingerprint(gt, frames):
    parts = []
    for obj in gt.objects:
        parts.append((obj.object_id, obj.true_category.index, tuple(obj.boxes)))
    for frame in frames:
        for det in frame.detections:
            label = None if det.category_observation is None else det.category_observation.index
            parts.append((det.frame_index, det.box, det.score, label))
    return tuple(parts)


class TestNoiselessScene:
    CONFIG = SimConfig(
        seed=5, n_lanes=1, n_objects_per_lane=1, frame_width=100.0,
        belt_velocity=5.0, box_size_mean=30.0,
    )

    def test_detections_equal_ground_truth(self):
        gt, frames = generate_scene(self.CONFIG)
        obj = gt.objects[0]
        truth = dict(obj.boxes)
        seen = {}
        for frame in frames:
            assert len(frame.detections) == 1
            det = frame.detections[0]
            assert det.category_observation == obj.true_category
            seen[frame.frame_index] = det.box
        assert seen == truth

    def test_lifetime_from_crossing_geometry(self):
        gt, _ = generate_scene(self.CONFIG)
        # crossing distance frame_width + size at belt_velocity px/frame
        expected = math.ceil((100.0 + 30.0) / 5.0) - 1
        assert expected == 25
        assert len(gt.objects[0].boxes) == expected

    def test_centers_advance_exactly_belt_velocity(self):
        gt, _ = generate_scene(self.CONFIG)
        boxes = gt.objects[0].boxes
        for (f0, b0), (f1, b1) in zip(boxes, boxes[1:]):
            assert f1 == f0 + 1
            assert b1.cx - b0.cx == pytest.approx(5.0, abs=1e-12)
            assert b1.cy == b0.cy


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
        by_id = {obj.object_id: obj for obj in gt.objects}
        true_box = {
            (obj.object_id, f): box for obj in gt.objects for f, box in obj.boxes
        }
        for frame in frames:
            for det in frame.detections:
                # identify the source object by its lane center
                candidates = [
                    oid for (oid, f), box in true_box.items()
                    if f == frame.frame_index and abs(box.cy - det.box.cy) < 40
                    and abs(box.cx - det.box.cx) < 10
                ]
                assert len(candidates) == 1
                assert det.category_observation == by_id[candidates[0]].true_category

    def test_flip_rate_concentrates_around_q(self):
        config = SimConfig(
            seed=4, n_lanes=2, n_objects_per_lane=10, frame_width=300.0,
            label_flip_prob=0.3,
        )
        gt, frames = generate_scene(config)
        # no jitter in this config, so detections carry exact truth positions
        true_cat = {}
        for obj in gt.objects:
            for f, box in obj.boxes:
                true_cat[(f, box.x, box.cy)] = obj.true_category
        flips = total = 0
        for frame in frames:
            for det in frame.detections:
                truth = true_cat[(det.frame_index, det.box.x, det.box.cy)]
                total += 1
                flips += det.category_observation != truth
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
        for obj in gt.objects:
            for f, box in obj.boxes:
                by_frame.setdefault(f, []).append(box)
        for boxes in by_frame.values():
            for i, a in enumerate(boxes):
                for b in boxes[i + 1 :]:
                    if a.cy == b.cy:  # same lane
                        assert a.x + a.w <= b.x or b.x + b.w <= a.x


class TestSceneStatistics:
    def test_empty_scene(self):
        config = SimConfig(seed=0, n_lanes=1, n_objects_per_lane=0)
        gt, frames = generate_scene(config)
        assert gt.objects == ()
        assert frames == []


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
