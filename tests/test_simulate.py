import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beltrack.io as bio
from beltrack import ConfigError
from beltrack.simulate import SceneGroundTruth, SimConfig, generate_scene
from oracles import generate_scene_reference


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


@st.composite
def small_configs(draw):
    """Small scenes with every noise knob drawn, 0 included."""
    num_categories = draw(st.integers(2, 5))
    knob = lambda high: st.one_of(st.just(0.0), st.floats(0.0, high))  # noqa: E731
    return SimConfig(
        seed=draw(st.integers(0, 2**32 - 1)),
        n_lanes=draw(st.integers(1, 3)),
        n_objects_per_lane=draw(st.none() | st.integers(0, 4)),
        n_frames=draw(st.integers(0, 60)),
        spawn_interval_frames=draw(st.integers(1, 15)),
        spawn_jitter_frames=draw(st.integers(0, 4)),
        frame_width=draw(st.floats(20.0, 150.0)),
        frame_height=draw(st.floats(20.0, 150.0)),
        belt_velocity=draw(st.floats(2.0, 12.0)),
        box_size_mean=draw(st.floats(5.0, 40.0)),
        box_size_std=draw(knob(8.0)),
        defect_probability=draw(st.floats(0.0, 1.0)),
        defect_category_weights=tuple(
            draw(st.lists(st.floats(0.1, 2.0), min_size=num_categories - 1,
                          max_size=num_categories - 1))
        ),
        detection_dropout_prob=draw(knob(1.0)),
        bbox_jitter_std=draw(knob(3.0)),
        false_positive_rate=draw(knob(3.0)),
        score_mean_true=draw(st.floats(0.0, 1.0)),
        score_std_true=draw(knob(0.5)),
        score_mean_fp=draw(st.floats(0.0, 1.0)),
        score_std_fp=draw(knob(0.5)),
        label_flip_prob=draw(knob(1.0)),
        num_categories=num_categories,
    )


class TestPinnedScenes:
    """The draws stay in the order the module docstring states, so a seed
    gives the same scene from one version to the next."""

    # Shaped like the benchmark's tiny scenes, one of each workload.
    BELT = SimConfig(
        seed=3, n_lanes=3, n_objects_per_lane=5, spawn_jitter_frames=5,
        detection_dropout_prob=0.1, bbox_jitter_std=1.0, false_positive_rate=0.5,
        label_flip_prob=0.2,
    )
    CLUTTER = SimConfig(
        seed=4, n_lanes=6, n_objects_per_lane=5, spawn_interval_frames=12,
        false_positive_rate=3.0, score_mean_true=0.75, score_std_true=0.15,
        detection_dropout_prob=0.15, bbox_jitter_std=1.5, label_flip_prob=0.25,
    )

    @pytest.mark.parametrize(("config", "detections_sha256", "truth_sha256"), [
        (TestDeterminism.NOISY,
         "cd27f59bf782e913a39234fd1afedadbe5a623823e19fc413626c3261b882e72",
         "bbebce95ce64b28386163c561008bf04eff15fa8f5da46a733d54b95690a5dda"),
        (BELT,
         "39c9386883de4dc60d602e1b7353567179e3f423cfc255ed7ae05235d6fbed1c",
         "1cfbb028c02b73ffdbf87b1a0d1df1615138a82ae44f73fab63a6ade8118dcb4"),
        (CLUTTER,
         "d4056248103ae3c30342589918b4abdd3525c9a820ad39e77c69aaa3e169a9b3",
         "c39d4c264c871f5ebaf6f5e85077ea884bd4b68d10a833eb92ba0c82091053c1"),
    ], ids=["noisy", "belt", "clutter"])
    def test_written_scene_digests(self, tmp_path, config, detections_sha256, truth_sha256):
        gt, detections = generate_scene(config)
        bio.write_detections(detections, tmp_path / "detections.jsonl")
        bio.write_ground_truth(gt, tmp_path / "truth.jsonl")
        digest = lambda name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()  # noqa: E731
        assert digest("detections.jsonl") == detections_sha256
        assert digest("truth.jsonl") == truth_sha256

    @given(small_configs())
    @settings(max_examples=200, deadline=None)
    def test_equals_row_by_row_reference(self, config):
        assert generate_scene(config) == generate_scene_reference(config)


class TestKnobRates:
    """Each noise knob's rate, within 4 standard deviations of its
    distribution, whatever the draws' order."""

    BASE = SimConfig(seed=31, n_lanes=3, n_objects_per_lane=30, frame_width=200.0)

    def test_dropout_share_is_binomial(self):
        p = 0.3
        gt, detections = generate_scene(dataclasses.replace(self.BASE, detection_dropout_prob=p))
        n = len(gt.frames)
        dropped = (n - len(detections.scores)) / n
        assert abs(dropped - p) <= 4 * math.sqrt(p * (1 - p) / n)

    def test_false_positives_per_frame_are_poisson(self):
        rate, n_frames = 1.7, 2000
        config = dataclasses.replace(
            self.BASE, n_objects_per_lane=0, n_frames=n_frames, false_positive_rate=rate,
        )
        _, detections = generate_scene(config)
        total = len(detections.scores)
        assert abs(total - rate * n_frames) <= 4 * math.sqrt(rate * n_frames)

    def test_jitter_standard_deviation(self):
        sigma = 2.0
        gt, detections = generate_scene(dataclasses.replace(self.BASE, bbox_jitter_std=sigma))
        # No dropout, so the detections are the truth rows in frame order.
        truth = gt.boxes[np.argsort(gt.frames, kind="stable")]
        offsets = (detections.boxes[:, :2] - truth[:, :2]).ravel()
        assert (detections.boxes[:, 2:] == truth[:, 2:]).all()
        m = len(offsets)
        assert abs(offsets.mean()) <= 4 * sigma / math.sqrt(m)
        assert abs(offsets.var(ddof=1) - sigma**2) <= 4 * sigma**2 * math.sqrt(2 / (m - 1))

    def test_scores_are_clipped_to_unit_interval(self):
        config = dataclasses.replace(
            self.BASE, score_mean_true=0.95, score_std_true=0.3, score_mean_fp=0.05,
            score_std_fp=0.3, false_positive_rate=2.0,
        )
        _, detections = generate_scene(config)
        scores = detections.scores
        assert ((scores >= 0.0) & (scores <= 1.0)).all()
        assert (scores == 0.0).any() and (scores == 1.0).any()


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

    @pytest.mark.parametrize(("field", "value", "words"), [
        *((name, value, f"{name} must be finite and >= 0")
          for name in ("score_std_true", "score_std_fp", "bbox_jitter_std", "box_size_std")
          for value in (-0.5, math.inf, math.nan)),
        *(("false_positive_rate", value, "false_positive_rate must be finite and >= 0")
          for value in (-1.0, math.inf, math.nan)),
        *((name, value, f"{name} must be finite and > 0")
          for name in ("box_size_mean", "frame_width", "frame_height", "lane_spacing",
                       "belt_velocity")
          for value in (0.0, -5.0, math.inf, math.nan)),
        *(("defect_category_weights", weights, "defect_category_weights must be finite")
          for weights in ((1.0, math.inf, 1.0), (1.0, math.nan, 1.0), (1.0, -1.0, 3.0))),
    ])
    def test_noise_scales_and_extents(self, field, value, words):
        # A negative score std once failed mid-generation in NumPy, a NaN
        # false-positive rate meant none, and a negative frame width still
        # showed every object.
        with pytest.raises(ConfigError, match=words):
            SimConfig(**{field: value})

    @pytest.mark.parametrize("num_categories", [1, 0, -3])
    def test_fewer_than_two_categories(self, num_categories):
        # One category and no defect weights once reached min(()).
        weights = (1.0,) * max(num_categories - 1, 0)
        with pytest.raises(ConfigError, match="num_categories must be >= 2"):
            SimConfig(num_categories=num_categories, defect_category_weights=weights)

    @pytest.mark.parametrize(("field", "value"), [
        ("n_frames", -5), ("n_frames", -1), ("n_objects_per_lane", -3), ("n_objects_per_lane", -1),
        ("n_lanes", 0), ("spawn_interval_frames", 0), ("spawn_jitter_frames", -1),
    ])
    def test_counts_below_their_least_value(self, field, value):
        # A negative frame or object count once wrote empty files and exited 0.
        with pytest.raises(ConfigError, match=f"{field} must be >= "):
            SimConfig(**{field: value})

    def test_zero_frames_and_zero_objects_are_valid(self):
        gt, detections = generate_scene(SimConfig(n_frames=0))
        assert len(gt.object_ids) == len(detections) == 0
        gt, detections = generate_scene(SimConfig(n_objects_per_lane=0))
        assert len(gt.object_ids) == len(detections) == 0


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
