import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beltrack import (
    BinaryQuality,
    CategoryLabel,
    FrameDetections,
    Track,
    TrackStatus,
    aggregated_report,
    defect_ratio,
    detection_map,
    majority_vote,
    stability_report,
    temporal_stability,
)
from beltrack.metrics import covering_tracks, majority_tracks, switches_in
from beltrack.simulate import SceneGroundTruth

from oracles import (
    FRESH,
    ROT,
    covering_tracks_reference,
    detection_map_reference,
    frame_of,
    frames_of,
)

N = BinaryQuality.NORMAL
D = BinaryQuality.DEFECT


def track_of(*labels, track_id=1):
    """A finished track that predicted ``labels`` on frames 0, 1, 2, ..."""
    k = len(labels)
    return Track(
        id=track_id, state=None, status=TrackStatus.REMOVED,
        last_update_frame=max(k - 1, 0), hit_count=k,
        frames=np.arange(k, dtype=np.int64),
        boxes=np.tile([0.0, 0.0, 10.0, 10.0], (k, 1)),
        categories=np.array([label.index for label in labels], dtype=np.int64),
        num_categories=labels[0].num_categories if labels else 4,
    )


def verdict_of(*labels, track_id=1):
    return majority_vote(track_of(*labels, track_id=track_id))


class TestDefectRatio:
    def test_two_in_ten(self):
        verdicts = [verdict_of(ROT, track_id=i) for i in range(2)]
        verdicts += [verdict_of(FRESH, track_id=i) for i in range(2, 10)]
        assert defect_ratio(verdicts) == 0.2

    def test_all_normal(self):
        verdicts = [verdict_of(FRESH, track_id=i) for i in range(5)]
        assert defect_ratio(verdicts) == 0.0

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            defect_ratio([])


class TestTemporalStability:
    def test_constant_sequence(self):
        assert temporal_stability([D, D, D, D]) == 1.0

    def test_alternating_sequence(self):
        assert temporal_stability([D, N, D, N]) == 0.25

    def test_single_label(self):
        assert temporal_stability([N]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            temporal_stability([])

    def test_bounds_and_constant_characterization(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            k = int(rng.integers(1, 30))
            labels = [N if rng.random() < 0.5 else D for _ in range(k)]
            value = temporal_stability(labels)
            assert 1.0 - (k - 1) / k <= value <= 1.0
            assert (value == 1.0) == all(a == b for a, b in zip(labels, labels[1:]))

    def test_works_on_category_labels(self):
        labels = [FRESH, ROT, ROT, FRESH]
        assert temporal_stability(labels) == 1.0 - 2 / 4


class TestStabilityReport:
    def test_aggregated_mode_is_exactly_stable(self):
        rng = np.random.default_rng(1)
        verdicts = []
        for i in range(20):
            k = int(rng.integers(1, 30))
            labels = [CategoryLabel(int(rng.integers(4))) for _ in range(k)]
            verdicts.append(verdict_of(*labels, track_id=i))
        report = aggregated_report(verdicts)
        assert report.mean_stability == 1.0
        assert all(v == 1.0 for v in report.per_track_stability.values())

    def test_frame_wise_alternating_buffer(self):
        report = stability_report([track_of(ROT, FRESH, ROT, FRESH)])
        assert report.mean_stability == 0.25
        assert report.per_track_stability[1] == 0.25

    def test_frame_wise_defect_ratio_uses_last_frame_by_default(self):
        tracks = [track_of(ROT, FRESH, track_id=1), track_of(FRESH, ROT, track_id=2)]
        report = stability_report(tracks)
        assert report.defect_ratio == 0.5
        assert report.n_defect_tracks == 1

    def test_frame_choice_first(self):
        tracks = [track_of(ROT, FRESH, track_id=1), track_of(FRESH, ROT, track_id=2)]
        report = stability_report(tracks, frame_choice="first")
        assert report.n_defect_tracks == 1  # track 1's first label is defect

    def test_category_granularity_counts_defect_type_changes(self):
        labels = [CategoryLabel(1), CategoryLabel(2), CategoryLabel(2), CategoryLabel(3)]
        binary = stability_report([track_of(*labels)])
        four_way = stability_report([track_of(*labels)], granularity="category")
        assert binary.mean_stability == 1.0  # all defect
        assert four_way.mean_stability == 0.5  # two changes over k=4

    def test_aggregated_defect_ratio_matches_verdicts(self):
        verdicts = [verdict_of(ROT, ROT, FRESH, track_id=1), verdict_of(FRESH, FRESH, track_id=2)]
        report = aggregated_report(verdicts)
        assert report.defect_ratio == 0.5
        assert report.n_total_tracks == 2

    def test_empty_buffers_rejected(self):
        with pytest.raises(ValueError):
            stability_report([])
        with pytest.raises(ValueError):
            aggregated_report([])


class TestDetectionMap:
    def test_perfect_detector(self):
        gt = frames_of([(0, 0, 0, 10, 10, 1.0), (0, 50, 50, 10, 10, 1.0), (1, 0, 0, 9, 9, 1.0)])
        assert detection_map(gt, gt) == 1.0

    def test_false_positive_after_full_recall_keeps_ap_one(self):
        gt = frames_of([(0, 0, 0, 10, 10, 1.0)])
        dets = frames_of([(0, 0, 0, 10, 10, 0.9), (0, 80, 80, 10, 10, 0.8)])
        assert detection_map(dets, gt) == 1.0

    def test_missing_ground_truth_caps_recall(self):
        gt = frames_of([(0, 0, 0, 10, 10, 1.0), (0, 50, 50, 10, 10, 1.0)])
        dets = frames_of([(0, 0, 0, 10, 10, 0.9)])
        assert detection_map(dets, gt) == 0.5

    def test_truth_split_over_entries_for_one_frame(self):
        # Two frame-0 truth entries: both boxes count, so both detections match.
        gt = [frame_of(0, [(0, 0, 10, 10, 1.0)]), frame_of(0, [(50, 50, 10, 10, 1.0)])]
        dets = frames_of([(0, 0, 0, 10, 10, 0.9), (0, 50, 50, 10, 10, 0.8)])
        assert detection_map(dets, gt) == 1.0
        assert detection_map_reference(dets, gt) == 1.0

    def test_no_ground_truth_rejected(self):
        dets = frames_of([(0, 0, 0, 10, 10, 0.9)])
        with pytest.raises(ValueError):
            detection_map(dets, [])

    def test_low_scoring_fp_before_tp_lowers_ap(self):
        gt = frames_of([(0, 0, 0, 10, 10, 1.0)])
        dets = frames_of([(0, 0, 0, 10, 10, 0.5), (0, 80, 80, 10, 10, 0.9)])
        # FP outranks the TP: precision at full recall is 0.5
        assert detection_map(dets, gt) == 0.5

    def test_invariant_under_monotone_score_rescaling(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n_gt = int(rng.integers(1, 8))
            gt_entries = [
                (int(rng.integers(3)), float(rng.uniform(0, 80)), float(rng.uniform(0, 80)),
                 10.0, 10.0, 1.0)
                for _ in range(n_gt)
            ]
            det_entries = []
            for frame, x, y, w, h, _ in gt_entries:
                if rng.random() < 0.8:  # jittered true positive candidates
                    det_entries.append(
                        (frame, x + float(rng.uniform(-2, 2)), y + float(rng.uniform(-2, 2)),
                         w, h, float(rng.uniform(0.1, 1.0)))
                    )
            for _ in range(int(rng.integers(0, 4))):  # false positives
                det_entries.append(
                    (int(rng.integers(3)), float(rng.uniform(100, 200)), float(rng.uniform(100, 200)),
                     10.0, 10.0, float(rng.uniform(0.1, 1.0)))
                )
            gt = frames_of(gt_entries)
            dets = frames_of(det_entries)
            baseline = detection_map(dets, gt)
            for transform in (lambda s: s**2, lambda s: s**0.5, lambda s: 0.25 + s / 2):
                rescaled = [
                    FrameDetections(f.frame_index, f.boxes, transform(f.scores)) for f in dets
                ]
                assert detection_map(rescaled, gt) == pytest.approx(baseline, abs=1e-12)


def simple_track(track_id, boxes, status=TrackStatus.ACTIVE):
    """An unlabeled track that matched the given (frame, (x, y, w, h)) pairs,
    in frame order."""
    return Track(
        id=track_id, state=None, status=status,
        last_update_frame=max((f for f, _ in boxes), default=0), hit_count=len(boxes),
        frames=np.array([f for f, _ in boxes], dtype=np.int64),
        boxes=np.array([box for _, box in boxes], dtype=float).reshape(-1, 4),
        categories=np.full(len(boxes), -1, dtype=np.int64),
    )


def truth_of(*objects):
    """Ground truth from (object id, category, [(frame, (x, y, w, h)), ...])
    triples, each object's pairs in frame order."""
    return SceneGroundTruth(
        [object_id for object_id, _, _ in objects],
        [category.index for _, category, _ in objects],
        [len(pairs) for _, _, pairs in objects],
        [frame for _, _, pairs in objects for frame, _ in pairs],
        np.array([box for _, _, pairs in objects for _, box in pairs], dtype=float).reshape(-1, 4),
    )


def single_object_gt(boxes, category=FRESH):
    return truth_of((1, category, boxes))


class TestCountIdSwitches:
    def test_perfect_coverage_no_switches(self):
        boxes = [(t, (5.0 * t, 0, 20, 20)) for t in range(10)]
        gt = single_object_gt(boxes)
        assert switches_in(covering_tracks([simple_track(1, boxes)], gt)) == 0

    def test_identity_handoff_counts_once(self):
        boxes = [(t, (5.0 * t, 0, 20, 20)) for t in range(10)]
        gt = single_object_gt(boxes)
        tracks = [simple_track(1, boxes[:5]), simple_track(2, boxes[5:])]
        assert switches_in(covering_tracks(tracks, gt)) == 1

    def test_coverage_gap_is_not_a_switch(self):
        boxes = [(t, (5.0 * t, 0, 20, 20)) for t in range(10)]
        gt = single_object_gt(boxes)
        tracks = [simple_track(1, boxes[:4] + boxes[6:])]
        assert switches_in(covering_tracks(tracks, gt)) == 0

    def test_low_overlap_tracks_ignored(self):
        boxes = [(t, (5.0 * t, 0, 20, 20)) for t in range(6)]
        gt = single_object_gt(boxes)
        far = [(t, (500.0, 500.0, 20, 20)) for t in range(6)]
        tracks = [simple_track(1, boxes), simple_track(2, far)]
        assert switches_in(covering_tracks(tracks, gt)) == 0


class TestMajorityTracks:
    def test_most_frames_wins_and_ties_take_lowest_id(self):
        boxes = [(t, (5.0 * t, 0, 20, 20)) for t in range(6)]
        gt = single_object_gt(boxes)
        handoff = [simple_track(2, boxes[:3]), simple_track(1, boxes[3:])]
        assert majority_tracks(covering_tracks(handoff, gt)) == {1: 1}
        uneven = [simple_track(2, boxes[:4]), simple_track(1, boxes[4:])]
        assert majority_tracks(covering_tracks(uneven, gt)) == {1: 2}

    def test_uncovered_object_left_out(self):
        boxes = [(t, (5.0 * t, 0, 20, 20)) for t in range(6)]
        far = [(t, (500.0, 500.0, 20, 20)) for t in range(6)]
        coverage = covering_tracks([simple_track(1, far)], single_object_gt(boxes))
        assert coverage == {}
        assert majority_tracks(coverage) == {}


# Boxes on a coarse grid with two sizes, so identical boxes (equal-overlap
# ties) and partial overlaps both come up often.
grid_boxes = st.tuples(
    st.integers(0, 6).map(lambda v: 5.0 * v),
    st.integers(0, 2).map(lambda v: 5.0 * v),
    st.sampled_from([10.0, 20.0]),
    st.sampled_from([10.0, 20.0]),
)
frames_and_boxes = st.lists(st.tuples(st.integers(0, 3), grid_boxes), max_size=8)
thresholds = st.sampled_from([0.0, 0.3, 0.5, 1.0])


class TestOverlapKernelMatchesScalarLoops:
    @settings(max_examples=200, deadline=None)
    @given(
        histories=st.lists(frames_and_boxes, max_size=5),
        truths=st.lists(frames_and_boxes, max_size=4),
        descending=st.booleans(),
        threshold=thresholds,
    )
    def test_covering_tracks(self, histories, truths, descending, threshold):
        tracks = [
            simple_track(track_id, sorted(dict(history).items()), TrackStatus.REMOVED)
            for track_id, history in enumerate(histories, start=1)
        ]
        if descending:
            tracks.reverse()
        gt = truth_of(*(
            (object_id, FRESH, sorted(dict(boxes).items()))
            for object_id, boxes in enumerate(truths, start=1)
        ))
        assert covering_tracks(tracks, gt, threshold) == covering_tracks_reference(
            tracks, gt, threshold
        )

    @settings(max_examples=200, deadline=None)
    @given(
        dets=st.lists(
            st.tuples(st.integers(0, 3), st.lists(
                st.tuples(grid_boxes, st.sampled_from([0.3, 0.6, 0.9])), max_size=4
            )),
            max_size=6,
        ),
        truth=st.lists(
            st.tuples(st.integers(0, 3), st.lists(grid_boxes, max_size=4)), min_size=1
        ),
        threshold=thresholds,
    )
    def test_detection_map(self, dets, truth, threshold):
        # a frame may come in more than one FrameDetections entry, in both
        det_frames = [
            frame_of(frame, [(*box, score) for box, score in entries]) for frame, entries in dets
        ]
        gt_frames = [frame_of(frame, [(*box, 1.0) for box in boxes]) for frame, boxes in truth]
        if not any(boxes for _, boxes in truth):
            with pytest.raises(ValueError):
                detection_map(det_frames, gt_frames, threshold)
            return
        assert detection_map(det_frames, gt_frames, threshold) == detection_map_reference(
            det_frames, gt_frames, threshold
        )
