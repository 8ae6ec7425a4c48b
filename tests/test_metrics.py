import json
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beltrack import (
    CategoryLabel,
    DetectionTable,
    PipelineResult,
    Track,
    defect_ratio,
    detection_map,
    majority_vote,
    stability_report,
)
from beltrack import metrics
from beltrack.metrics import covering_tracks, majority_tracks, switches_in
from beltrack.pipeline import write_summary
from beltrack.simulate import SceneGroundTruth

from oracles import (
    FRESH,
    ROT,
    covering_tracks_reference,
    detection_map_reference,
    detections_of,
    majority_tracks_reference,
    switches_reference,
    table_of,
    temporal_stability,
    truth_of_rows,
)

N, D = "normal", "defect"


def track_of(*labels, track_id=1):
    """A finished track that predicted ``labels`` on frames 0, 1, 2, ..."""
    k = len(labels)
    return Track(
        id=track_id,
        frames=np.arange(k, dtype=np.int64),
        boxes=np.tile([0.0, 0.0, 10.0, 10.0], (k, 1)),
        categories=np.array([label.index for label in labels], dtype=np.int64),
        num_categories=labels[0].num_categories if labels else 4,
    )


def tracks_of(*histories):
    """One table of tracks 0, 1, ... that predicted the label lists
    ``histories``."""
    return table_of(
        track_of(*labels, track_id=track_id) for track_id, labels in enumerate(histories)
    )


def verdicts_of(*histories):
    """The verdicts of ``tracks_of(*histories)``."""
    return majority_vote(tracks_of(*histories))


def summary_of(path, *histories):
    """The summary ``write_summary`` writes for the table ``tracks_of(*histories)``."""
    tracks = tracks_of(*histories)
    write_summary(PipelineResult(majority_vote(tracks), tracks, *stability_report(tracks)), path)
    return json.loads(path.read_text())


class TestDefectRatio:
    def test_two_in_ten(self):
        verdicts = verdicts_of(*[[ROT]] * 2, *[[FRESH]] * 8)
        assert defect_ratio(verdicts) == 0.2

    def test_all_normal(self):
        verdicts = verdicts_of(*[[FRESH]] * 5)
        assert defect_ratio(verdicts) == 0.0

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            defect_ratio(verdicts_of())


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
    def test_aggregated_mode_is_exactly_stable(self, tmp_path):
        rng = np.random.default_rng(1)
        histories = []
        for _ in range(20):
            k = int(rng.integers(1, 30))
            histories.append([CategoryLabel(int(rng.integers(4))) for _ in range(k)])
        report = summary_of(tmp_path / "summary.json", *histories)["aggregated"]
        assert report["mean_stability"] == 1.0
        assert all(v == 1.0 for v in report["per_track_stability"].values())

    def test_frame_wise_alternating_buffer(self):
        _, stability = stability_report(table_of([track_of(ROT, FRESH, ROT, FRESH)]))
        assert stability.tolist() == [0.25]

    def test_frame_wise_defect_ratio_uses_last_frame_by_default(self):
        tracks = [track_of(ROT, FRESH, track_id=1), track_of(FRESH, ROT, track_id=2)]
        categories, _ = stability_report(table_of(tracks))
        assert categories.tolist() == [FRESH.index, ROT.index]

    def test_frame_choice_first(self):
        tracks = [track_of(ROT, FRESH, track_id=1), track_of(FRESH, ROT, track_id=2)]
        categories, _ = stability_report(table_of(tracks), frame_choice="first")
        assert categories.tolist() == [ROT.index, FRESH.index]  # track 1's first label is defect

    def test_category_granularity_counts_defect_type_changes(self):
        labels = [CategoryLabel(1), CategoryLabel(2), CategoryLabel(2), CategoryLabel(3)]
        _, binary = stability_report(table_of([track_of(*labels)]))
        _, four_way = stability_report(table_of([track_of(*labels)]), granularity="category")
        assert binary.tolist() == [1.0]  # all defect
        assert four_way.tolist() == [0.5]  # two changes over k=4

    def test_aggregated_defect_ratio_matches_verdicts(self, tmp_path):
        histories = ([ROT, ROT, FRESH], [FRESH, FRESH])
        report = summary_of(tmp_path / "summary.json", *histories)["aggregated"]
        assert report["defect_ratio"] == 0.5 == defect_ratio(verdicts_of(*histories))
        assert report["n_total_tracks"] == 2

    def test_empty_buffers_give_empty_columns_and_a_zero_summary(self, tmp_path):
        categories, stability = stability_report(table_of([]))
        assert (categories.dtype, stability.dtype) == (np.int64, np.float64)
        assert len(categories) == len(stability) == 0
        zeros = {"defect_ratio": 0.0, "mean_stability": 0.0, "n_total_tracks": 0,
                 "n_defect_tracks": 0, "per_track_stability": {}}
        summary = summary_of(tmp_path / "summary.json")
        assert summary["aggregated"] == summary["frame_wise"] == zeros


class TestDetectionMap:
    def test_perfect_detector(self):
        rows = [(0, 0, 0, 10, 10, 1.0), (0, 50, 50, 10, 10, 1.0), (1, 0, 0, 9, 9, 1.0)]
        assert detection_map(detections_of(rows), truth_of_rows(rows)) == 1.0

    def test_false_positive_after_full_recall_keeps_ap_one(self):
        gt = truth_of_rows([(0, 0, 0, 10, 10)])
        dets = detections_of([(0, 0, 0, 10, 10, 0.9), (0, 80, 80, 10, 10, 0.8)])
        assert detection_map(dets, gt) == 1.0

    def test_missing_ground_truth_caps_recall(self):
        gt = truth_of_rows([(0, 0, 0, 10, 10), (0, 50, 50, 10, 10)])
        dets = detections_of([(0, 0, 0, 10, 10, 0.9)])
        assert detection_map(dets, gt) == 0.5

    def test_truth_rows_in_object_order(self):
        # Object 1 covers frames 0 and 1, object 2 frame 0: the truth's rows
        # are not in frame order, and each frame's boxes all count.
        gt = truth_of(
            (1, FRESH, [(0, (0.0, 0.0, 10.0, 10.0)), (1, (5.0, 0.0, 10.0, 10.0))]),
            (2, FRESH, [(0, (50.0, 50.0, 10.0, 10.0))]),
        )
        dets = detections_of([(0, 0, 0, 10, 10, 0.9), (0, 50, 50, 10, 10, 0.8), (1, 5, 0, 10, 10, 0.7)])
        assert detection_map(dets, gt) == 1.0
        assert detection_map_reference(dets, gt) == 1.0

    def test_no_ground_truth_rejected(self):
        dets = detections_of([(0, 0, 0, 10, 10, 0.9)])
        with pytest.raises(ValueError):
            detection_map(dets, truth_of_rows([]))

    def test_low_scoring_fp_before_tp_lowers_ap(self):
        gt = truth_of_rows([(0, 0, 0, 10, 10)])
        dets = detections_of([(0, 0, 0, 10, 10, 0.5), (0, 80, 80, 10, 10, 0.9)])
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
            gt = truth_of_rows(gt_entries)
            dets = detections_of(det_entries)
            baseline = detection_map(dets, gt)
            for transform in (lambda s: s**2, lambda s: s**0.5, lambda s: 0.25 + s / 2):
                rescaled = DetectionTable(
                    dets.frames, dets.boxes, transform(dets.scores), dets.categories
                )
                assert detection_map(rescaled, gt) == pytest.approx(baseline, abs=1e-12)


def simple_track(track_id, boxes):
    """An unlabeled track that matched the given (frame, (x, y, w, h)) pairs,
    in frame order."""
    return Track(
        id=track_id,
        frames=np.array([f for f, _ in boxes], dtype=np.int64),
        boxes=np.array([box for _, box in boxes], dtype=float).reshape(-1, 4),
        categories=np.full(len(boxes), -1, dtype=np.int64),
        num_categories=4,
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
        assert switches_in(covering_tracks(table_of([simple_track(1, boxes)]), gt), gt) == 0

    def test_identity_handoff_counts_once(self):
        boxes = [(t, (5.0 * t, 0, 20, 20)) for t in range(10)]
        gt = single_object_gt(boxes)
        tracks = [simple_track(1, boxes[:5]), simple_track(2, boxes[5:])]
        assert switches_in(covering_tracks(table_of(tracks), gt), gt) == 1

    def test_coverage_gap_is_not_a_switch(self):
        boxes = [(t, (5.0 * t, 0, 20, 20)) for t in range(10)]
        gt = single_object_gt(boxes)
        tracks = [simple_track(1, boxes[:4] + boxes[6:])]
        assert switches_in(covering_tracks(table_of(tracks), gt), gt) == 0

    def test_low_overlap_tracks_ignored(self):
        boxes = [(t, (5.0 * t, 0, 20, 20)) for t in range(6)]
        gt = single_object_gt(boxes)
        far = [(t, (500.0, 500.0, 20, 20)) for t in range(6)]
        tracks = [simple_track(1, boxes), simple_track(2, far)]
        assert switches_in(covering_tracks(table_of(tracks), gt), gt) == 0


class TestMajorityTracks:
    def test_most_frames_wins_and_ties_take_lowest_id(self):
        boxes = [(t, (5.0 * t, 0, 20, 20)) for t in range(6)]
        gt = single_object_gt(boxes)
        handoff = [simple_track(2, boxes[:3]), simple_track(1, boxes[3:])]
        assert majority_tracks(covering_tracks(table_of(handoff), gt), gt).tolist() == [1]
        uneven = [simple_track(2, boxes[:4]), simple_track(1, boxes[4:])]
        assert majority_tracks(covering_tracks(table_of(uneven), gt), gt).tolist() == [2]

    def test_uncovered_object_gets_minus_one(self):
        boxes = [(t, (5.0 * t, 0, 20, 20)) for t in range(6)]
        far = [(t, (500.0, 500.0, 20, 20)) for t in range(6)]
        gt = single_object_gt(boxes)
        covering = covering_tracks(table_of([simple_track(1, far)]), gt)
        assert covering.tolist() == [-1] * 6
        assert majority_tracks(covering, gt).tolist() == [-1]


# Per object, the covering id of each of its rows (-1: none), ids small so
# that runs, repeats and ties come up often.
covering_columns = st.lists(st.lists(st.integers(-1, 3), max_size=8), max_size=6)


def truth_with_counts(covered):
    """Ground truth with one object per list of ``covered``, as many rows as
    its entries, and the covering column of those entries."""
    counts = [len(ids) for ids in covered]
    gt = SceneGroundTruth(
        np.arange(len(covered)), np.zeros(len(covered)), counts,
        [t for n in counts for t in range(n)], np.ones((sum(counts), 4)),
    )
    return gt, np.array([i for ids in covered for i in ids], dtype=np.int64)


class TestCoveringColumnMatchesLoops:
    @settings(max_examples=200, deadline=None)
    @given(covered=covering_columns)
    def test_switches_and_majority(self, covered):
        gt, covering = truth_with_counts(covered)
        assert switches_in(covering, gt) == switches_reference(covering.tolist(), gt)
        assert majority_tracks(covering, gt).tolist() == majority_tracks_reference(
            covering.tolist(), gt
        )


class TestStabilityReportMatchesPerTrackLoop:
    @settings(max_examples=200, deadline=None)
    @given(
        histories=st.lists(st.lists(st.integers(0, 3), min_size=1, max_size=12), min_size=1, max_size=8),
        frame_choice=st.sampled_from(["last", "first", "random"]),
        granularity=st.sampled_from(["binary", "category"]),
    )
    def test_one_pass_equals_per_track_scores(self, histories, frame_choice, granularity):
        tracks = [
            track_of(*(CategoryLabel(c) for c in labels), track_id=2 * i + 1)
            for i, labels in enumerate(histories)
        ]
        categories, stability = stability_report(
            table_of(tracks), frame_choice=frame_choice, granularity=granularity
        )
        rng = np.random.default_rng(0)  # one scalar draw per track, in track order
        want_categories, want_stability = [], []
        for labels in histories:
            defects = [c > 0 for c in labels]
            want_stability.append(temporal_stability(defects if granularity == "binary" else labels))
            frame = {"first": 0, "last": -1}.get(frame_choice)
            want_categories.append(labels[int(rng.integers(len(labels))) if frame is None else frame])
        assert stability.tolist() == want_stability
        assert categories.tolist() == want_categories


# Boxes on a coarse grid with two sizes, so identical boxes (equal-overlap
# ties) and partial overlaps both come up often.
grid_boxes = st.tuples(
    st.integers(0, 6).map(lambda v: 5.0 * v),
    st.integers(0, 2).map(lambda v: 5.0 * v),
    st.sampled_from([10.0, 20.0]),
    st.sampled_from([10.0, 20.0]),
)
frames_and_boxes = st.lists(st.tuples(st.integers(0, 3), grid_boxes), max_size=8)
thresholds = st.sampled_from([0.0, 1e-9, 0.3, 0.5, 1.0])


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
            simple_track(track_id, sorted(dict(history).items()))
            for track_id, history in enumerate(histories, start=1)
        ]
        if descending:
            tracks.reverse()
        gt = truth_of(*(
            (object_id, FRESH, sorted(dict(boxes).items()))
            for object_id, boxes in enumerate(truths, start=1)
        ))
        if threshold == 0.0:  # a track whose box misses the object's would cover it
            with pytest.raises(ValueError):
                covering_tracks(table_of(tracks), gt, threshold)
            return
        assert covering_tracks(table_of(tracks), gt, threshold).tolist() == covering_tracks_reference(
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
        truths=st.lists(frames_and_boxes, max_size=4),
        threshold=thresholds,
    )
    def test_detection_map(self, dets, truths, threshold):
        # a frame's rows may come in more than one entry, and the truth's
        # rows are in object order, not in frame order
        det_frames = detections_of(
            [(frame, *box, score) for frame, entries in dets for box, score in entries]
        )
        gt = truth_of(*(
            (object_id, FRESH, sorted(dict(boxes).items()))
            for object_id, boxes in enumerate(truths, start=1)
        ))
        if len(gt.frames) == 0:
            with pytest.raises(ValueError):
                detection_map(det_frames, gt, threshold)
            return
        assert detection_map(det_frames, gt, threshold) == detection_map_reference(
            det_frames, gt, threshold
        )


def assert_join_matches_oracles(truth_rows, other_rows, threshold=0.5):
    """``covering_tracks`` and ``detection_map`` equal their oracles with the
    (frame, (x, y, w, h)) rows of ``truth_rows`` as truth (one object each)
    and those of ``other_rows`` as one-row tracks (ids descending) and as
    detections (scores cycling through 0.9, 0.6 and 0.3), and again with the
    two sides swapped. Returns the first covering column, as a list, and AP
    (None without truth)."""
    results = []
    for truth, other in ((truth_rows, other_rows), (other_rows, truth_rows)):
        gt = truth_of(*((i, FRESH, [row]) for i, row in enumerate(truth, start=1)))
        tracks = [simple_track(len(other) - i, [row]) for i, row in enumerate(other)]
        coverage = covering_tracks(table_of(tracks), gt, threshold).tolist()
        assert coverage == covering_tracks_reference(tracks, gt, threshold)
        dets = detections_of([(f, *box, (0.9, 0.6, 0.3)[i % 3]) for i, (f, box) in enumerate(other)])
        ap = None
        if truth:
            ap = detection_map(dets, gt, threshold)
            assert ap == detection_map_reference(dets, gt, threshold)
        else:
            with pytest.raises(ValueError):
                detection_map(dets, gt, threshold)
        results.append((coverage, ap))
    return results[0]


def candidate_pairs(a_rows, b_rows, threshold):
    """The (a row, b row) pairs ``metrics._overlaps`` yields for two lists of
    (frame, (x, y, w, h)) rows, a in frame order."""
    def columns(rows):
        frames = np.array([f for f, _ in rows], dtype=np.int64)
        return frames, np.array([box for _, box in rows], dtype=float).reshape(-1, 4)

    a_frames, a_boxes = columns(a_rows)
    b_frames, b_boxes = columns(b_rows)
    rows = np.arange(len(a_rows))
    return sorted(
        (int(k), int(j))
        for ks, js, _ in metrics._overlaps(rows, a_frames, a_boxes, b_frames, b_boxes, threshold)
        for k, j in zip(ks, js)
    )


wide_boxes = st.tuples(
    st.integers(-4, 6).map(lambda v: 5.0 * v),
    st.integers(0, 2).map(lambda v: 5.0 * v),
    st.sampled_from([10.0, 20.0, 1000.0]),
    st.sampled_from([10.0, 20.0]),
)
scene_rows = st.lists(st.tuples(st.integers(0, 3), wide_boxes), max_size=12)


class TestOverlapJoinEdgeCases:
    def test_touching_edges_are_not_candidates(self):
        truth = [(0, (0.0, 0.0, 10.0, 10.0))]
        touching = [
            (0, (10.0, 0.0, 10.0, 10.0)),
            (0, (0.0, 10.0, 10.0, 10.0)),
            (0, (-10.0, -10.0, 10.0, 10.0)),
            (0, (-10.0, 0.0, 10.0, 10.0)),
        ]
        assert candidate_pairs(truth, touching, 1e-9) == []
        assert candidate_pairs(touching, truth, 1e-9) == []
        assert assert_join_matches_oracles(truth, touching, 1e-9) == ([-1], 0.0)

    def test_pair_at_exactly_the_threshold(self):
        truth = [(0, (0.0, 0.0, 10.0, 10.0))]
        half = [(0, (0.0, 0.0, 10.0, 5.0)), (0, (0.0, 5.0, 10.0, 4.0))]  # IoU 0.5 and 0.4
        assert assert_join_matches_oracles(truth, half, 0.5) == ([2], 1.0)
        above = float(np.nextafter(0.5, 1.0))
        assert assert_join_matches_oracles(truth, half, above) == ([-1], 0.0)

    def test_equal_overlaps_take_the_lowest_index(self):
        # Each tie's lowest index lies to the right, after the other
        # candidate in the window's left-edge order.
        truth = [(0, (5.0, 0.0, 10.0, 10.0))]
        tracks = [(0, (0.0, 0.0, 10.0, 10.0)), (0, (10.0, 0.0, 10.0, 10.0))]  # ids 2, 1
        assert assert_join_matches_oracles(truth, tracks, 0.3)[0] == [1]
        # Detection 0.9 overlaps both truth boxes by 1/3 and takes truth 0,
        # which leaves truth 1 to detection 0.6.
        truth = [(0, (10.0, 0.0, 10.0, 10.0)), (0, (0.0, 0.0, 10.0, 10.0))]
        dets = [(0, (5.0, 0.0, 10.0, 10.0)), (0, (-3.0, 0.0, 10.0, 10.0))]
        assert assert_join_matches_oracles(truth, dets, 0.3)[1] == 1.0

    def test_box_much_wider_than_the_rest(self):
        truth = [(0, (30.0 * i, 0.0, 10.0, 10.0)) for i in range(11)]
        other = [(0, (-500.0, 0.0, 1000.0, 10.0)), (0, (301.0, 0.0, 10.0, 10.0))]
        for threshold in (1e-9, 0.5):
            assert_join_matches_oracles(truth, other, threshold)
        # The wide box on either side is a candidate of every box it meets.
        assert len(candidate_pairs(truth, other, 1e-9)) == 12
        assert len(candidate_pairs(other[:1], truth, 1e-9)) == 11

    def test_frames_on_one_side_only(self):
        box = (0.0, 0.0, 10.0, 10.0)
        truth = [(0, box), (1, box), (3, box)]
        other = [(1, (1.0, 0.0, 10.0, 10.0)), (2, box), (4, box)]
        coverage, _ = assert_join_matches_oracles(truth, other)
        assert coverage == [-1, 3, -1]

    def test_empty_sides(self):
        rows = [(0, (0.0, 0.0, 10.0, 10.0)), (2, (5.0, 0.0, 10.0, 10.0))]
        assert assert_join_matches_oracles(rows, []) == ([-1, -1], 0.0)
        assert assert_join_matches_oracles([], []) == ([], None)
        assert candidate_pairs(rows, [], 0.5) == candidate_pairs([], rows, 0.5) == []

    def test_frame_split_across_blocks(self):
        # Frame 1 starts 5 rows before the first block ends, on both sides,
        # and its boxes crowd each other, so the sweep's order decides.
        n = metrics._BLOCK
        truth = [(0, (25.0 * i, 0.0, 20.0, 20.0)) for i in range(n - 5)]
        truth += [(1, (2.0 * i, 0.0, 20.0, 20.0)) for i in range(12)]
        truth += [(2, (0.0, 0.0, 20.0, 20.0))]
        other = [(0, (25.0 * i + 1.0, 1.0, 20.0, 20.0)) for i in range(n - 5)]
        other += [(1, (3.0 * i, 2.0, 20.0, 20.0)) for i in range(12)]
        other += [(2, (1.0, 0.0, 20.0, 20.0))]
        coverage, ap = assert_join_matches_oracles(truth, other)
        assert sum(i >= 0 for i in coverage) > n and 0.9 < ap < 1.0

    def test_window_holds_boxes_whose_right_edge_rounds_up(self):
        # Above 2**53 floats are 2 apart, so x + 3 rounds up to x + 4: the
        # boxes overlap by 2 of 4 and score IoU 0.5 (1/4 in exact
        # arithmetic). The window must take the rounded right edges, and its
        # lower bound x + 2 - 3 must still reach x.
        x = 2.0**53
        truth = [(0, (x, 0.0, 3.0, 10.0))]
        other = [(0, (x + 2.0, 0.0, 2.0, 10.0))]
        assert x + 3.0 == x + 4.0
        assert candidate_pairs(other, truth, 0.5) == candidate_pairs(truth, other, 0.5) == [(0, 0)]
        assert assert_join_matches_oracles(truth, other, 0.5) == ([1], 1.0)

    @pytest.mark.parametrize("threshold", [0.0, -0.5, 1.5, float("nan")])
    def test_covering_threshold_out_of_range_rejected(self, threshold):
        gt = single_object_gt([(0, (0.0, 0.0, 10.0, 10.0))])
        with pytest.raises(ValueError, match="iou_threshold"):
            covering_tracks(table_of([simple_track(1, [(0, (20.0, 0.0, 10.0, 10.0))])]), gt, threshold)

    @settings(max_examples=150, deadline=None)
    @given(
        truth=scene_rows,
        other=scene_rows,
        block=st.integers(1, 4),
        threshold=st.sampled_from([1e-9, 0.3, 0.5, 1.0]),
    )
    def test_any_block_size(self, truth, other, block, threshold):
        with patch.object(metrics, "_BLOCK", block):
            assert_join_matches_oracles(truth, other, threshold)
