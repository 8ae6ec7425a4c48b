import itertools
import json
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beltrack.model as model
import beltrack.pipeline as pipeline_module
from beltrack import (
    AggregationConfig,
    ByteTracker,
    ConfigError,
    DetectionTable,
    FrameDetections,
    SimConfig,
    TrackerConfig,
    evaluate_against_truth,
    run_pipeline,
    run_stream,
)
from beltrack.io import ingest_detections, read_ground_truth, write_detections
from beltrack.pipeline import PipelineRun, simulate_to_files
from beltrack.simulate import SceneGroundTruth, generate_scene

from oracles import FRESH, evaluate_reference, frame_of, live_tracks


def verdict_rows(verdicts):
    """A verdict table's (track id, votes, category) rows."""
    return list(zip(
        verdicts.track_ids.tolist(), verdicts.votes.tolist(), verdicts.categories.tolist()
    ))


def clean_scene(**overrides):
    base = dict(seed=1, n_lanes=1, n_objects_per_lane=1, frame_width=150.0)
    base.update(overrides)
    return SimConfig(**base)


class TestRunValidation:
    def test_exactly_one_source_required(self):
        with pytest.raises(ConfigError):
            PipelineRun()
        with pytest.raises(ConfigError):
            PipelineRun(input_path="x.jsonl", sim_config=clean_scene())


class TestNoiselessPipeline:
    def test_single_object_verdict_and_stability(self):
        result = run_pipeline(PipelineRun(sim_config=clean_scene()))
        gt, _ = generate_scene(clean_scene())
        assert result.verdicts.categories.tolist() == gt.categories.tolist()
        assert result.frame_wise_stability.tolist() == [1.0]
        assert len(result.tracks) == len(result.verdicts)

    def test_file_input_equals_simulated_input(self, tmp_path):
        config = clean_scene(n_objects_per_lane=3, label_flip_prob=0.2, seed=9)
        _, frames = generate_scene(config)
        path = tmp_path / "dets.jsonl"
        write_detections(frames, path)
        from_sim = run_pipeline(PipelineRun(sim_config=config))
        from_file = run_pipeline(PipelineRun(input_path=path))
        assert verdict_rows(from_sim.verdicts) == verdict_rows(from_file.verdicts)
        for got, want in ((from_sim.frame_wise_categories, from_file.frame_wise_categories),
                          (from_sim.frame_wise_stability, from_file.frame_wise_stability)):
            assert got.tolist() == want.tolist()


class TestDeterminism:
    def test_identical_runs_identical_files(self, tmp_path):
        config = clean_scene(
            n_lanes=2, n_objects_per_lane=5, detection_dropout_prob=0.1,
            bbox_jitter_std=1.0, label_flip_prob=0.2, seed=77,
        )
        outputs = []
        for name in ("first", "second"):
            verdicts = tmp_path / f"{name}_verdicts.jsonl"
            summary = tmp_path / f"{name}_summary.json"
            run_pipeline(PipelineRun(
                sim_config=config, verdicts_path=verdicts, summary_path=summary,
            ))
            outputs.append((verdicts.read_bytes(), summary.read_bytes()))
        assert outputs[0] == outputs[1]


class TestTrackingIndependentOfAggregation:
    def test_mode_changes_labels_not_identities(self):
        config = clean_scene(
            n_lanes=2, n_objects_per_lane=6, label_flip_prob=0.3, seed=15,
        )
        _, frames = generate_scene(config)
        tracks = run_stream(frames)
        result = run_pipeline(PipelineRun(sim_config=config))
        assert [t.id for t in result.tracks] == [t.id for t in tracks]
        for got, want in zip(result.tracks, tracks):
            assert np.array_equal(got.frames, want.frames)
            assert np.array_equal(got.boxes, want.boxes)
        assert len(result.frame_wise_categories) == len(result.frame_wise_stability)
        assert len(result.frame_wise_stability) == len(result.verdicts)


class TestStabilityGranularityOption:
    def test_category_granularity_reaches_report(self):
        # defect-type churn is invisible to binary stability but not 4-way
        config = clean_scene(n_lanes=2, n_objects_per_lane=10, label_flip_prob=0.4, seed=6)
        from beltrack.pipeline import AggregationConfig

        binary = run_pipeline(PipelineRun(sim_config=config))
        four_way = run_pipeline(PipelineRun(
            sim_config=config,
            aggregation=AggregationConfig(stability_granularity="category"),
        ))
        assert four_way.frame_wise_stability.mean() < binary.frame_wise_stability.mean()


class TestUnlabeledTracks:
    def test_tracks_without_labels_are_counted_not_judged(self, tmp_path):
        frames = [
            frame_of(t, [(5.0 * t, 0, 20, 20, 0.9, None)])
            for t in range(5)
        ]
        path = tmp_path / "dets.jsonl"
        write_detections(DetectionTable.from_frames(frames), path)
        result = run_pipeline(PipelineRun(input_path=path))
        assert len(result.tracks) == 1
        assert len(result.verdicts) == 0
        assert len(result.frame_wise_categories) == len(result.frame_wise_stability) == 0


class TestGapsInStream:
    def test_empty_frames_age_tracks(self):
        # detections at frames 0..2 and 40..42; default max_frames_lost=30
        # means the reappearance becomes a second track
        frames = [
            frame_of(t, [(2.0 * t, 0, 20, 20, 0.9, FRESH)])
            for t in (0, 1, 2, 40, 41, 42)
        ]
        tracks = run_stream(DetectionTable.from_frames(frames))
        assert len(tracks) == 2

    def test_gap_to_frame_2_62_takes_no_time(self):
        frames = [
            frame_of(t, [(5.0, 0, 20, 20, 0.9, FRESH)])
            for t in (0, 1, 2**62)
        ]
        detections = DetectionTable.from_frames(frames)
        start = time.perf_counter()
        tracks = run_stream(detections)
        assert time.perf_counter() - start < 0.5
        assert [tr.frames.tolist() for tr in tracks] == [[0, 1], [2**62]]

    @pytest.mark.parametrize("max_frames_lost", [1, 30, 98, 99, 100])
    def test_long_gap_tracks_as_stepping_every_frame(self, monkeypatch, max_frames_lost):
        # Frames 30..129 of a scene are dropped: a gap of 100 empty frames,
        # longer than the max_frames_lost + 1 steps run_stream takes into
        # it for the first three configs, and not for the last two.
        _, scene = generate_scene(clean_scene(
            n_lanes=2, n_objects_per_lane=None, n_frames=200, label_flip_prob=0.2
        ))
        frames = [f for f in scene if not 30 <= f.frame_index < 130]
        assert frames[0].frame_index < 30 and frames[-1].frame_index >= 130
        config = TrackerConfig(max_frames_lost=max_frames_lost)
        stepping = RecordingTracker(config)
        by_index = {f.frame_index: f for f in frames}
        for t in range(frames[0].frame_index, frames[-1].frame_index + 1):
            stepping.step(by_index.get(t, FrameDetections(t)))
        made = []  # the tracker run_stream makes

        def recording(config):
            made.append(RecordingTracker(config))
            return made[-1]

        monkeypatch.setattr(pipeline_module, "ByteTracker", recording)
        tracks = run_stream(DetectionTable.from_frames(frames), config)
        (skipping,) = made

        def facts(tracker, tracks):
            live = {
                track_id: (status, hits, last, state.mean.tolist(), state.blocks.tolist())
                for track_id, (status, hits, last, state) in live_tracks(tracker).items()
            }
            columns = [
                (tr.id, tr.frames.tolist(), tr.boxes.tolist(), tr.categories.tolist())
                for tr in tracks
            ]
            return columns, live, tracker.removed_at

        assert facts(skipping, tracks) == facts(stepping, stepping.finalize())

    def test_gap_frames_skip_the_row_checks(self, monkeypatch):
        _, scene = generate_scene(clean_scene(n_lanes=2, n_objects_per_lane=None, n_frames=120))
        frames = [f for f in scene if f.frame_index % 9 not in (3, 4, 5)]
        # The same stream with its gaps stepped as checked empty frames.
        by_index = {f.frame_index: f for f in frames}
        filled = [
            by_index.get(t, FrameDetections(t))
            for t in range(frames[0].frame_index, frames[-1].frame_index + 1)
        ]
        stepping = ByteTracker()
        for frame in filled:
            stepping.step(frame)
        want = stepping.finalize()
        detections = DetectionTable.from_frames(frames)
        checks = []
        monkeypatch.setattr(model, "check_rows", lambda *args: checks.append(args))
        got = run_stream(detections)
        assert checks == []

        def columns(tracks):
            return [(t.id, t.frames.tolist(), t.boxes.tolist(), t.categories.tolist()) for t in tracks]

        assert columns(got) == columns(want) and len(frames) < len(filled)


class RecordingTracker(ByteTracker):
    """A tracker that records the frame each track is removed on."""

    def __init__(self, config=None):
        super().__init__(config)
        self.removed_at = {}

    def step(self, frame):
        out = super().step(frame)
        self.removed_at.update(dict.fromkeys(out.newly_removed_track_ids, frame.frame_index))
        return out


class TestEvaluateAgainstTruth:
    def test_clean_two_lane_scene(self):
        config = clean_scene(n_lanes=2, n_objects_per_lane=4, seed=3)
        gt, frames = generate_scene(config)
        evaluation = evaluate_against_truth(frames, gt)
        assert evaluation.n_objects == 8
        assert evaluation.n_tracks == 8
        assert evaluation.id_switches == 0
        assert evaluation.detection_ap == 1.0
        assert evaluation.aggregated_binary_accuracy == 1.0
        assert evaluation.last_frame_category_accuracy == 1.0
        assert evaluation.n_unmatched_objects == 0
        assert evaluation.estimated_defect_ratio == evaluation.true_defect_ratio

    def test_stream_and_truth_must_agree_on_the_category_count(self):
        gt, frames = generate_scene(clean_scene(n_lanes=2, n_objects_per_lane=4, seed=0))
        five = DetectionTable(frames.frames, frames.boxes, frames.scores, frames.categories, 5)
        with pytest.raises(ValueError, match="the stream has 5 categories, the truth has 4"):
            evaluate_against_truth(five, gt)
        # With both at 5 categories, the scores are those of both at 4.
        gt_five = SceneGroundTruth(gt.object_ids, gt.categories, gt.counts, gt.frames, gt.boxes, 5)
        evaluation = evaluate_against_truth(frames, gt)
        assert evaluate_against_truth(five, gt_five) == evaluation
        assert evaluation.aggregated_category_accuracy == 1.0

    def test_aggregation_beats_last_frame_under_flip_noise(self):
        config = clean_scene(
            n_lanes=2, n_objects_per_lane=30, label_flip_prob=0.3,
            frame_width=160.0, seed=25,
        )
        gt, frames = generate_scene(config)
        evaluation = evaluate_against_truth(frames, gt)
        assert evaluation.aggregated_binary_accuracy > evaluation.last_frame_category_accuracy
        assert evaluation.aggregated_binary_accuracy >= 0.9

    def test_defect_ratio_recovery_small_scale(self):
        config = clean_scene(
            n_lanes=2, n_objects_per_lane=50, defect_probability=0.3,
            label_flip_prob=0.1, frame_width=160.0, seed=19,
        )
        gt, frames = generate_scene(config)
        evaluation = evaluate_against_truth(frames, gt)
        assert evaluation.estimated_defect_ratio == pytest.approx(0.3, abs=0.08)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_equals_loop_reference(self, seed):
        # A cluttered scene whose lane-0 detections carry no labels, so some
        # objects have an unlabeled track; min_track_length_report drops
        # short tracks, so the kept ids skip numbers.
        config = SimConfig(
            seed=seed, n_lanes=4, n_objects_per_lane=5, spawn_interval_frames=12,
            false_positive_rate=2.0, score_mean_fp=0.6, score_mean_true=0.75, score_std_true=0.15,
            detection_dropout_prob=0.15, bbox_jitter_std=1.5, label_flip_prob=0.25,
        )
        gt, frames = generate_scene(config)
        frames = DetectionTable(
            frames.frames, frames.boxes, frames.scores,
            np.where(frames.boxes[:, 1] < 80.0, -1, frames.categories),
        )
        short_dropped = TrackerConfig(min_track_length_report=8)
        ids = [track.id for track in run_stream(frames, short_dropped)]
        assert max(ids) > len(ids)
        other = AggregationConfig(
            tie_break="lowest_index", collapse_before_vote=True, stability_granularity="category"
        )
        for tracker_config in (TrackerConfig(), short_dropped, TrackerConfig(min_hits_to_activate=3)):
            for aggregation, threshold in ((AggregationConfig(), 0.5), (other, 0.3), (other, 1.0)):
                args = (frames, gt, tracker_config, aggregation, threshold)
                assert evaluate_against_truth(*args) == evaluate_reference(*args)

    @pytest.mark.parametrize("threshold", [float("nan"), 0.0, -0.1, 1.5])
    def test_iou_threshold_outside_zero_one_rejected(self, threshold):
        gt, frames = generate_scene(clean_scene())
        with pytest.raises(ConfigError, match="iou_threshold must be in"):
            evaluate_against_truth(frames, gt, iou_threshold=threshold)

    def test_iou_threshold_one_accepted(self):
        gt, frames = generate_scene(clean_scene())
        evaluation = evaluate_against_truth(frames, gt, iou_threshold=1.0)
        assert evaluation.n_objects == 1

    def test_spawn_before_frame_zero_evaluates(self):
        # jitter moves lane 1's first spawn to frame -3; truth starts at 0
        config = SimConfig(seed=0, n_lanes=2, spawn_jitter_frames=3, n_objects_per_lane=5)
        gt, frames = generate_scene(config)
        assert gt.frames.min() == 0
        evaluation = evaluate_against_truth(frames, gt)
        assert evaluation.n_objects == 10
        assert evaluation.n_unmatched_objects == 0

    def test_never_visible_objects_are_left_out_of_the_truth(self, tmp_path):
        # Jitter 40 spawns the first two objects so long before frame 0 that
        # they have crossed the 20 px frame before the stream starts: no frame
        # shows them, so the truth leaves them out, and the library call and
        # the files written by ``simulate_to_files`` score the same objects.
        config = SimConfig(
            seed=9, n_lanes=2, n_objects_per_lane=3, spawn_jitter_frames=40, frame_width=20.0
        )
        gt, frames = generate_scene(config)
        assert gt.object_ids.tolist() == [3, 4, 5, 6]
        assert gt.counts.tolist() == [5, 10, 10, 10]
        in_memory = evaluate_against_truth(frames, gt)
        assert in_memory.n_objects == 4

        detections_path, truth_path = tmp_path / "dets.jsonl", tmp_path / "truth.jsonl"
        assert simulate_to_files(config, detections_path, truth_path) == (4, len(frames))
        from_files = evaluate_against_truth(
            ingest_detections(detections_path), read_ground_truth(truth_path)
        )
        assert from_files == in_memory


class TestEvaluateAgreesWithSummary:
    def test_defect_ratio_and_mean_stability_under_every_config(self, tmp_path):
        # One cluttered, label-flipping scene: evaluate's estimated defect
        # ratio and mean frame-wise stability are the summary's, read off the
        # same verdict table and frame-wise columns.
        config = SimConfig(
            seed=4, n_lanes=3, n_objects_per_lane=8, spawn_interval_frames=12,
            false_positive_rate=1.0, detection_dropout_prob=0.15, bbox_jitter_std=1.5,
            label_flip_prob=0.4,
        )
        gt, detections = generate_scene(config)
        summary = tmp_path / "summary.json"
        ratios = set()
        for tie_break, collapse, granularity in itertools.product(
            ("prefer_defect", "lowest_index"), (False, True), ("binary", "category")
        ):
            aggregation = AggregationConfig(
                tie_break, collapse, stability_granularity=granularity
            )
            run_pipeline(PipelineRun(sim_config=config, aggregation=aggregation, summary_path=summary))
            payload = json.loads(summary.read_text())
            evaluation = evaluate_against_truth(detections, gt, aggregation=aggregation)
            assert evaluation.estimated_defect_ratio == payload["aggregated"]["defect_ratio"]
            assert evaluation.mean_frame_wise_stability == payload["frame_wise"]["mean_stability"]
            ratios.add(evaluation.estimated_defect_ratio)
        assert len(ratios) > 1  # the tie rules decide some tracks differently


class TestSummaryContents:
    def test_summary_reports_both_modes(self, tmp_path):
        config = clean_scene(n_lanes=2, n_objects_per_lane=4, label_flip_prob=0.2, seed=11)
        summary_path = tmp_path / "summary.json"
        run_pipeline(PipelineRun(sim_config=config, summary_path=summary_path))
        payload = json.loads(summary_path.read_text())
        assert set(payload) >= {"aggregated", "frame_wise", "n_tracks"}
        assert payload["aggregated"]["mean_stability"] == 1.0
        assert payload["frame_wise"]["mean_stability"] <= 1.0
        assert payload["aggregated"]["n_total_tracks"] == payload["frame_wise"]["n_total_tracks"]

    def test_verdict_lines_match_format(self, tmp_path):
        config = clean_scene(seed=2)
        verdicts_path = tmp_path / "verdicts.jsonl"
        run_pipeline(PipelineRun(sim_config=config, verdicts_path=verdicts_path))
        lines = verdicts_path.read_text().strip().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert set(record) == {"track_id", "category", "binary", "k", "votes", "stability_frame_wise"}
        assert record["binary"] in ("normal", "defect")
        assert sum(record["votes"]) == record["k"]


def write_label_stream(path, *label_sequences):
    """One stationary, always-detected box per sequence, each in its own lane,
    carrying category ``sequence[t]`` on frame t."""
    frames = [
        frame_of(t, [
            (10.0, 60.0 * lane, 20.0, 20.0, 0.9, labels[t])
            for lane, labels in enumerate(label_sequences)
            if t < len(labels)
        ])
        for t in range(max(len(labels) for labels in label_sequences))
    ]
    write_detections(DetectionTable.from_frames(frames), path)


def defect_counts(directory: Path, input_path: Path, aggregation: AggregationConfig):
    """Defect tracks in the verdict file and in the summary's aggregated block."""
    verdicts, summary = directory / "verdicts.jsonl", directory / "summary.json"
    run_pipeline(PipelineRun(
        input_path=input_path, aggregation=aggregation,
        verdicts_path=verdicts, summary_path=summary,
    ))
    records = [json.loads(line) for line in verdicts.read_text().splitlines()]
    aggregated = json.loads(summary.read_text())["aggregated"]
    return sum(1 for r in records if r["binary"] == "defect"), aggregated["n_defect_tracks"]


class TestVerdictsAndSummaryAgree:
    def test_collapsed_vote_reaches_summary(self, tmp_path):
        # votes [3, 2, 2, 0]: fresh has the plurality, the defects the majority
        stream = tmp_path / "dets.jsonl"
        write_label_stream(stream, [0, 0, 0, 1, 1, 2, 2])
        in_file, in_summary = defect_counts(
            tmp_path, stream, AggregationConfig(collapse_before_vote=True)
        )
        assert in_file == 1
        assert in_summary == in_file

    @settings(max_examples=40, deadline=None)
    @given(
        label_sequences=st.lists(
            st.lists(st.integers(0, 3), min_size=1, max_size=9), min_size=1, max_size=3
        ),
        tie_break=st.sampled_from(["prefer_defect", "lowest_index"]),
        collapse=st.booleans(),
    )
    def test_any_votes_any_config(self, label_sequences, tie_break, collapse):
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp)
            stream = directory / "dets.jsonl"
            write_label_stream(stream, *label_sequences)
            in_file, in_summary = defect_counts(
                directory, stream, AggregationConfig(tie_break, collapse)
            )
        assert in_summary == in_file
