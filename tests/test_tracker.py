import pytest

from beltrack import (
    BoundingBox,
    ByteTracker,
    ConfigError,
    Detection,
    FrameDetections,
    TrackerConfig,
    TrackStatus,
)
from beltrack.model import FRESH, ROT
from beltrack.pipeline import run_stream
from beltrack.simulate import SimConfig, generate_scene


def moving_box(t, *, x0=0.0, y0=50.0, velocity=5.0, size=32.0):
    return BoundingBox(x0 + velocity * t, y0, size, size)


def frame_with(t, *boxes_scores):
    dets = [
        Detection(t, box, score, label)
        for box, score, label in boxes_scores
    ]
    return FrameDetections(t, dets)


class TestLifecycleBasics:
    def test_empty_first_frame(self):
        tracker = ByteTracker()
        out = tracker.step(FrameDetections(0))
        assert out.active_tracks == ()
        assert out.newly_removed_track_ids == ()
        assert tracker.finalize() == []

    def test_single_object_single_track(self):
        tracker = ByteTracker()
        for t in range(10):
            out = tracker.step(frame_with(t, (moving_box(t), 0.9, FRESH)))
            assert len(out.active_tracks) == 1
            assert out.active_tracks[0][0] == 1
        tracks = tracker.finalize()
        assert len(tracks) == 1
        assert tracks[0].id == 1
        assert len(tracks[0].history) == 10
        assert [f for f, _ in tracks[0].history] == list(range(10))

    def test_two_lanes_two_tracks_in_spawn_order(self):
        tracker = ByteTracker()
        for t in range(8):
            frame = frame_with(
                t,
                (moving_box(t, y0=20.0), 0.9, FRESH),
                (moving_box(t, y0=200.0), 0.9, ROT),
            )
            tracker.step(frame)
        tracks = tracker.finalize()
        assert [tr.id for tr in tracks] == [1, 2]
        assert all(len(tr.history) == 8 for tr in tracks)

    def test_out_of_order_frame_rejected(self):
        tracker = ByteTracker()
        tracker.step(FrameDetections(3))
        with pytest.raises(ValueError, match="out-of-order"):
            tracker.step(FrameDetections(3))
        with pytest.raises(ValueError, match="out-of-order"):
            tracker.step(FrameDetections(1))

    def test_low_score_detections_never_spawn(self):
        tracker = ByteTracker()
        for t in range(5):
            tracker.step(frame_with(t, (moving_box(t), 0.4, FRESH)))
        assert tracker.finalize() == []

    def test_track_ids_never_reused(self):
        config = TrackerConfig(max_frames_lost=1)
        tracker = ByteTracker(config)
        # object appears, vanishes long enough to be removed, reappears far away
        tracker.step(frame_with(0, (BoundingBox(0, 0, 20, 20), 0.9, None)))
        for t in range(1, 5):
            tracker.step(FrameDetections(t))
        tracker.step(frame_with(5, (BoundingBox(200, 200, 20, 20), 0.9, None)))
        tracks = tracker.finalize()
        assert [tr.id for tr in tracks] == [1, 2]

    def test_lost_track_expires_into_removed(self):
        config = TrackerConfig(max_frames_lost=2)
        tracker = ByteTracker(config)
        tracker.step(frame_with(0, (BoundingBox(0, 0, 20, 20), 0.9, None)))
        removed = []
        for t in range(1, 6):
            out = tracker.step(FrameDetections(t))
            removed.extend(out.newly_removed_track_ids)
        assert removed == [1]
        assert tracker.finalize()[0].status is TrackStatus.REMOVED


class TestDivergence:
    def test_filter_diverging_while_lost_is_removed_once(self):
        # A box shrinking 8 px per frame teaches the filter a negative height
        # velocity; coasting on it drives the height below zero two frames
        # after the detections stop, long before max_frames_lost expires.
        tracker = ByteTracker()
        for t in range(6):
            size = 60.0 - 8.0 * t
            tracker.step(frame_with(t, (BoundingBox(100.0, 100.0, size, size), 0.9, FRESH)))
        removed, removed_state = [], None
        for t in range(6, 20):
            out = tracker.step(FrameDetections(t))
            removed.extend(out.newly_removed_track_ids)
            (track,) = tracker.finalize()
            if removed_state is None and removed:
                assert track.state.mean[3] <= 0.0
                removed_state = track.state
            assert out.active_tracks == ()
        assert removed == [1]
        (track,) = tracker.finalize()
        assert track.state is removed_state  # never predicted after removal
        assert track.status is TrackStatus.REMOVED
        assert [f for f, _ in track.history] == list(range(6))


class TestLostRecovery:
    def test_refound_after_short_gap_keeps_id(self):
        tracker = ByteTracker()
        for t in range(6):
            tracker.step(frame_with(t, (moving_box(t, velocity=3.0), 0.9, FRESH)))
        for t in range(6, 8):
            tracker.step(FrameDetections(t))
        for t in range(8, 12):
            tracker.step(frame_with(t, (moving_box(t, velocity=3.0), 0.9, FRESH)))
        tracks = tracker.finalize()
        assert len(tracks) == 1
        assert tracks[0].status is TrackStatus.ACTIVE
        frames_matched = [f for f, _ in tracks[0].history]
        assert frames_matched == [0, 1, 2, 3, 4, 5, 8, 9, 10, 11]


class TestByteRecovery:
    """An object whose detector confidence dips below the high threshold for
    three frames: the second association keeps one identity, while dropping
    the low detections fragments the trajectory."""

    SIZE = 24.0
    VELOCITY = 6.0

    def stream(self, include_lows):
        frames = []
        for t in range(10):
            score = 0.3 if 2 <= t <= 4 else 0.9
            if score < 0.6 and not include_lows:
                frames.append(FrameDetections(t))
                continue
            frames.append(
                frame_with(t, (moving_box(t, velocity=self.VELOCITY, size=self.SIZE), score, FRESH))
            )
        return frames

    def test_low_dip_retains_single_track(self):
        tracker = ByteTracker()
        for frame in self.stream(include_lows=True):
            tracker.step(frame)
        tracks = tracker.finalize()
        assert len(tracks) == 1
        assert len(tracks[0].history) == 10

    def test_without_lows_track_fragments(self):
        tracker = ByteTracker()
        for frame in self.stream(include_lows=False):
            tracker.step(frame)
        tracks = tracker.finalize()
        assert len(tracks) >= 2

    def test_overlapping_low_detection_keeps_track_active(self):
        def warm_tracker():
            tracker = ByteTracker()
            for t in range(3):
                tracker.step(frame_with(t, (moving_box(t, velocity=2.0), 0.9, FRESH)))
            return tracker

        tracker = warm_tracker()
        out = tracker.step(frame_with(3, (moving_box(3, velocity=2.0), 0.3, FRESH)))
        assert [tid for tid, _ in out.active_tracks] == [1]
        assert tracker.finalize()[0].status is TrackStatus.ACTIVE

        tracker = warm_tracker()
        out = tracker.step(FrameDetections(3))
        assert out.active_tracks == ()
        assert tracker.finalize()[0].status is TrackStatus.LOST


class TestTentativeLifecycle:
    def test_min_hits_delays_activation(self):
        config = TrackerConfig(min_hits_to_activate=3)
        tracker = ByteTracker(config)
        out = tracker.step(frame_with(0, (moving_box(0), 0.9, FRESH)))
        assert out.active_tracks == ()  # still tentative
        out = tracker.step(frame_with(1, (moving_box(1), 0.9, FRESH)))
        assert out.active_tracks == ()
        out = tracker.step(frame_with(2, (moving_box(2), 0.9, FRESH)))
        assert [tid for tid, _ in out.active_tracks] == [1]

    def test_unmatched_tentative_is_removed(self):
        config = TrackerConfig(min_hits_to_activate=3)
        tracker = ByteTracker(config)
        tracker.step(frame_with(0, (moving_box(0), 0.9, FRESH)))
        out = tracker.step(FrameDetections(1))
        assert out.newly_removed_track_ids == (1,)


class TestPredictionRecording:
    def test_labels_recorded_only_when_present(self):
        tracker = ByteTracker()
        tracker.step(frame_with(0, (moving_box(0), 0.9, FRESH)))
        tracker.step(frame_with(1, (moving_box(1), 0.9, None)))
        tracker.step(frame_with(2, (moving_box(2), 0.9, ROT)))
        track = tracker.finalize()[0]
        assert track.predictions == [(0, FRESH), (2, ROT)]

    def test_prediction_frames_subset_of_history(self):
        tracker = ByteTracker()
        for t in range(6):
            label = FRESH if t % 2 == 0 else None
            tracker.step(frame_with(t, (moving_box(t), 0.9, label)))
        track = tracker.finalize()[0]
        history_frames = {f for f, _ in track.history}
        assert all(f in history_frames for f, _ in track.predictions)

    def test_hundred_predictions_in_frame_order(self):
        # votes read Track.predictions directly, so the tracker alone keeps
        # them one per matched frame in strictly increasing frame order
        tracker = ByteTracker()
        for t in range(100):
            tracker.step(frame_with(t, (moving_box(t, velocity=1.0), 0.9, FRESH)))
        track = tracker.finalize()[0]
        assert track.predictions == [(t, FRESH) for t in range(100)]


class TestFinalize:
    def test_min_track_length_filter(self):
        config = TrackerConfig(min_track_length_report=3)
        tracker = ByteTracker(config)
        tracker.step(frame_with(0, (BoundingBox(0, 0, 20, 20), 0.9, None)))
        for t in range(1, 4):
            tracker.step(frame_with(t, (BoundingBox(200, 0, 20, 20), 0.9, None)))
        tracks = tracker.finalize()
        assert len(tracks) == 1  # the 1-frame track is filtered out
        assert len(tracks[0].history) == 3

    def test_no_input_no_tracks(self):
        assert ByteTracker().finalize() == []


class TestDeterminism:
    def test_identical_streams_identical_tracks(self):
        config = SimConfig(
            seed=99, n_lanes=2, n_objects_per_lane=5, detection_dropout_prob=0.1,
            bbox_jitter_std=1.0, label_flip_prob=0.2, frame_width=200,
        )
        _, frames = generate_scene(config)
        runs = []
        for _ in range(2):
            tracks = run_stream(frames)
            runs.append(
                [(tr.id, tuple(tr.history), tuple(tr.predictions), tr.status) for tr in tracks]
            )
        assert runs[0] == runs[1]


class TestLowConfidenceHelpsStatistically:
    def test_dropping_lows_never_reduces_fragmentation(self):
        # Scenes whose score distribution straddles the high threshold: the
        # full stream must never produce more tracks than the stream with
        # all low-confidence detections removed.
        totals_full, totals_filtered = 0, 0
        for seed in range(20):
            config = SimConfig(
                seed=seed, n_lanes=2, n_objects_per_lane=6, frame_width=200,
                detection_dropout_prob=0.1, bbox_jitter_std=1.0,
                score_mean_true=0.65, score_std_true=0.15,
            )
            _, frames = generate_scene(config)
            filtered = [
                FrameDetections(f.frame_index, [d for d in f.detections if d.score >= 0.6])
                for f in frames
            ]
            n_full = len(run_stream(frames))
            n_filtered = len(run_stream(filtered))
            assert n_full <= n_filtered
            totals_full += n_full
            totals_filtered += n_filtered
        assert totals_full < totals_filtered


class TestConfigValidation:
    def test_threshold_order_enforced(self):
        with pytest.raises(ConfigError):
            TrackerConfig(high_score_threshold=0.2, low_score_threshold=0.5)

    def test_threshold_range_enforced(self):
        with pytest.raises(ConfigError):
            TrackerConfig(match_threshold_first=1.5)
        with pytest.raises(ConfigError):
            TrackerConfig(max_frames_lost=0)

    def test_spawn_score_defaults_to_high_threshold(self):
        assert TrackerConfig(high_score_threshold=0.7).spawn_score == 0.7
        assert TrackerConfig(new_track_min_score=0.5).spawn_score == 0.5
