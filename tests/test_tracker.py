import json
import tracemalloc
import warnings
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beltrack.tracker as tracker_module
from beltrack import (
    ByteTracker,
    ConfigError,
    DetectionTable,
    FrameDetections,
    KalmanState,
    TrackerConfig,
    kf_initiate,
    kf_predict,
    kf_update,
)
from beltrack.io import ingest_detections
from beltrack.pipeline import run_stream
from beltrack.simulate import SimConfig, generate_scene
from beltrack.tracker import ACTIVE, LOST, TENTATIVE

from oracles import (
    FRESH,
    ROT,
    decoded_box,
    dense_covariance,
    frame_of,
    kf_predict_reference,
    kf_update_reference,
    live_tracks,
)


def moving_box(t, *, x0=0.0, y0=50.0, velocity=5.0, size=32.0):
    return (x0 + velocity * t, y0, size, size)


def frame_with(t, *boxes_scores):
    """A frame from (box, score, label) entries, each box (x, y, w, h)."""
    return frame_of(t, [(*box, score, label) for box, score, label in boxes_scores])


def copied(state):
    """A copy of a filter, which the tracker's next step leaves as it is."""
    return KalmanState(state.mean.copy(), state.blocks.copy())


class TestLifecycleBasics:
    def test_empty_first_frame(self):
        tracker = ByteTracker()
        out = tracker.step(FrameDetections(0))
        assert out.active_tracks == ()
        assert out.newly_removed_track_ids == ()
        assert len(tracker.finalize()) == 0

    def test_single_object_single_track(self):
        tracker = ByteTracker()
        for t in range(10):
            out = tracker.step(frame_with(t, (moving_box(t), 0.9, FRESH)))
            assert out.active_tracks == (1,)
        tracks = list(tracker.finalize())
        assert len(tracks) == 1
        assert tracks[0].id == 1
        assert tracks[0].frames.tolist() == list(range(10))

    def test_two_lanes_two_tracks_in_spawn_order(self):
        tracker = ByteTracker()
        for t in range(8):
            frame = frame_with(
                t,
                (moving_box(t, y0=20.0), 0.9, FRESH),
                (moving_box(t, y0=200.0), 0.9, ROT),
            )
            tracker.step(frame)
        tracks = list(tracker.finalize())
        assert [tr.id for tr in tracks] == [1, 2]
        assert all(len(tr.frames) == 8 for tr in tracks)

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
        assert len(tracker.finalize()) == 0

    def test_track_ids_never_reused(self):
        config = TrackerConfig(max_frames_lost=1)
        tracker = ByteTracker(config)
        # object appears, vanishes long enough to be removed, reappears far away
        tracker.step(frame_with(0, ((0, 0, 20, 20), 0.9, None)))
        for t in range(1, 5):
            tracker.step(FrameDetections(t))
        tracker.step(frame_with(5, ((200, 200, 20, 20), 0.9, None)))
        tracks = list(tracker.finalize())
        assert [tr.id for tr in tracks] == [1, 2]

    def test_lost_track_expires_into_removed(self):
        config = TrackerConfig(max_frames_lost=2)
        tracker = ByteTracker(config)
        tracker.step(frame_with(0, ((0, 0, 20, 20), 0.9, None)))
        removed_at = {}
        for t in range(1, 6):
            out = tracker.step(FrameDetections(t))
            removed_at.update(dict.fromkeys(out.newly_removed_track_ids, t))
            assert [status for status, *_ in live_tracks(tracker).values()] == (
                [] if removed_at else [LOST]
            )
        # Unmatched on frames 1, 2 and 3: the third is over max_frames_lost.
        assert removed_at == {1: 3}
        (track,) = tracker.finalize()
        assert (track.id, track.frames.tolist()) == (1, [0])


class TestDivergence:
    def test_filter_diverging_while_lost_is_removed_once(self):
        # A box shrinking 8 px per frame teaches the filter a negative height
        # velocity; coasting on it drives the height below zero two frames
        # after the detections stop, long before max_frames_lost expires.
        tracker = ByteTracker()
        for t in range(6):
            size = 60.0 - 8.0 * t
            tracker.step(frame_with(t, ((100.0, 100.0, size, size), 0.9, FRESH)))
        removed = []
        for t in range(6, 20):
            before = {i: copied(live.state) for i, live in live_tracks(tracker).items()}
            out = tracker.step(FrameDetections(t))
            removed.extend(out.newly_removed_track_ids)
            if out.newly_removed_track_ids:
                # The filter's prediction for this frame has no height.
                assert kf_predict(before[1]).mean[3] <= 0.0
            assert out.active_tracks == ()
        assert removed == [1]
        assert live_tracks(tracker) == {}
        (track,) = tracker.finalize()
        assert track.frames.tolist() == list(range(6))

    def test_non_finite_filter_is_removed_as_diverged(self):
        # A filter gone nan encodes no box: it is removed on its own instead
        # of reaching the cost matrix, and the rest of the frame runs as usual.
        tracker = ByteTracker()
        lanes = (50.0, 200.0)
        tracker.step(frame_with(0, *[(moving_box(0, y0=y), 0.9, FRESH) for y in lanes]))
        tracker._filters[0, 0] = np.nan  # the first live filter's cx
        out = tracker.step(frame_with(1, *[(moving_box(1, y0=y), 0.9, FRESH) for y in lanes]))
        assert out.newly_removed_track_ids == (1,)
        assert list(out.active_tracks) == [2, 3]

    def test_removals_of_one_frame_come_in_id_order(self):
        # Track 2 diverges at predict and is removed first; track 1, still
        # tentative, is removed when it goes unmatched later in the same frame.
        tracker = ByteTracker(TrackerConfig(min_hits_to_activate=2))
        tracker.step(frame_with(0, *[(moving_box(0, y0=y), 0.9, FRESH) for y in (50.0, 200.0)]))
        tracker._filters[0, 1] = np.nan  # the second live filter's cx
        assert tracker.step(FrameDetections(1)).newly_removed_track_ids == (1, 2)

    def test_filter_left_without_a_box_by_its_update_is_removed(self):
        # The noise scales with the height: at h = 1e-170 every variance
        # underflows to 0, the gain is 0/0 and the update leaves nan. That
        # track is removed on its own, and the rest of the frame runs as usual.
        tracker = ByteTracker()
        flat = (0.0, 0.0, 1.0, 1e-170)
        for t in range(2):
            if t == 1:
                flat_state = copied(live_tracks(tracker)[1].state)
            out = tracker.step(
                frame_with(t, (flat, 0.9, FRESH), (moving_box(t, y0=200.0), 0.9, FRESH))
            )
        assert out.newly_removed_track_ids == (1,)
        assert list(out.active_tracks) == [2]
        assert list(live_tracks(tracker)) == [2]
        with np.errstate(divide="ignore", invalid="ignore"):
            assert np.isnan(kf_update(kf_predict(flat_state), np.array(flat)).mean).any()
        flat_track, steady_track = tracker.finalize()
        # The update that left no box is not recorded as a match.
        assert (flat_track.frames.tolist(), flat_track.boxes.tolist()) == ([0], [list(flat)])
        assert steady_track.frames.tolist() == [0, 1]

    @pytest.mark.parametrize("height", [1e200, 1e-300])
    @pytest.mark.parametrize("n_lines", [1, 2])
    def test_extreme_height_tracks_without_warnings(self, tmp_path, height, n_lines):
        # The variances scale with (h/20)**2, which overflows at h = 1e200
        # and underflows to 0 at h = 1e-300: the filter starts inf or turns
        # nan at its first update, which removes it as diverged, and no
        # floating-point warning reaches stderr.
        path = tmp_path / "dets.jsonl"
        record = {"x": 0, "y": 0, "w": 1.0, "h": height, "score": 0.9}
        path.write_text("".join(json.dumps({"frame": t, **record}) + "\n" for t in range(n_lines)))
        tracker = ByteTracker()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outputs = [tracker.step(frame) for frame in ingest_detections(path)]
            (track,) = tracker.finalize()
        if n_lines == 1:
            (live,) = live_tracks(tracker).values()
            assert (live.status, live.hits, live.last_frame) == (ACTIVE, 1, 0)
        else:
            assert outputs[1].newly_removed_track_ids == (1,)
            assert live_tracks(tracker) == {}
        assert (track.id, track.frames.tolist(), track.boxes.tolist()) == (
            1, [0], [[0.0, 0.0, 1.0, height]]
        )

    def test_divergence_removes_one_track_of_the_batch(self):
        # Track 1 shrinks and then coasts into a negative height, as above,
        # while tracks 2 and 3 are matched on every frame of the same batch.
        def steady(t, x0):
            return (x0 + 2.0 * t, 100.0, 30.0, 30.0)

        tracker = ByteTracker()
        diverged_at = None
        for t in range(16):
            entries = [(steady(t, 300.0), 0.9, FRESH), (steady(t, 500.0), 0.9, ROT)]
            if t < 6:
                size = 60.0 - 8.0 * t
                entries.insert(0, ((100.0, 100.0, size, size), 0.9, FRESH))
            before = {i: copied(live.state) for i, live in live_tracks(tracker).items()}
            out = tracker.step(frame_with(t, *entries))
            if out.newly_removed_track_ids:
                assert diverged_at is None
                diverged_at = t
                assert out.newly_removed_track_ids == (1,)
                assert kf_predict(before[1]).mean[3] <= 0.0
            assert list(out.active_tracks) == ([1, 2, 3] if t < 6 else [2, 3])
        assert diverged_at is not None

        tracks = list(tracker.finalize())
        assert [tr.id for tr in tracks] == [1, 2, 3]
        assert list(live_tracks(tracker)) == [2, 3]
        for track, x0 in zip(tracks[1:], (300.0, 500.0)):
            live = live_tracks(tracker)[track.id]
            assert (live.status, live.hits, live.last_frame) == (ACTIVE, 16, 15)
            assert track.frames.tolist() == list(range(16))
            # The live filter is the filter after the last update: it
            # decodes to the last matched box and equals one filter stepped
            # on its own through the same detections.
            assert decoded_box(live.state) == track.boxes[-1].tolist()
            alone = kf_initiate(np.array(steady(0, x0)))
            for t in range(1, 16):
                alone = kf_update(kf_predict(alone), np.array(steady(t, x0)))
            assert np.allclose(live.state.mean, alone.mean, rtol=1e-12, atol=0.0)
            assert np.allclose(
                dense_covariance(live.state.blocks), dense_covariance(alone.blocks),
                rtol=1e-12, atol=1e-15,
            )


class TestLostRecovery:
    def test_refound_after_short_gap_keeps_id(self):
        tracker = ByteTracker()
        for t in range(6):
            tracker.step(frame_with(t, (moving_box(t, velocity=3.0), 0.9, FRESH)))
        for t in range(6, 8):
            tracker.step(FrameDetections(t))
        for t in range(8, 12):
            tracker.step(frame_with(t, (moving_box(t, velocity=3.0), 0.9, FRESH)))
        tracks = list(tracker.finalize())
        assert len(tracks) == 1
        assert live_tracks(tracker)[1].status == ACTIVE
        assert tracks[0].frames.tolist() == [0, 1, 2, 3, 4, 5, 8, 9, 10, 11]


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
        tracks = list(tracker.finalize())
        assert len(tracks) == 1
        assert len(tracks[0].frames) == 10

    def test_without_lows_track_fragments(self):
        tracker = ByteTracker()
        for frame in self.stream(include_lows=False):
            tracker.step(frame)
        tracks = list(tracker.finalize())
        assert len(tracks) >= 2

    def test_overlapping_low_detection_keeps_track_active(self):
        def warm_tracker():
            tracker = ByteTracker()
            for t in range(3):
                tracker.step(frame_with(t, (moving_box(t, velocity=2.0), 0.9, FRESH)))
            return tracker

        tracker = warm_tracker()
        out = tracker.step(frame_with(3, (moving_box(3, velocity=2.0), 0.3, FRESH)))
        assert list(out.active_tracks) == [1]
        assert live_tracks(tracker)[1].status == ACTIVE

        tracker = warm_tracker()
        out = tracker.step(FrameDetections(3))
        assert out.active_tracks == ()
        assert live_tracks(tracker)[1].status == LOST


class TestTentativeLifecycle:
    def test_min_hits_delays_activation(self):
        config = TrackerConfig(min_hits_to_activate=3)
        tracker = ByteTracker(config)
        out = tracker.step(frame_with(0, (moving_box(0), 0.9, FRESH)))
        assert out.active_tracks == ()  # still tentative
        out = tracker.step(frame_with(1, (moving_box(1), 0.9, FRESH)))
        assert out.active_tracks == ()
        out = tracker.step(frame_with(2, (moving_box(2), 0.9, FRESH)))
        assert list(out.active_tracks) == [1]

    def test_unmatched_tentative_is_removed(self):
        config = TrackerConfig(min_hits_to_activate=3)
        tracker = ByteTracker(config)
        tracker.step(frame_with(0, (moving_box(0), 0.9, FRESH)))
        out = tracker.step(FrameDetections(1))
        assert out.newly_removed_track_ids == (1,)


#: One frame of a lifecycle stream: the step from the previous frame, then
#: detections as (lane, x offset, score); lanes are 60 px apart.
lifecycle_frames = st.tuples(
    st.sampled_from([1, 1, 1, 2, 4, 7]),
    st.lists(
        st.tuples(
            st.integers(0, 2),
            st.sampled_from([0.0, 0.0, 8.0, 40.0]),
            st.sampled_from([0.05, 0.3, 0.5, 0.7, 0.95]),
        ),
        max_size=4,
    ),
)


class TestLifecycleProperties:
    @settings(max_examples=300, deadline=None)
    @given(
        stream=st.lists(lifecycle_frames, max_size=25),
        min_hits=st.integers(1, 3),
        max_lost=st.integers(1, 5),
        high=st.sampled_from([0.4, 0.6, 0.8]),
        low=st.sampled_from([0.1, 0.3]),
        first=st.sampled_from([0.5, 0.8, 1.0]),
        second=st.sampled_from([0.3, 0.5, 1.0]),
    )
    def test_removals_statuses_and_counts_agree(
        self, stream, min_hits, max_lost, high, low, first, second
    ):
        tracker = ByteTracker(TrackerConfig(
            high_score_threshold=high, low_score_threshold=low, match_threshold_first=first,
            match_threshold_second=second, max_frames_lost=max_lost,
            min_hits_to_activate=min_hits,
        ))
        removed, removed_at, stepped, t, out = [], {}, [], 0, None
        for step, detections in stream:
            t += step
            out = tracker.step(frame_with(t, *[
                ((5.0 * t + offset, 60.0 * lane, 32.0, 32.0), score, FRESH)
                for lane, offset, score in detections
            ]))
            assert list(out.newly_removed_track_ids) == sorted(set(out.newly_removed_track_ids))
            removed += out.newly_removed_track_ids
            removed_at.update(dict.fromkeys(out.newly_removed_track_ids, t))
            stepped.append(t)
        tracks, live = list(tracker.finalize()), live_tracks(tracker)
        assert len(removed) == len(set(removed))
        assert set(removed) == {tr.id for tr in tracks} - set(live)
        if out is not None:
            assert set(out.active_tracks) == {i for i, tr in live.items() if tr.status == ACTIVE}
        for track in tracks:
            # Every match is a row: the hits and the last matched frame.
            last, hits = int(track.frames[-1]), len(track.frames)
            if track.id in live:
                assert (live[track.id].hits, live[track.id].last_frame) == (hits, last)
            # Every box is 32 x 32, so no filter diverges: a track is removed
            # on its first unmatched frame while tentative, and on the first
            # frame more than max_frames_lost past its last match once active.
            activated = hits >= min_hits
            later = [f for f in stepped if f > last]
            if track.id not in live:
                due = [f for f in later if f - last > max_lost] if activated else later
                assert removed_at[track.id] == due[0]
            elif live[track.id].status == LOST:
                assert activated and later and t - last <= max_lost
            else:
                assert not later
                assert live[track.id].status == (ACTIVE if activated else TENTATIVE)


class TestPredictionRecording:
    def test_labels_recorded_only_when_present(self):
        tracker = ByteTracker()
        tracker.step(frame_with(0, (moving_box(0), 0.9, FRESH)))
        tracker.step(frame_with(1, (moving_box(1), 0.9, None)))
        tracker.step(frame_with(2, (moving_box(2), 0.9, ROT)))
        (track, *_) = tracker.finalize()
        assert track.frames[track.categories >= 0].tolist() == [0, 2]
        assert track.labels.tolist() == [FRESH.index, ROT.index]

    def test_prediction_frames_subset_of_history(self):
        tracker = ByteTracker()
        for t in range(6):
            label = FRESH if t % 2 == 0 else None
            tracker.step(frame_with(t, (moving_box(t), 0.9, label)))
        (track, *_) = tracker.finalize()
        assert track.frames.tolist() == list(range(6))
        assert track.categories.tolist() == [FRESH.index, -1] * 3

    def test_hundred_predictions_in_frame_order(self):
        # votes read the track's category column, so the tracker alone keeps
        # one row per matched frame in strictly increasing frame order
        tracker = ByteTracker()
        for t in range(100):
            tracker.step(frame_with(t, (moving_box(t, velocity=1.0), 0.9, FRESH)))
        (track, *_) = tracker.finalize()
        assert track.frames.tolist() == list(range(100))
        assert track.labels.tolist() == [FRESH.index] * 100


class TestMatchTable:
    def test_columns_agree_with_the_lifecycle_on_a_cluttered_scene(self):
        _, frames = generate_scene(SimConfig(
            seed=11, n_lanes=4, n_objects_per_lane=6, spawn_interval_frames=12,
            false_positive_rate=2.0, score_mean_true=0.75, score_std_true=0.15,
            detection_dropout_prob=0.15, bbox_jitter_std=1.5, label_flip_prob=0.25,
        ))
        by_index = {f.frame_index: f for f in frames}
        tracker = ByteTracker()
        for t in range(int(frames.frames[-1]) + 1):
            tracker.step(by_index.get(t, FrameDetections(t)))
            if t % 20 == 0:  # the live tracks' hits and last frames are their rows'
                hits_and_last = {
                    track.id: (len(track.frames), track.frames[-1]) for track in tracker.finalize()
                }
                for track_id, live in live_tracks(tracker).items():
                    assert hits_and_last[track_id] == (live.hits, live.last_frame)
        tracks = list(tracker.finalize())
        assert len(tracks) > 20
        assert sum(len(track.frames) for track in tracks) > 256  # the table has grown
        for track in tracks:
            assert (np.diff(track.frames) > 0).all()
            assert len(track.frames) == len(track.boxes) == len(track.categories)
            # ``predictions`` gives the labeled rows.
            assert [(f, label.index) for f, label in track.predictions] == [
                (f, c) for f, c in zip(track.frames.tolist(), track.categories.tolist()) if c >= 0
            ]
            # The first row is the spawn: an observed box and its label.
            spawn = by_index[int(track.frames[0])]
            (row,) = np.flatnonzero((spawn.boxes == track.boxes[0]).all(axis=1))
            assert track.categories[0] == spawn.categories[row]
            assert not track.boxes.flags.writeable

    def test_mixed_category_counts_rejected(self):
        # Unlabeled frames carry no category count; labeled frames must agree.
        frames = [
            frame_with(0, (moving_box(0), 0.9, ROT)),
            frame_of(1, [(*moving_box(1), 0.9, None)], num_categories=6),
            frame_of(2, [(*moving_box(2), 0.9, 5)], num_categories=6),
        ]
        with pytest.raises(ValueError, match="frame 2 has 6 categories, earlier frames have 4"):
            DetectionTable.from_frames(frames)
        # Stepped one by one, the tracker rejects them alike.
        tracker = ByteTracker()
        with pytest.raises(ValueError, match="frame 2 has 6 categories, earlier frames have 4"):
            for frame in frames:
                tracker.step(frame)

    def test_box_with_the_largest_float_area_keeps_one_track(self):
        # Its area doubled overflows; the overlap with itself must still be 1.
        box = (0.0, 0.0, 1e154, 1.5e154)
        tracks = run_stream(
            DetectionTable.from_frames([frame_with(t, (box, 0.9, FRESH)) for t in range(3)])
        )
        assert [list(track.frames) for track in tracks] == [[0, 1, 2]]


class TestFinalize:
    def test_min_track_length_filter(self):
        config = TrackerConfig(min_track_length_report=3)
        tracker = ByteTracker(config)
        tracker.step(frame_with(0, ((0, 0, 20, 20), 0.9, None)))
        for t in range(1, 4):
            tracker.step(frame_with(t, ((200, 0, 20, 20), 0.9, None)))
        tracks = list(tracker.finalize())
        assert len(tracks) == 1  # the 1-frame track is filtered out
        assert len(tracks[0].frames) == 3

    def test_later_steps_leave_finalized_tracks_as_they_were(self):
        tracker = ByteTracker()
        for t in range(3):
            tracker.step(frame_with(t, (moving_box(t), 0.9, FRESH)))
        (track,) = tracker.finalize()
        assert live_tracks(tracker)[1][:3] == (ACTIVE, 3, 2)
        tracker.step(frame_with(3, (moving_box(3), 0.9, FRESH)))
        assert track.frames.tolist() == [0, 1, 2]
        assert live_tracks(tracker)[1][:3] == (ACTIVE, 4, 3)
        (later,) = tracker.finalize()
        assert later.frames.tolist() == [0, 1, 2, 3]

    def test_finalize_is_repeatable(self):
        # Mid-stream and at the end, finalize gives the columns a fresh
        # tracker gives for the frames stepped so far.
        _, frames = generate_scene(SimConfig(
            seed=5, n_lanes=2, n_objects_per_lane=8, detection_dropout_prob=0.1,
            false_positive_rate=0.5, label_flip_prob=0.2, frame_width=200,
        ))
        by_index = {f.frame_index: f for f in frames}
        stream = [by_index.get(t, FrameDetections(t)) for t in range(int(frames.frames[-1]) + 1)]
        middle = len(stream) // 2

        def columns(tracks):
            return [
                (tr.id, tr.frames.tolist(), tr.boxes.tolist(), tr.categories.tolist(),
                 tr.num_categories)
                for tr in tracks
            ]

        def fresh(stop):
            tracker = ByteTracker()
            for frame in stream[:stop]:
                tracker.step(frame)
            return columns(tracker.finalize())

        tracker = ByteTracker()
        for frame in stream[:middle]:
            tracker.step(frame)
        early = tracker.finalize()
        early_columns = columns(early)
        assert early_columns == fresh(middle)
        for frame in stream[middle:]:
            tracker.step(frame)
        assert columns(tracker.finalize()) == fresh(len(stream))
        assert columns(tracker.finalize()) != early_columns
        assert columns(early) == early_columns
        assert len(early) > 5
        first, second, *_ = early
        with pytest.raises(FrozenInstanceError):
            first.frames = second.frames
        with pytest.raises(FrozenInstanceError):
            early.frames = early.ids
        with pytest.raises(ValueError, match="read-only"):
            early.categories[0] = 1

    def test_table_columns_and_id_gaps(self):
        # Tracks 1 and 3 have one row each and are dropped; 2 and 4 keep
        # their ids, and the table's rows are theirs, in id then frame order.
        tracker = ByteTracker(TrackerConfig(min_track_length_report=2))
        tracker.step(frame_with(0, ((0, 0, 20, 20), 0.9, FRESH)))
        tracker.step(frame_with(1, ((200, 0, 20, 20), 0.9, None), ((400, 0, 20, 20), 0.9, ROT)))
        tracker.step(frame_with(2, ((200, 0, 20, 20), 0.9, ROT), ((600, 0, 20, 20), 0.9, FRESH)))
        tracker.step(frame_with(3, ((600, 0, 20, 20), 0.9, None)))
        table = tracker.finalize()
        assert (table.ids.tolist(), table.counts.tolist()) == ([2, 4], [2, 2])
        assert table.frames.tolist() == [1, 2, 2, 3]
        assert table.boxes[:, 0].tolist() == [200, 200, 600, 600]
        assert table.categories.tolist() == [-1, ROT.index, FRESH.index, -1]
        assert [track.id for track in table] == [2, 4]

    def test_no_input_no_tracks(self):
        table = ByteTracker().finalize()
        assert len(table) == 0 and list(table) == []
        assert table.frames.shape == (0,) and table.boxes.shape == (0, 4)


class TestMemory:
    def test_removed_tracks_leave_only_their_rows(self):
        # A long belt removes hundreds of tracks; past its match table, what
        # the tracker holds stays bounded by the live tracks.
        _, frames = generate_scene(SimConfig(
            seed=1, n_lanes=3, n_objects_per_lane=200, spawn_jitter_frames=5,
            detection_dropout_prob=0.1, bbox_jitter_std=1.0, false_positive_rate=0.5,
            label_flip_prob=0.2,
        ))
        by_index = {f.frame_index: f for f in frames}
        n_frames = int(frames.frames[-1]) + 1
        assert n_frames == 4053
        removed = 0
        tracemalloc.start()
        try:
            tracker = ByteTracker()
            for t in range(n_frames):
                out = tracker.step(by_index.get(t, FrameDetections(t)))
                removed += len(out.newly_removed_track_ids)
            held = tracemalloc.get_traced_memory()[0] - tracker._matches.nbytes
        finally:
            tracemalloc.stop()
        assert removed == 594
        assert held <= 64 * 1024


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
                [
                    (tr.id, tr.frames.tolist(), tr.boxes.tolist(), tr.categories.tolist())
                    for tr in tracks
                ]
            )
        assert runs[0] == runs[1]


def confident(detections):
    """The detections that score at least 0.6."""
    keep = detections.scores >= 0.6
    return DetectionTable(
        detections.frames[keep], detections.boxes[keep], detections.scores[keep],
        detections.categories[keep], detections.num_categories,
    )


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
            filtered = confident(frames)
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


class TestPerAxisFilterMatchesDenseReference:
    def test_cluttered_scene_gives_the_same_tracks(self, monkeypatch):
        # The same scene tracked with the dense single-filter references
        # (which also check that every entry outside the per-axis blocks
        # stays exactly 0) keeps every identity, and every box agrees to 1e-9.
        _, frames = generate_scene(SimConfig(
            seed=11, n_lanes=4, n_objects_per_lane=6, spawn_interval_frames=12,
            false_positive_rate=2.0, score_mean_true=0.75, score_std_true=0.15,
            detection_dropout_prob=0.15, bbox_jitter_std=1.5, label_flip_prob=0.25,
        ))
        per_axis = run_stream(frames)

        # The references replace the batch kernels by name, writing into the
        # state they are given as the kernels do; each call counts its
        # filters, so a step that bypassed the kernels would fail below.
        stepped = {"predict": 0, "update": 0}

        def dense_predict(state):
            for i in range(state.mean.shape[-1]):
                reference = kf_predict_reference(KalmanState(state.mean[:, i], state.blocks[..., i]))
                state.mean[:, i], state.blocks[..., i] = reference.mean, reference.blocks
            stepped["predict"] += state.mean.shape[-1]
            return state

        def dense_update(state, observed):
            for i, box in enumerate(observed.T.tolist()):
                reference = kf_update_reference(
                    KalmanState(state.mean[:, i], state.blocks[..., i]), box
                )
                state.mean[:, i], state.blocks[..., i] = reference.mean, reference.blocks
            stepped["update"] += observed.shape[-1]
            return state

        monkeypatch.setattr(tracker_module, "kf_predict", dense_predict)
        monkeypatch.setattr(tracker_module, "kf_update", dense_update)
        dense = run_stream(frames)
        # Every match is one update; every live filter is predicted once a frame.
        assert stepped["update"] == sum(len(tr.frames) - 1 for tr in dense)
        assert stepped["predict"] >= stepped["update"]

        def identities(tracks):
            return [
                (tr.id, tr.frames.tolist(), tr.categories.tolist()) for tr in tracks
            ]

        assert len(per_axis) > 20
        assert identities(dense) == identities(per_axis)
        for got, want in zip(per_axis, dense):
            assert np.allclose(got.boxes, want.boxes, rtol=0.0, atol=1e-9)
