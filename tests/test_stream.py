"""``io.stream_detections`` and ``run_pipeline`` track a detection JSONL file
while reading it: frames come out whole and in frame order after the block
that puts them past the reorder window, files at most ``REORDER_FRAMES`` frames out of order
track as their sorted tables do, and a line further behind is a bad line.

The CI step that runs with ``-W error::ResourceWarning`` lists this module:
a stream abandoned mid-file must close its file.
"""

import json
import logging
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beltrack.io as bio
from beltrack import ByteTracker, InputError, SimConfig, run_stream
from beltrack.io import REORDER_FRAMES, ingest_detections, stream_detections, write_detections
from beltrack.pipeline import PipelineRun, run_pipeline
from beltrack.simulate import generate_scene

W = REORDER_FRAMES
TRACK_COLUMNS = ("ids", "counts", "frames", "boxes", "categories", "num_categories")


def line(frame, x=0.0, score=0.9, category=1):
    return json.dumps({"frame": frame, "x": x, "y": 0.0, "w": 10.0, "h": 10.0,
                       "score": score, "category": category})


def write_lines(path, lines):
    path.write_text("".join(text + "\n" for text in lines), encoding="utf-8")


def scene_lines(seed, **overrides):
    """The lines of a simulated detection file, sorted by frame."""
    config = dict(seed=seed, n_lanes=2, n_objects_per_lane=6, false_positive_rate=0.5,
                  label_flip_prob=0.2, detection_dropout_prob=0.1, spawn_jitter_frames=3)
    _, detections = generate_scene(SimConfig(**{**config, **overrides}))
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "dets.jsonl"
        write_detections(detections, path)
        return path.read_text(encoding="utf-8").splitlines()


def assert_same_tracks(got, want):
    for name in TRACK_COLUMNS:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def rows(frames):
    """(frame, boxes, scores, categories) of each frame."""
    return [(f.frame_index, f.boxes.tolist(), f.scores.tolist(), f.categories.tolist())
            for f in frames]


def streamed_frames(path, **options):
    """The rows of each frame the stream yields, and the number of blocks
    parsed when each came out."""
    with mock.patch.object(bio, "_parse_block", wraps=bio._parse_block) as parsed:
        frames, parses = [], []
        for frame in stream_detections(path, **options):
            frames.append(frame)
            parses.append(parsed.call_count)
    return rows(frames), parses


def batch_frames(path, **options):
    return rows(ingest_detections(path, **options))


class TestStreamMatchesTheBatchReader:
    @pytest.mark.parametrize("seed", [0, 5, 11])
    @pytest.mark.parametrize("block_lines", [bio._BLOCK_LINES, 7])
    def test_generated_scenes(self, tmp_path, seed, block_lines):
        path = tmp_path / "dets.jsonl"
        write_lines(path, scene_lines(seed))
        with mock.patch.object(bio, "_BLOCK_LINES", block_lines):
            frames, parses = streamed_frames(path)
            assert frames == batch_frames(path)
            if block_lines == 7:
                assert parses[0] < parses[-1]  # yielded as the file was read
            assert_same_tracks(
                run_stream(stream_detections(path)), run_stream(ingest_detections(path))
            )

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        window=st.sampled_from([0, 1, 3, 8, W]),
        spread=st.integers(0, W),
        block_lines=st.integers(1, 40),
    )
    def test_lines_shuffled_within_the_window(self, seed, window, spread, block_lines):
        # Each line moves by a random offset of at most the window: sorted by
        # frame + offset, no line lands more than the window behind the
        # highest frame before it.
        lines = scene_lines(seed % 97, n_objects_per_lane=3)
        frames = np.array([json.loads(text)["frame"] for text in lines])
        offsets = np.random.default_rng(seed).integers(0, min(spread, window) + 1, len(lines))
        shuffled = [lines[i] for i in np.argsort(frames + offsets, kind="stable")]
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "dets.jsonl"
            write_lines(path, shuffled)
            with mock.patch.object(bio, "_BLOCK_LINES", block_lines), \
                    mock.patch.object(bio, "REORDER_FRAMES", window):
                assert streamed_frames(path)[0] == batch_frames(path)
                assert_same_tracks(
                    run_stream(stream_detections(path)), run_stream(ingest_detections(path))
                )

    def test_frame_split_across_a_block_boundary(self, tmp_path):
        # Frame 100 holds lines 501 to 530; the first block ends at line 512.
        lines = [line(frame // 5, x=frame % 5 * 20.0) for frame in range(500)]
        lines += [line(100, x=i * 20.0) for i in range(30)]
        lines += [line(101 + frame // 5, x=frame % 5 * 20.0) for frame in range(200)]
        path = tmp_path / "dets.jsonl"
        write_lines(path, lines)
        frames, parses = streamed_frames(path)
        assert frames == batch_frames(path)
        # Each frame comes out whole, once, in frame order; frame 100 after
        # the second block, which completes it.
        indices = [frame for frame, *_ in frames]
        assert indices == sorted(set(indices))
        assert parses[indices.index(100)] == 2
        assert next(scores for frame, _, scores, _ in frames if frame == 100) == [0.9] * 30

    @pytest.mark.parametrize("before, after, n_tracks", [
        (range(512), range(551, 700), 2),  # the gap follows the last line of a block
        # It ends the frames the first block lets out.
        ([*range(480), *range(520, 552)], range(552, 700), 3),
    ])
    def test_gap_frames_across_a_block_boundary(self, tmp_path, before, after, n_tracks):
        # The gap of 40 frames is past max_frames_lost (30): 31 empty frames
        # are stepped, and the tracker jumps to the next frame with rows. A
        # box that jumps back to x = 0 starts a track.
        path = tmp_path / "dets.jsonl"
        write_lines(path, [line(frame, x=frame * 2.0) for frame in before]
                    + [line(frame, x=(frame - after[0]) * 2.0) for frame in after])
        last = [f for f in before if f + 1 not in before][0]

        def stepped(detections):
            steps, original = [], ByteTracker.step

            def spy(tracker, frame):
                steps.append(frame.frame_index)
                return original(tracker, frame)

            with mock.patch.object(ByteTracker, "step", spy):
                return steps, run_stream(detections)

        streamed, tracks = stepped(stream_detections(path))
        assert streamed_frames(path)[1][0] == 1  # yielded before the last block
        batch, batch_tracks = stepped(ingest_detections(path))
        assert streamed == batch
        assert set(range(last + 1, last + 32)) <= set(streamed)
        assert last + 32 not in streamed
        assert_same_tracks(tracks, batch_tracks)
        assert len(tracks) == n_tracks

    @pytest.mark.parametrize("text", ["", "\n\n", "  \n\t\n\x0c\n"])
    def test_empty_and_blank_files(self, tmp_path, text):
        path = tmp_path / "dets.jsonl"
        path.write_text(text, encoding="utf-8")
        assert list(stream_detections(path)) == []
        tracks = run_stream(stream_detections(path))
        assert_same_tracks(tracks, run_stream(ingest_detections(path)))
        verdicts, summary = tmp_path / "v.jsonl", tmp_path / "s.json"
        result = run_pipeline(PipelineRun(path, verdicts_path=verdicts, summary_path=summary))
        assert len(result.tracks) == 0
        assert verdicts.read_text() == ""
        assert json.loads(summary.read_text())["n_tracks"] == 0

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="detection file not found"):
            list(stream_detections(tmp_path / "no.jsonl"))


class TestLateLines:
    def late_file(self, tmp_path, behind):
        """Frames 0 to 99, then a line ``behind`` frames below frame 99 (line 101)."""
        path = tmp_path / "dets.jsonl"
        write_lines(path, [line(frame) for frame in range(100)] + [line(99 - behind, x=50.0)])
        return path

    def test_a_line_the_window_behind_is_accepted(self, tmp_path):
        path = self.late_file(tmp_path, W)
        assert streamed_frames(path)[0] == batch_frames(path)

    def test_a_line_past_the_window_is_an_input_error(self, tmp_path):
        path = self.late_file(tmp_path, W + 1)
        with pytest.raises(InputError, match=(
            rf"dets\.jsonl:101: frame {98 - W} is more than {W} frames behind frame 99"
        )):
            list(stream_detections(path))
        with pytest.raises(InputError, match=r"dets\.jsonl:101:"):
            run_pipeline(PipelineRun(path))
        # The batch reader sorts any order.
        assert len(ingest_detections(path).frames) == 101

    def test_skip_malformed_logs_and_drops_a_late_line(self, tmp_path, caplog):
        path = self.late_file(tmp_path, W + 1)
        with caplog.at_level(logging.WARNING, logger=bio.__name__):
            frames, _ = streamed_frames(path, skip_malformed=True)
        assert [record.getMessage() for record in caplog.records] == [
            f"skipping line: {path}:101: frame {98 - W} is more than {W} frames behind "
            f"frame 99 of an earlier line"
        ]
        kept = tmp_path / "kept.jsonl"
        write_lines(kept, path.read_text().splitlines()[:100])
        assert frames == batch_frames(kept)

    def test_lines_that_fail_a_row_check_do_not_raise_the_highest_frame(self, tmp_path):
        # Frame 2**53 is out of range: skipped, it leaves frame 5 in the window.
        path = tmp_path / "dets.jsonl"
        write_lines(path, [line(10), line(2**53), line(5)])
        frames, _ = streamed_frames(path, skip_malformed=True)
        assert [frame for frame, *_ in frames] == [5, 10]
        with pytest.raises(InputError, match=r"dets\.jsonl:2: frame is out of range"):
            list(stream_detections(path))

    def test_the_earliest_bad_line_is_reported_whatever_its_kind(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        write_lines(path, [line(200), line(200 - W - 1), "not json", line(0, score=2.0)])
        with pytest.raises(InputError, match=r"dets\.jsonl:2: frame"):
            list(stream_detections(path))
        write_lines(path, [line(200), line(0, score=2.0), line(200 - W - 1), "not json"])
        with pytest.raises(InputError, match=r"dets\.jsonl:2: score must be in"):
            list(stream_detections(path))


class TestTrackingStartsBeforeTheFileEnds:
    def frames_then_a_bad_line(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        write_lines(path, [line(frame // 4, x=frame % 4 * 20.0) for frame in range(10_000)]
                    + ["not json"])
        return path

    def test_a_bad_last_line_raises_after_frames_were_stepped(self, tmp_path):
        path = self.frames_then_a_bad_line(tmp_path)
        verdicts, summary = tmp_path / "v.jsonl", tmp_path / "s.json"
        run = PipelineRun(path, verdicts_path=verdicts, summary_path=summary)
        with mock.patch.object(ByteTracker, "step", autospec=True,
                               side_effect=ByteTracker.step) as step:
            with pytest.raises(InputError, match=r"dets\.jsonl:10001: invalid JSON"):
                run_pipeline(run)
        assert step.call_count > 0
        assert not verdicts.exists() and not summary.exists()

    def test_the_stream_reads_no_further_than_it_must(self, tmp_path):
        path = self.frames_then_a_bad_line(tmp_path)
        with mock.patch.object(bio, "_parse_block", wraps=bio._parse_block) as parsed:
            stream = stream_detections(path)
            first = [next(stream)]
            while parsed.call_count == 1:
                first.append(next(stream))
            stream.close()
        # After the first block, out go the frames more than W below the
        # last one read (4 rows a frame); the next frame needs a second block.
        last = bio._BLOCK_LINES // 4 - 1
        assert [frame.frame_index for frame in first[:-1]] == list(range(last - W))
        assert first[-1].frame_index == last - W
        assert all(len(frame.scores) == 4 for frame in first)

    def test_a_stream_abandoned_by_a_raising_tracker_closes_its_file(self, tmp_path):
        path = self.frames_then_a_bad_line(tmp_path)
        original_open, original_step = bio._open_text, ByteTracker.step
        handles, steps = [], []

        def open_text(file, kind):
            handles.append(original_open(file, kind))
            return handles[-1]

        def failing_step(tracker, frame):
            steps.append(frame.frame_index)
            if len(steps) == 10:
                raise RuntimeError("tracker failed")
            return original_step(tracker, frame)

        with mock.patch.object(bio, "_open_text", open_text), \
                mock.patch.object(ByteTracker, "step", failing_step):
            with pytest.raises(RuntimeError, match="tracker failed") as failure:
                run_pipeline(PipelineRun(path))
        # Closed while the traceback, and the frames in it, are still held.
        assert failure.tb is not None
        assert len(handles) == 1 and handles[0].closed
