"""The JSONL writers format blocks of rows with one ``%`` template; their
bytes must equal one ``json.dumps`` per record, the references in
``oracles``."""

import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beltrack.io as bio
from beltrack import AggregationConfig, ByteTracker, DetectionTable, FrameDetections, VerdictTable
from beltrack.io import write_detections, write_ground_truth
from beltrack.model import passing_rows, row_checks
from beltrack.pipeline import PipelineResult, PipelineRun, run_pipeline, write_verdicts
from beltrack.simulate import SceneGroundTruth, SimConfig, generate_scene

from oracles import (
    table_of_frames,
    write_detections_reference,
    write_ground_truth_reference,
    write_verdicts_reference,
)

#: Floats whose text is easy to get wrong: signed zeros, the subnormal and
#: normal extremes, and the points where ``repr`` switches to an exponent.
EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    -1.7976931348623157e308, 1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05, 0.1,
]
coordinates = st.one_of(
    st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
)
sizes = st.one_of(
    st.sampled_from([x for x in EDGE_FLOATS if x > 0]),
    st.floats(min_value=5e-324, allow_infinity=False),
)
#: Frame indices: any a float column holds exactly, and 2**62, which only an
#: int column does.
frame_indices = st.one_of(st.integers(0, 2**53 - 1), st.just(2**62))
block_lines = st.one_of(st.just(bio._BLOCK_LINES), st.integers(1, 5))


def accepted_boxes(draw, n):
    """Up to ``n`` (x, y, w, h) rows, those of ``n`` drawn that the row checks accept."""
    boxes = np.array(
        [[draw(coordinates), draw(coordinates), draw(sizes), draw(sizes)] for _ in range(n)],
        dtype=float,
    ).reshape(-1, 4)
    return boxes[passing_rows(row_checks({"box": boxes}))]


@st.composite
def detection_streams(draw):
    """A detection table of frames whose rows the row checks accept."""
    num_categories = draw(st.integers(2, 6))
    scores = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1.0]), st.floats(0.0, 1.0))
    frames = []
    for index in sorted(draw(st.sets(frame_indices, max_size=6))):
        boxes = accepted_boxes(draw, draw(st.integers(0, 7)))
        frames.append(FrameDetections(
            index,
            boxes,
            [draw(scores) for _ in boxes],
            [draw(st.integers(-1, num_categories - 1)) for _ in boxes],
            num_categories,
        ))
    return table_of_frames(frames)


@st.composite
def truth_tables(draw):
    """Ground truth with edge floats in its boxes and int64-range ids and frames."""
    num_categories = draw(st.integers(2, 6))
    ids = sorted(draw(st.sets(st.integers(-(2**62), 2**62), max_size=4)))
    # The truth's rows pass the row checks, as a truth file's do.
    boxes = [accepted_boxes(draw, draw(st.integers(1, 4))) for _ in ids]
    frames = [sorted(draw(st.sets(frame_indices, min_size=len(b), max_size=len(b)))) for b in boxes]
    return SceneGroundTruth(
        ids,
        [draw(st.integers(0, num_categories - 1)) for _ in ids],
        [len(rows) for rows in frames],
        [frame for rows in frames for frame in rows],
        np.concatenate([np.empty((0, 4)), *boxes]),
        num_categories,
    )


@st.composite
def pipeline_results(draw):
    """A result as ``write_verdicts`` reads it: verdicts and their tracks' stability."""
    num_categories = draw(st.integers(2, 6))
    ids = sorted(draw(st.sets(st.integers(1, 2**62), max_size=6)))
    votes = [
        draw(st.lists(st.integers(0, 2**40), min_size=num_categories, max_size=num_categories))
        for _ in ids
    ]
    categories = [draw(st.integers(0, num_categories - 1)) for _ in ids]
    verdicts = VerdictTable(
        np.array(ids, dtype=np.int64),
        np.array(votes, dtype=np.int64).reshape(-1, num_categories),
        np.array(categories, dtype=np.int64),
    )
    stability = [draw(st.sampled_from([0.0, 1.0]) | st.floats(0, 1)) for _ in ids]
    return PipelineResult(
        verdicts, ByteTracker().finalize(), verdicts.categories, np.array(stability, dtype=float)
    )


def written_both_ways(write, reference, value):
    """The bytes ``write`` and ``reference`` give for ``value``."""
    with tempfile.TemporaryDirectory() as directory:
        got, want = Path(directory) / "got.jsonl", Path(directory) / "want.jsonl"
        write(value, got)
        reference(value, want)
        return got.read_bytes(), want.read_bytes()


class TestDetections:
    @settings(max_examples=200, deadline=None)
    @given(detections=detection_streams(), lines=block_lines)
    def test_bytes_equal_one_dumps_per_record(self, detections, lines):
        # Small blocks end inside frames.
        with mock.patch.object(bio, "_BLOCK_LINES", lines):
            got, want = written_both_ways(
                write_detections, write_detections_reference, detections
            )
        assert got == want

    @pytest.mark.parametrize(
        "frames", [[], [FrameDetections(3)], [FrameDetections(3), FrameDetections(4)]]
    )
    def test_no_rows_write_an_empty_file(self, tmp_path, frames):
        write_detections(table_of_frames(frames), tmp_path / "dets.jsonl")
        assert (tmp_path / "dets.jsonl").read_bytes() == b""

    def test_frame_spanning_blocks(self):
        rows = 2 * bio._BLOCK_LINES + 7
        rng = np.random.default_rng(0)
        detections = DetectionTable(
            np.full(rows, 2**53 - 1), rng.uniform(1, 100, (rows, 4)), rng.uniform(0, 1, rows),
            rng.integers(-1, 4, rows),
        )
        got, want = written_both_ways(write_detections, write_detections_reference, detections)
        assert got == want and got.count(b"\n") == rows


class TestGroundTruth:
    @settings(max_examples=200, deadline=None)
    @given(gt=truth_tables(), lines=block_lines)
    def test_bytes_equal_one_dumps_per_record(self, gt, lines):
        with mock.patch.object(bio, "_BLOCK_LINES", lines):
            got, want = written_both_ways(write_ground_truth, write_ground_truth_reference, gt)
        assert got == want

    def test_no_objects_write_an_empty_file(self, tmp_path):
        gt = SceneGroundTruth([], [], [], [], np.empty((0, 4)))
        write_ground_truth(gt, tmp_path / "gt.jsonl")
        assert (tmp_path / "gt.jsonl").read_bytes() == b""


class TestVerdicts:
    @settings(max_examples=200, deadline=None)
    @given(result=pipeline_results(), lines=block_lines)
    def test_bytes_equal_one_dumps_per_record(self, result, lines):
        with mock.patch.object(bio, "_BLOCK_LINES", lines):
            got, want = written_both_ways(write_verdicts, write_verdicts_reference, result)
        assert got == want

    def test_pipeline_verdicts(self, tmp_path):
        config = SimConfig(
            seed=5, n_lanes=3, n_objects_per_lane=20, label_flip_prob=0.2,
            false_positive_rate=0.3, bbox_jitter_std=1.0,
        )
        result = run_pipeline(PipelineRun(
            sim_config=config, aggregation=AggregationConfig(stability_granularity="category"),
        ))
        got, want = written_both_ways(write_verdicts, write_verdicts_reference, result)
        assert got == want and got.count(b"\n") == len(result.verdicts) > 0


#: The size of one file of the benchmark's steady belt.
STEADY_BELT = SimConfig(
    seed=7, n_lanes=3, n_objects_per_lane=200, spawn_jitter_frames=5,
    detection_dropout_prob=0.1, bbox_jitter_std=1.0, false_positive_rate=0.5,
    label_flip_prob=0.2,
)


class TestFullSizeScene:
    @pytest.fixture(scope="class")
    def scene(self):
        return generate_scene(STEADY_BELT)

    def test_detections_and_truth_bytes(self, scene):
        gt, frames = scene
        got, want = written_both_ways(write_detections, write_detections_reference, frames)
        assert got == want and got.count(b"\n") > 30_000
        got, want = written_both_ways(write_ground_truth, write_ground_truth_reference, gt)
        assert got == want and got.count(b"\n") > 30_000

    def test_writer_holds_one_block_of_text(self, scene, tmp_path):
        # Formatting a whole file at once would hold its text, about 5 MB.
        gt, frames = scene
        path = tmp_path / "dets.jsonl"
        for write, value in ((write_detections, frames), (write_ground_truth, gt)):
            tracemalloc.start()
            try:
                write(value, path)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < path.stat().st_size / 4
