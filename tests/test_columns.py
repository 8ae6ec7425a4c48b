"""Property tests of the columnar detection layer against its row-by-row
counterparts: the table-at-once ingest against the scalar reference, the
column checks against the scalar checks, frames against their rows, and
the detection table against its frames, its pickle and its file."""

import json
import math
import pickle
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beltrack import BoundingBox, DetectionTable, FrameDetections, InputError, run_stream
from beltrack.io import DETECTION_FIELDS, ingest_detections, write_detections
from beltrack.model import first_fault, passing_rows, row_checks, valid_extents

from oracles import (
    FRESH,
    check_box,
    check_detection_row,
    check_truth_row,
    frame_of,
    ingest_detections_scalar_reference,
)

GOOD_VALUES = {
    "frame": st.integers(0, 5),
    "x": st.floats(-50, 300),
    "y": st.floats(-50, 300),
    "w": st.floats(0.5, 60),
    "h": st.floats(0.5, 60),
    "score": st.floats(0, 1),
    "category": st.one_of(st.none(), st.integers(0, 3)),
}
BAD_VALUES = st.one_of(
    st.booleans(),
    st.none(),
    st.sampled_from([
        math.nan, math.inf, -math.inf, -0.0, 0.0, 2.5, -1, -1.0, 4, 1e200, 1e308, 2.0**63,
        2**70, 10**400, "3", "2.7", "abc", [1],
    ]),
)
GARBAGE_LINES = ['{"frame": 0', "not json", "1, 2", "null", '"text"', "   "]


@st.composite
def detection_lines(draw):
    """One line of a detection file: mostly valid records, some with one or
    two bad values or a missing field, some not records at all."""
    record = {key: draw(values) for key, values in GOOD_VALUES.items()}
    if draw(st.booleans()):
        del record["category"]  # no label, as with null
    kind = draw(st.sampled_from(["good", "good", "good", "bad value", "missing", "list", "garbage"]))
    if kind == "bad value":
        for key in draw(st.lists(st.sampled_from(list(GOOD_VALUES)), min_size=1, max_size=2)):
            record[key] = draw(BAD_VALUES)
    elif kind == "missing":
        record.pop(draw(st.sampled_from(DETECTION_FIELDS)))
    elif kind == "list":
        return json.dumps(list(record.values()))
    elif kind == "garbage":
        return draw(st.sampled_from(GARBAGE_LINES))
    return json.dumps(record)


class TestIngestMatchesPerLineReference:
    @settings(max_examples=400, deadline=None)
    @given(
        lines=st.lists(detection_lines(), max_size=12),
        skip_malformed=st.booleans(),
        num_categories=st.sampled_from([2, 4]),
    )
    def test_same_frames_or_same_error(self, lines, skip_malformed, num_categories):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "dets.jsonl"
            path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
            options = {"skip_malformed": skip_malformed, "num_categories": num_categories}
            try:
                want = ingest_detections_scalar_reference(path, **options)
            except InputError as error:
                with pytest.raises(InputError) as got:
                    ingest_detections(path, **options)
                assert str(got.value) == str(error)
            else:
                assert ingest_detections(path, **options) == want


floats_of_every_kind = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 1e-300, 1e154, 1e200, -1e200, 1e308, -1e308, 5e-324]),
)


def assert_same_faults(checks, scalar_check, rows):
    """``row_checks`` accept a row exactly when ``scalar_check`` does, and
    word its first fault the same."""
    accepted = passing_rows(checks)
    for i, row in enumerate(rows):
        try:
            scalar_check(row)
        except ValueError as error:
            assert not accepted[i], row
            assert first_fault(checks, i) == str(error)
        else:
            assert accepted[i], row


class TestColumnCheckMatchesScalarChecks:
    @settings(max_examples=400, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(-2, 3),
                st.tuples(*[floats_of_every_kind] * 4),
                st.one_of(st.floats(-0.5, 1.5), st.sampled_from([math.nan, math.inf])),
                st.integers(-3, 6),
            ),
            max_size=10,
        ),
        num_categories=st.integers(2, 5),
    )
    def test_same_rows_accepted(self, rows, num_categories):
        checks = row_checks(
            {
                "frame": np.array([frame for frame, _, _, _ in rows], dtype=np.int64),
                "box": np.array([box for _, box, _, _ in rows], dtype=float).reshape(-1, 4),
                "score": np.array([score for _, _, score, _ in rows], dtype=float),
                "category": np.array([category for *_, category in rows], dtype=np.int64),
            },
            num_categories,
        )
        assert_same_faults(
            checks,
            lambda row: check_detection_row(
                row[0], row[1], row[2], None if row[3] == -1 else row[3], num_categories
            ),
            rows,
        )

    @settings(max_examples=400, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from([0.0, 3.0, -1.0, 2.5, 2.0**53, math.nan, -math.inf]),
                st.sampled_from([1.0, -7.0, 1.5, -(2.0**53), math.inf]),
                *[floats_of_every_kind] * 4,
                st.sampled_from([0.0, 1.0, 3.0, 4.0, -1.0, 0.5, 1e300, math.nan]),
            ),
            max_size=10,
        ),
        num_categories=st.integers(2, 5),
    )
    def test_same_truth_rows_accepted(self, rows, num_categories):
        table = np.array(rows, dtype=float).reshape(-1, 7)
        checks = row_checks(
            {"frame": table[:, 0], "object_id": table[:, 1], "box": table[:, 2:6],
             "true_category": table[:, 6]},
            num_categories,
        )
        assert_same_faults(checks, lambda row: check_truth_row(row, num_categories), rows)


class TestBoxChecks:
    @settings(max_examples=400, deadline=None)
    @given(boxes=st.lists(st.tuples(*[floats_of_every_kind] * 4), max_size=10))
    def test_box_checks_valid_extents_and_bounding_box_agree(self, boxes):
        table = np.array(boxes, dtype=float).reshape(-1, 4)
        checks = row_checks({"box": table})
        x, y, w, h = table.T
        with np.errstate(all="ignore"):
            extents = np.array([x + w, y + h, w * h, w / h])
        accepted = passing_rows(checks)
        assert np.array_equal(accepted, valid_extents(extents, h))
        # BoundingBox's one-test accept never takes a box the checks reject.
        assert_same_faults(checks, lambda box: BoundingBox(*box), boxes)
        assert_same_faults(checks, lambda box: check_box(*box), boxes)


valid_rows = st.lists(
    st.tuples(
        st.integers(0, 4),
        st.tuples(st.floats(-50, 50), st.floats(-50, 50), st.floats(0.5, 40), st.floats(0.5, 40)),
        st.floats(0, 1),
        st.integers(-1, 2),
    ),
    max_size=12,
)


def columns_of(rows):
    """The (frame, boxes, scores, categories) columns of ``valid_rows``."""
    return (
        np.array([frame for frame, _, _, _ in rows], dtype=np.int64),
        np.array([box for _, box, _, _ in rows], dtype=float).reshape(-1, 4),
        np.array([score for _, _, score, _ in rows], dtype=float),
        np.array([category for _, _, _, category in rows], dtype=np.int64),
    )


def assert_read_only(value):
    for column in (value.boxes, value.scores, value.categories):
        assert not column.flags.writeable


def frame_columns(frame):
    return (
        frame.frame_index, frame.boxes.tolist(), frame.scores.tolist(),
        frame.categories.tolist(), frame.num_categories,
    )


def written_and_read(detections):
    """The bytes ``write_detections`` gives for ``detections``, and the
    table ``ingest_detections`` reads back from them."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "dets.jsonl"
        write_detections(detections, path)
        return path.read_bytes(), ingest_detections(
            path, num_categories=detections.num_categories
        )


class TestFramesAndRows:
    @settings(max_examples=200, deadline=None)
    @given(rows=valid_rows, num_categories=st.sampled_from([3, 4, 6]))
    def test_pickle_and_row_round_trips(self, rows, num_categories):
        columns = columns_of(rows)
        detections = DetectionTable(*columns, num_categories)
        # The table is a sorted, read-only copy; the columns stay as they were.
        assert all(column.flags.writeable for column in columns)
        assert_read_only(detections)
        copy = pickle.loads(pickle.dumps(detections))
        assert copy == detections and copy.num_categories == num_categories
        assert_read_only(copy)
        assert [frame.frame_index for frame in detections] == sorted({row[0] for row in rows})
        for frame in detections:
            assert_read_only(frame)
            built = FrameDetections(
                frame.frame_index, frame.boxes, frame.scores, frame.categories,
                frame.num_categories,
            )
            assert frame_columns(built) == frame_columns(frame)
            assert_read_only(built)
            rebuilt = frame_of(
                frame.frame_index,
                [(d.box.x, d.box.y, d.box.w, d.box.h, d.score, d.category_observation)
                 for d in frame.detections],
                frame.num_categories,
            )
            assert frame_columns(rebuilt) == frame_columns(frame)
            assert rebuilt.detections == frame.detections

    @settings(max_examples=100, deadline=None)
    @given(rows=valid_rows)
    def test_split_keeps_each_frames_rows_in_table_order(self, rows):
        for frame in DetectionTable(*columns_of(rows), 3):
            mine = [
                (box, score, category)
                for index, box, score, category in rows
                if index == frame.frame_index
            ]
            assert frame.boxes.tolist() == [list(box) for box, _, _ in mine]
            assert frame.scores.tolist() == [score for _, score, _ in mine]
            assert frame.categories.tolist() == [category for _, _, category in mine]

    def test_split_rejects_a_bad_row_with_the_scalar_message(self):
        with pytest.raises(ValueError, match="box area must be finite"):
            DetectionTable(*columns_of([(0, (0.0, 0.0, 1e200, 1e200), 0.5, -1)]))
        with pytest.raises(ValueError, match="frame_index must be >= 0"):
            DetectionTable(*columns_of([(-1, (0.0, 0.0, 1.0, 1.0), 0.5, -1)]))


class TestDetectionTable:
    """Rows in any frame order, unlabeled rows and the empty stream: the
    table against its frames and its file."""

    @settings(max_examples=200, deadline=None)
    @given(rows=valid_rows, num_categories=st.sampled_from([3, 4]), data=st.data())
    def test_equals_from_frames_of_its_frames_in_any_order(self, rows, num_categories, data):
        detections = DetectionTable(*columns_of(rows), num_categories)
        frames = data.draw(st.permutations(list(detections)))
        assert DetectionTable.from_frames(frames) == detections
        assert len(detections) == len(frames)

    @settings(max_examples=200, deadline=None)
    @given(rows=valid_rows, num_categories=st.sampled_from([3, 4]))
    def test_views_concatenate_to_the_columns(self, rows, num_categories):
        detections = DetectionTable(*columns_of(rows), num_categories)
        frames = list(detections)
        assert np.array_equal(
            np.repeat([f.frame_index for f in frames], [len(f.scores) for f in frames]),
            detections.frames,
        )
        for name in ("boxes", "scores", "categories"):
            column = getattr(detections, name)
            joined = np.concatenate([column[:0], *(getattr(f, name) for f in frames)])
            assert np.array_equal(joined, column)
        assert (np.diff(detections.frames) >= 0).all()
        assert all(f.num_categories == num_categories for f in frames)

    @settings(max_examples=100, deadline=None)
    @given(rows=valid_rows, num_categories=st.sampled_from([3, 4]))
    def test_file_round_trip(self, rows, num_categories):
        detections = DetectionTable(*columns_of(rows), num_categories)
        text, read = written_and_read(detections)
        assert read == detections
        again, _ = written_and_read(read)
        assert again == text and text.count(b"\n") == len(rows)

    def test_empty_stream(self):
        empty = DetectionTable.from_frames([])
        assert len(empty) == 0 and list(empty) == []
        assert empty == DetectionTable([], np.empty((0, 4)), [], [])
        assert empty.boxes.shape == (0, 4) and empty.num_categories == 4


class TestFromFrames:
    def test_sorted_with_warning(self, caplog):
        frames = [
            frame_of(1, [(5, 0, 20, 20, 0.9, FRESH)]),
            frame_of(0, [(0, 0, 20, 20, 0.9, FRESH)]),
        ]
        with caplog.at_level("WARNING"):
            detections = DetectionTable.from_frames(frames)
        assert "out of order" in caplog.text
        assert [f.frame_index for f in detections] == [0, 1]
        tracks = list(run_stream(detections))
        assert len(tracks) == 1
        assert tracks[0].frames.tolist() == [0, 1]

    def test_repeated_frame_rejected(self):
        frames = [
            frame_of(t, [(5.0 * t, 0, 20, 20, 0.9, FRESH)])
            for t in (0, 1, 1)
        ]
        with pytest.raises(ValueError, match="frame 1 appears more than once"):
            DetectionTable.from_frames(frames)
