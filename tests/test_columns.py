"""Property tests of the columnar detection layer against its row-by-row
counterparts: the table-at-once ingest against the scalar reference, the
column check against the scalar checks, and frames against their rows."""

import json
import math
import pickle
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beltrack import FrameDetections, InputError
from beltrack.io import DETECTION_FIELDS, ingest_detections
from beltrack.model import detection_row, split_frames, valid_detection_rows

from oracles import ingest_detections_scalar_reference

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


class TestColumnCheckMatchesScalarChecks:
    @settings(max_examples=400, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.tuples(*[floats_of_every_kind] * 4),
                st.one_of(st.floats(-0.5, 1.5), st.sampled_from([math.nan, math.inf])),
                st.integers(-3, 6),
            ),
            max_size=10,
        ),
        num_categories=st.integers(2, 5),
    )
    def test_same_rows_accepted(self, rows, num_categories):
        mask = valid_detection_rows(
            np.array([box for box, _, _ in rows], dtype=float).reshape(-1, 4),
            np.array([score for _, score, _ in rows], dtype=float),
            np.array([category for _, _, category in rows], dtype=np.int64),
            num_categories,
        )
        for accepted, (box, score, category) in zip(mask.tolist(), rows):
            try:
                detection_row(0, box, score, category, num_categories)
            except ValueError:
                assert not accepted, (box, score, category)
            else:
                assert accepted, (box, score, category)


valid_rows = st.lists(
    st.tuples(
        st.integers(0, 4),
        st.tuples(st.floats(-50, 50), st.floats(-50, 50), st.floats(0.5, 40), st.floats(0.5, 40)),
        st.floats(0, 1),
        st.integers(-1, 2),
    ),
    max_size=12,
)


def frames_of(rows, num_categories):
    return split_frames(
        np.array([frame for frame, _, _, _ in rows], dtype=np.int64),
        np.array([box for _, box, _, _ in rows], dtype=float).reshape(-1, 4),
        np.array([score for _, _, score, _ in rows], dtype=float),
        np.array([category for _, _, _, category in rows], dtype=np.int64),
        num_categories,
    )


class TestFramesAndRows:
    @settings(max_examples=200, deadline=None)
    @given(rows=valid_rows, num_categories=st.sampled_from([3, 4, 6]))
    def test_pickle_and_row_round_trips(self, rows, num_categories):
        frames = frames_of(rows, num_categories)
        assert [f.frame_index for f in frames] == sorted({frame for frame, _, _, _ in rows})
        for frame in frames:
            copy = pickle.loads(pickle.dumps(frame))
            assert copy == frame
            assert not copy.boxes.flags.writeable
            rebuilt = FrameDetections(frame.frame_index, frame.detections)
            assert rebuilt == frame
            assert rebuilt.detections == frame.detections

    @settings(max_examples=100, deadline=None)
    @given(rows=valid_rows)
    def test_split_keeps_each_frames_rows_in_table_order(self, rows):
        frames = frames_of(rows, 3)
        for frame in frames:
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
            frames_of([(0, (0.0, 0.0, 1e200, 1e200), 0.5, -1)], 4)
        with pytest.raises(ValueError, match="frame_index must be >= 0"):
            frames_of([(-1, (0.0, 0.0, 1.0, 1.0), 0.5, -1)], 4)
