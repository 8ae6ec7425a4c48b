import json
import logging
import pickle
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import beltrack.io as bio
from beltrack import InputError
from beltrack.io import (
    ingest_detections,
    read_ground_truth,
    read_records,
    stream_detections,
    write_detections,
    write_ground_truth,
)
from beltrack.simulate import SceneGroundTruth, SimConfig, generate_scene

from oracles import ingest_detections_reference, read_ground_truth_reference


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


@st.composite
def truth_tables(draw):
    """Ground truth as a file can hold it: objects in id order, each with at
    least one row, its frames distinct and ascending."""
    num_categories = draw(st.integers(2, 6))
    ids = sorted(draw(st.sets(st.integers(-(2**53) + 1, 2**53 - 1), max_size=4)))
    frames = [
        sorted(draw(st.sets(st.integers(0, 2**53 - 1), min_size=1, max_size=4))) for _ in ids
    ]
    coordinates = st.floats(-1e9, 1e9)
    sizes = st.floats(1e-6, 1e9)
    boxes = [
        [draw(coordinates), draw(coordinates), draw(sizes), draw(sizes)]
        for rows in frames for _ in rows
    ]
    return SceneGroundTruth(
        ids,
        [draw(st.integers(0, num_categories - 1)) for _ in ids],
        [len(rows) for rows in frames],
        [frame for rows in frames for frame in rows],
        np.array(boxes, dtype=float).reshape(-1, 4),
        num_categories,
    )


class TestIngestDetections:
    def test_groups_by_frame(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        write_lines(path, [
            '{"frame": 1, "x": 0, "y": 0, "w": 10, "h": 10, "score": 0.9, "category": 0}',
            '{"frame": 0, "x": 5, "y": 5, "w": 10, "h": 10, "score": 0.8, "category": null}',
            '{"frame": 1, "x": 40, "y": 0, "w": 10, "h": 10, "score": 0.7, "category": 2}',
        ])
        frames = list(ingest_detections(path))
        assert [f.frame_index for f in frames] == [0, 1]
        assert frames[0].categories.tolist() == [-1]
        assert frames[1].categories.tolist() == [0, 2]

    def test_zero_width_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        write_lines(path, [
            '{"frame": 0, "x": 0, "y": 0, "w": 10, "h": 10, "score": 0.9, "category": 0}',
            '{"frame": 0, "x": 0, "y": 0, "w": 0, "h": 10, "score": 0.9, "category": 0}',
        ])
        with pytest.raises(InputError, match=r":2:"):
            ingest_detections(path)

    def test_bad_json_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        write_lines(path, ['{"frame": 0, "x": 0', ""])
        with pytest.raises(InputError, match=r":1:"):
            ingest_detections(path)

    def test_score_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        write_lines(path, ['{"frame": 0, "x": 0, "y": 0, "w": 5, "h": 5, "score": 1.2, "category": 0}'])
        with pytest.raises(InputError, match=r":1:"):
            ingest_detections(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        write_lines(path, ['{"frame": 0, "x": 0, "y": 0, "w": 5, "h": 5}'])
        with pytest.raises(InputError, match="score"):
            ingest_detections(path)

    def test_skip_malformed_keeps_good_lines(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        write_lines(path, [
            "not json",
            '{"frame": 0, "x": 0, "y": 0, "w": 5, "h": 5, "score": 0.9, "category": 1}',
            '{"frame": 0, "x": 0, "y": 0, "w": -3, "h": 5, "score": 0.9, "category": 1}',
        ])
        (frame,) = ingest_detections(path, skip_malformed=True)
        assert len(frame.scores) == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="not found"):
            ingest_detections(tmp_path / "nope.jsonl")

    @pytest.mark.parametrize("fields, message", [
        ({"frame": "2.7"}, "frame must be an integer, got 2.7"),
        ({"category": "1.5"}, "category must be an integer, got 1.5"),
        ({"category": "NaN"}, "category must be an integer, got nan"),
        ({"category": "-1"}, r"category index -1 out of range \[0, 4\)"),
        ({"frame": "true"}, "frame must be a number, got true"),
        ({"x": "false"}, "x must be a number, got false"),
        ({"score": "true"}, "score must be a number, got true"),
        ({"category": "true"}, "category must be a number, got true"),
        ({"frame": '"3"'}, 'frame must be a number, got "3"'),
        ({"score": '"0.9"'}, 'score must be a number, got "0.9"'),
        ({"category": '"1"'}, 'category must be a number, got "1"'),
        ({"x": "null"}, "x must be a number, got null"),
        ({"w": "1e200", "h": "1e200"}, "box area must be finite"),
        ({"x": "1.7e308", "w": "1.7e308"}, "box right must be finite"),
    ])
    def test_coerced_or_overflowing_values_rejected(self, tmp_path, fields, message):
        raw = {"frame": "2", "x": "0", "y": "0", "w": "5", "h": "5", "score": "0.9",
               "category": "1", **fields}
        path = tmp_path / "dets.jsonl"
        write_lines(path, [
            '{"frame": 0, "x": 0, "y": 0, "w": 5, "h": 5, "score": 0.9, "category": 0}',
            "{" + ", ".join(f'"{key}": {value}' for key, value in raw.items()) + "}",
        ])
        with pytest.raises(InputError, match=rf"dets\.jsonl:2: {message}"):
            ingest_detections(path)
        frames = ingest_detections(path, skip_malformed=True)
        assert [(f.frame_index, len(f.scores)) for f in frames] == [(0, 1)]

    def test_frames_a_float_cannot_tell_apart_rejected(self, tmp_path):
        # 4611686018427387904 and ...905 parse to one float: they would merge.
        path = tmp_path / "dets.jsonl"
        write_lines(path, [
            f'{{"frame": {frame}, "x": 0, "y": 0, "w": 5, "h": 5, "score": 0.9}}'
            for frame in (4611686018427387904, 4611686018427387905)
        ])
        with pytest.raises(InputError, match=r"dets\.jsonl:1: frame is out of range"):
            ingest_detections(path)

    @pytest.mark.parametrize("frame, accepted", [(2**53 - 1, True), (2**53, False), (2**53 + 1, False)])
    def test_frames_below_2_to_the_53_accepted(self, tmp_path, frame, accepted):
        path = tmp_path / "dets.jsonl"
        write_lines(path, [f'{{"frame": {frame}, "x": 0, "y": 0, "w": 5, "h": 5, "score": 0.9}}'])
        if accepted:
            assert [f.frame_index for f in ingest_detections(path)] == [frame]
        else:
            with pytest.raises(InputError, match=r"dets\.jsonl:1: frame is out of range"):
                ingest_detections(path)

    def test_integral_float_frame_and_category_accepted(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        write_lines(path, ['{"frame": 2.0, "x": 0, "y": 0, "w": 5, "h": 5, "score": 0.9, "category": 1.0}'])
        (frame,) = ingest_detections(path)
        assert frame.frame_index == 2
        assert frame.categories.tolist() == [1]

    def test_earliest_bad_line_reported_whatever_its_kind(self, tmp_path):
        # Line 2 fails the table check, line 3 the per-line parse.
        path = tmp_path / "dets.jsonl"
        write_lines(path, [
            '{"frame": 0, "x": 0, "y": 0, "w": 5, "h": 5, "score": 0.9}',
            '{"frame": 0, "x": 0, "y": 0, "w": 5, "h": 5, "score": 1.5}',
            "not json",
        ])
        with pytest.raises(InputError, match=r":2: score must be in \[0, 1\]"):
            ingest_detections(path)

    def test_missing_category_key_means_no_label(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        write_lines(path, ['{"frame": 0, "x": 0, "y": 0, "w": 5, "h": 5, "score": 0.9}'])
        assert ingest_detections(path).categories.tolist() == [-1]


class TestRoundTrip:
    def test_file_round_trip_is_exact(self, tmp_path):
        config = SimConfig(
            seed=31, n_lanes=2, n_objects_per_lane=4, frame_width=150.0,
            bbox_jitter_std=1.3, label_flip_prob=0.2, detection_dropout_prob=0.1,
            score_std_true=0.05, false_positive_rate=0.3,
        )
        _, frames = generate_scene(config)
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        write_detections(frames, first)
        write_detections(ingest_detections(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_in_memory_round_trip(self, tmp_path):
        config = SimConfig(seed=32, n_lanes=1, n_objects_per_lane=3, frame_width=120.0)
        _, frames = generate_scene(config)
        path = tmp_path / "dets.jsonl"
        write_detections(frames, path)
        assert ingest_detections(path) == frames

    def test_ground_truth_round_trip(self, tmp_path):
        config = SimConfig(seed=33, n_lanes=2, n_objects_per_lane=3, frame_width=120.0)
        gt, _ = generate_scene(config)
        path = tmp_path / "gt.jsonl"
        write_ground_truth(gt, path)
        assert read_ground_truth(path) == gt

    @settings(max_examples=100, deadline=None)
    @given(gt=truth_tables())
    def test_ground_truth_columns_round_trip(self, gt):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "gt.jsonl"
            write_ground_truth(gt, path)
            read = read_ground_truth(path, num_categories=gt.num_categories)
        assert read == gt

    def test_pickled_ground_truth_holds_only_columns(self):
        config = SimConfig(seed=34, n_lanes=2, n_objects_per_lane=3, spawn_jitter_frames=3)
        gt, _ = generate_scene(config)
        data = pickle.dumps(gt)
        assert b"BoundingBox" not in data and b"GroundTruthObject" not in data
        assert pickle.loads(data) == gt


#: A truth line of object 1.
TRUTH_LINE = (
    '{{"frame": {frame}, "object_id": 1, "x": 0, "y": 0, "w": {w}, "h": 5, '
    '"true_category": {category}}}'
)


class TestReadGroundTruth:
    def test_category_change_rejected(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        write_lines(path, [
            '{"frame": 0, "object_id": 1, "x": 0, "y": 0, "w": 5, "h": 5, "true_category": 0}',
            '{"frame": 1, "object_id": 1, "x": 5, "y": 0, "w": 5, "h": 5, "true_category": 2}',
        ])
        with pytest.raises(InputError, match="changes category"):
            read_ground_truth(path)

    @pytest.mark.parametrize("category", ["NaN", "Infinity"])
    def test_bad_first_category_reported_before_the_change_it_starts(self, tmp_path, category):
        # Line 2 changes category from line 1's, whose category is no integer:
        # wording line 2 as well once ended in a ValueError from int().
        path = tmp_path / "gt.jsonl"
        write_lines(path, [
            f'{{"frame": 0, "object_id": 1, "x": 0, "y": 0, "w": 5, "h": 5, "true_category": {category}}}',
            '{"frame": 1, "object_id": 1, "x": 5, "y": 0, "w": 5, "h": 5, "true_category": 0}',
        ])
        with pytest.raises(InputError, match=r"gt\.jsonl:1: true_category must be an integer"):
            read_ground_truth(path)

    def test_negative_frame_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        write_lines(path, [
            '{"frame": 0, "object_id": 1, "x": 0, "y": 0, "w": 5, "h": 5, "true_category": 0}',
            '{"frame": -1, "object_id": 2, "x": 0, "y": 0, "w": 5, "h": 5, "true_category": 0}',
        ])
        with pytest.raises(InputError, match=r"gt\.jsonl:2: frame_index must be >= 0"):
            read_ground_truth(path)

    def test_out_of_range_category_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        write_lines(path, [
            '{"frame": 0, "object_id": 1, "x": 0, "y": 0, "w": 5, "h": 5, "true_category": 0}',
            '{"frame": 0, "object_id": 2, "x": 9, "y": 0, "w": 5, "h": 5, "true_category": 9}',
        ])
        with pytest.raises(InputError, match=r"gt\.jsonl:2: category index 9 out of range"):
            read_ground_truth(path)

    @pytest.mark.parametrize("field, value, message", [
        ("frame", "2.7", "frame must be an integer, got 2.7"),
        ("object_id", "1.9", "object_id must be an integer, got 1.9"),
        ("true_category", "true", "true_category must be a number, got true"),
        ("true_category", "1.5", "true_category must be an integer, got 1.5"),
        ("frame", "9007199254740992", "frame is out of range"),
        ("x", "true", "x must be a number, got true"),
        ("w", "false", "w must be a number, got false"),
        ("frame", '"0"', 'frame must be a number, got "0"'),
        ("object_id", '"1"', 'object_id must be a number, got "1"'),
        ("x", '"0"', 'x must be a number, got "0"'),
    ])
    def test_detection_rules_apply(self, tmp_path, field, value, message):
        record = {"frame": 0, "object_id": 1, "x": 0, "y": 0, "w": 5, "h": 5, "true_category": 0}
        line = json.dumps(record).replace(f'"{field}": {json.dumps(record[field])}', f'"{field}": {value}')
        path = tmp_path / "gt.jsonl"
        write_lines(path, [json.dumps(record), line])
        with pytest.raises(InputError, match=re.escape(f"gt.jsonl:2: {message}")):
            read_ground_truth(path)

    def test_found_line_rejected(self, tmp_path):
        # Read as frame 2, object 1, category 1 before whole numbers were
        # checked. As in the detection reader, booleans are reported first.
        path = tmp_path / "gt.jsonl"
        line = '{"frame": 2.7, "object_id": 1.9, "x": 0, "y": 0, "w": 5, "h": 5, "true_category": true}'
        write_lines(path, [line])
        with pytest.raises(InputError, match=r"gt\.jsonl:1: true_category must be a number, got true"):
            read_ground_truth(path)
        write_lines(path, [line.replace("true}", "1}")])
        with pytest.raises(InputError, match=r"gt\.jsonl:1: frame must be an integer, got 2\.7"):
            read_ground_truth(path)

    def test_missing_field_and_non_object_rejected(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        write_lines(path, ['{"frame": 0, "object_id": 1, "x": 0, "y": 0, "w": 5, "true_category": 0}'])
        with pytest.raises(InputError, match=r"gt\.jsonl:1: missing field 'h'"):
            read_ground_truth(path)
        write_lines(path, ["[0, 1]"])
        with pytest.raises(InputError, match=r"gt\.jsonl:1: expected a JSON object"):
            read_ground_truth(path)

    def test_whole_floats_accepted(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        write_lines(path, ['{"frame": 3.0, "object_id": 2.0, "x": 0, "y": 0, "w": 5, "h": 5, "true_category": 1.0}'])
        gt = read_ground_truth(path)
        (obj,) = gt.objects
        assert (obj.object_id, obj.true_category.index, obj.frames.tolist()) == (2, 1, [3])
        assert type(obj.object_id) is int and gt.frames.dtype == np.int64

    @pytest.mark.parametrize("second_x", [5, 0])  # another box, the same line
    def test_object_twice_on_one_frame_rejected(self, tmp_path, second_x):
        path = tmp_path / "gt.jsonl"
        write_lines(path, [
            '{"frame": 0, "object_id": 1, "x": 0, "y": 0, "w": 5, "h": 5, "true_category": 1}',
            f'{{"frame": 0, "object_id": 1, "x": {second_x}, "y": 0, "w": 5, "h": 5, "true_category": 1}}',
        ])
        with pytest.raises(InputError, match=r"gt\.jsonl:2: object 1 appears twice on frame 0"):
            read_ground_truth(path)

    @pytest.mark.parametrize("lines, message", [
        # A negative frame, a zero width and a category out of range: the
        # label is checked before the box, and the box before the frame.
        ([TRUTH_LINE.format(frame=-1, w=0, category=9)], "1: category index 9 out of range [0, 4)"),
        ([TRUTH_LINE.format(frame=-1, w=0, category=1)], "1: box size must be positive, got w=0.0, h=5.0"),
        # A check comes before a category change, which comes before a repeat.
        ([TRUTH_LINE.format(frame=0, w=5, category=1), TRUTH_LINE.format(frame=0, w=0, category=2)],
         "2: box size must be positive"),
        ([TRUTH_LINE.format(frame=0, w=5, category=1), TRUTH_LINE.format(frame=0, w=5, category=2)],
         "2: object 1 changes category (1 -> 2)"),
    ])
    def test_faults_of_one_line_reported_in_one_order(self, tmp_path, lines, message):
        path = tmp_path / "gt.jsonl"
        write_lines(path, lines)
        with pytest.raises(InputError, match=re.escape(f"gt.jsonl:{message}")):
            read_ground_truth(path)

    def test_boxes_sorted_by_frame(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        write_lines(path, [
            '{"frame": 3, "object_id": 1, "x": 15, "y": 0, "w": 5, "h": 5, "true_category": 1}',
            '{"frame": 1, "object_id": 1, "x": 5, "y": 0, "w": 5, "h": 5, "true_category": 1}',
        ])
        gt = read_ground_truth(path)
        assert gt.frames.tolist() == [1, 3]
        assert gt.boxes[:, 0].tolist() == [5, 15]


class TestMotAdapter:
    def test_basic_parse(self, tmp_path):
        path = tmp_path / "dets.txt"
        write_lines(path, [
            "1,1,10,20,30,40,0.9,-1,-1,-1",
            "1,2,100,20,30,40,0.5,-1,-1,-1",
            "2,1,15,20,30,40,0.8,-1,-1,-1",
        ])
        frames = list(ingest_detections(path, mot=True))
        assert [f.frame_index for f in frames] == [1, 2]
        assert frames[0].boxes.tolist() == [[10, 20, 30, 40], [100, 20, 30, 40]]
        assert frames[0].categories.tolist() == [-1, -1]

    def test_confidence_clamped(self, tmp_path):
        path = tmp_path / "dets.txt"
        write_lines(path, ["1,1,10,20,30,40,-1", "1,2,10,80,30,40,7.5"])
        assert ingest_detections(path, mot=True).scores.tolist() == [0.0, 1.0]

    def test_short_line_rejected(self, tmp_path):
        path = tmp_path / "dets.txt"
        write_lines(path, ["1,1,10,20,30"])
        with pytest.raises(InputError, match=r":1:"):
            ingest_detections(path, mot=True)

    def test_bad_box_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "dets.txt"
        write_lines(path, ["1,1,10,20,30,40,0.9", "2,1,15,20,0,40,0.9", "3,1,x,20,30,40,0.9"])
        with pytest.raises(InputError, match=r":2: box size must be positive"):
            ingest_detections(path, mot=True)

    def test_frame_at_2_to_the_53_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "dets.txt"
        write_lines(path, ["1,1,10,20,30,40,0.9", f"{2**53},1,15,20,30,40,0.9"])
        with pytest.raises(InputError, match=r":2: frame is out of range"):
            ingest_detections(path, mot=True)

    def test_fractional_frame_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "dets.txt"
        write_lines(path, ["1,1,10,20,30,40,0.9", "2.7,1,0,0,5,5,0.9"])
        with pytest.raises(InputError, match=r":2: frame must be an integer, got 2\.7"):
            ingest_detections(path, mot=True)

    @pytest.mark.parametrize("confidence", ["nan", "inf", "-inf"])
    def test_non_finite_confidence_rejected_with_line_number(self, tmp_path, confidence):
        path = tmp_path / "dets.txt"
        write_lines(path, ["1,1,10,20,30,40,0.9", f"2,1,15,20,30,40,{confidence}"])
        with pytest.raises(InputError, match=r":2: confidence must be finite"):
            ingest_detections(path, mot=True)

    def test_bad_lines_in_a_later_block(self, tmp_path, caplog):
        # Four lines a block: the bad lines 6 (a row fault), 7 (a parse
        # fault) and 11 (too few fields) are in the second and third blocks.
        lines = [f"{t},1,{5 * t},0,20,20,0.9" for t in range(12)]
        lines[5], lines[6], lines[10] = "5,1,0,0,0,20,0.9", "6,1,x,0,20,20,0.9", "10,1,0,0,20"
        path = tmp_path / "dets.txt"
        write_lines(path, lines)
        with mock.patch.object(bio, "_BLOCK_LINES", 4):
            with pytest.raises(InputError, match=rf"dets\.txt:6: box size must be positive"):
                ingest_detections(path, mot=True)
            lines[5], lines[6] = lines[6], lines[5]  # the parse fault first
            write_lines(path, lines)
            with pytest.raises(
                InputError, match=r"dets\.txt:6: could not convert string to float: 'x'"
            ):
                ingest_detections(path, mot=True)
            with caplog.at_level(logging.WARNING, logger="beltrack"):
                table = ingest_detections(path, skip_malformed=True, mot=True)
        assert table.frames.tolist() == [t for t in range(12) if t not in (5, 6, 10)]
        skipped = [re.search(r":(\d+): ", r.getMessage()).group(1) for r in caplog.records]
        assert skipped == ["6", "7", "11"]


#: A record cut after its "x" field: with the comma a joined block puts
#: between lines, the two halves read as one object.
RECORD_HEAD = '{"frame": 0, "x": 1.5'
RECORD_TAIL = '"y": 2.0, "w": 3.0, "h": 4.0, "score": 0.5}'
RECORD = f"{RECORD_HEAD}, {RECORD_TAIL}"
HUGE = "1" + "0" * 400  # past the float range
FILLER_LINES = ["", "   ", "\x0c", "\t", "not json", "null", "[]", "{}"]


def line_fragments(records):
    """Lines of a JSONL file from one or two drawn records: the record
    alone, or as the fragments that test the block parser's guard."""

    @st.composite
    def fragments(draw):
        record, other = draw(records), draw(records)
        first, second, tail = record[:-1].split(", ", 2)
        head = f"{first}, {second}"
        return draw(st.sampled_from([
            [record], [record], [record], [record],
            [head, tail + "}"],  # split over two lines, the joined comma fills the gap
            [head + ",", tail + "}"],
            [f"{record}, {other}"], [f"{record} {other}"],  # two on one line
            [head, f"{tail}}}, {other}"],  # a split record's end and a whole record
            [f"{other}, {head}", tail + "}"],  # a whole record and a split record's start
            [record[:-1] + ', "note": "}{"}'], [record[:-1] + ', "note": "{"}'],
            [head + ', "note": "}"', tail + ', "more": "{"}'],  # one object, two lines
            ["[" + record + ",", other + "]"],  # an array spanning lines
            ["\ufeff" + record], [record + ","], [" " + record + " "],
            [draw(st.sampled_from(FILLER_LINES))],
        ]))

    return fragments()


#: Values a per-line parse rejects or turns into an out-of-range float;
#: "" leaves the field out.
EDGES = ("", "true", '"0.5"', "null", "NaN", "1e400", HUGE, str(2**53 + 1), "-1", "2.5")


def jsonl_records(valid, edges):
    """JSON records with each field drawn from its ``valid`` values, and in
    one record of four one or two fields drawn from ``EDGES`` or their
    ``edges`` instead, so that a line can hold two faults. A field whose
    value is "" is left out."""

    @st.composite
    def record(draw):
        values = {key: draw(st.sampled_from(choices)) for key, choices in valid.items()}
        if draw(st.integers(0, 3)) == 0:
            for key in draw(st.lists(st.sampled_from(list(valid)), min_size=1, max_size=2)):
                values[key] = draw(st.sampled_from(EDGES + edges.get(key, ())))
        return "{" + ", ".join(f'"{key}": {value}' for key, value in values.items() if value) + "}"

    return record()


detection_records = jsonl_records(
    {
        "frame": ("0", "1", "2", "2.0"), "x": ("1.5", "-20", str(2**53 + 1)), "y": ("2.0",),
        "w": ("3.0", "3"), "h": ("4.0",), "score": ("0.5", "1", "0.0"),
        "category": ("", "null", "0", "2", "1.0", "3"),
    },
    {"w": ("0", "1e200"), "score": ("1.5",), "category": ("7", '"1"')},
)
truth_records = jsonl_records(
    {
        "frame": tuple(map(str, range(6))) + ("2.0",),
        "object_id": tuple(map(str, range(6))) + ("1.0",),
        "x": ("1.5",), "y": ("2.0",), "w": ("3.0",), "h": ("4.0",),
        "true_category": ("0", "1", "1.0", "3"),
    },
    {"w": ("0",), "true_category": ("7",)},
)


@st.composite
def jsonl_files(draw, records):
    """The text of a JSONL file: a few fragments, its last line ended or not."""
    lines = [line for fragment in draw(st.lists(line_fragments(records), max_size=8))
             for line in fragment]
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


def outcome(caplog, read, path, **options):
    """What a reader gives for ``path``: its result or its error's text,
    and the warnings it logged."""
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger=bio.__name__):
        try:
            result = read(path, **options)
        except InputError as error:
            result = f"InputError: {error}"
    return result, [record.getMessage() for record in caplog.records]


class TestBlockParseMatchesPerLineReaders:
    """The readers parse blocks of lines; one ``json.loads`` per line is the
    spec, also for lines that straddle the edges of small blocks."""

    @settings(
        max_examples=300, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        text=jsonl_files(detection_records),
        skip_malformed=st.booleans(),
        block_lines=st.integers(1, 5),
    )
    def test_detections(self, caplog, text, skip_malformed, block_lines):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "dets.jsonl"
            path.write_text(text, encoding="utf-8")
            want = outcome(caplog, ingest_detections_reference, path, skip_malformed=skip_malformed)
            with mock.patch.object(bio, "_BLOCK_LINES", block_lines):
                got = outcome(caplog, ingest_detections, path, skip_malformed=skip_malformed)
        assert got == want

    @settings(
        max_examples=200, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(text=jsonl_files(truth_records), block_lines=st.integers(1, 5))
    def test_ground_truth(self, caplog, text, block_lines):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "gt.jsonl"
            path.write_text(text, encoding="utf-8")
            want = outcome(caplog, read_ground_truth_reference, path)
            with mock.patch.object(bio, "_BLOCK_LINES", block_lines):
                got = outcome(caplog, read_ground_truth, path)
        assert got == want

    def test_split_record_beside_two_records_on_one_line_rejected(self, tmp_path):
        # Three lines joined into three objects: counting objects alone
        # would take the block for clean.
        path = tmp_path / "dets.jsonl"
        write_lines(path, [RECORD_HEAD, RECORD_TAIL, f"{RECORD}, {RECORD}"])
        with pytest.raises(InputError, match=r"dets\.jsonl:1: invalid JSON"):
            ingest_detections(path)
        assert len(ingest_detections(path, skip_malformed=True).frames) == 0

    def test_split_record_ending_beside_a_whole_record_rejected(self, tmp_path):
        # Two lines joined into two objects, every line with one "{".
        path = tmp_path / "dets.jsonl"
        write_lines(path, [RECORD_HEAD, f"{RECORD_TAIL}, {RECORD}", RECORD])
        with pytest.raises(InputError, match=r"dets\.jsonl:1: invalid JSON"):
            ingest_detections(path)
        (frame,) = ingest_detections(path, skip_malformed=True)
        assert len(frame.scores) == 1

    def test_whole_record_beside_a_split_record_start_rejected(self, tmp_path):
        # Two lines joined into two objects, every line with one "}".
        path = tmp_path / "dets.jsonl"
        write_lines(path, [RECORD, f"{RECORD}, {RECORD_HEAD}", RECORD_TAIL])
        with pytest.raises(InputError, match=r"dets\.jsonl:2: invalid JSON"):
            ingest_detections(path)
        (frame,) = ingest_detections(path, skip_malformed=True)
        assert len(frame.scores) == 1

    def test_per_line_parser_runs_only_for_a_block_with_a_bad_line(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        write_lines(path, [RECORD] * 5 + ["not json"] + [RECORD] * 3)
        per_line = mock.patch.object(bio, "_parse_line", wraps=bio._parse_line)
        with mock.patch.object(bio, "_BLOCK_LINES", 4), per_line as parse:
            (frame,) = ingest_detections(path, skip_malformed=True)
            assert parse.call_count == 4  # lines 5 to 8, the block holding line 6
            write_lines(path, [RECORD] * 9)
            ingest_detections(path)
            assert parse.call_count == 4
        assert len(frame.scores) == 8

    def test_blank_lines_keep_a_block_on_the_joined_parse(self, tmp_path):
        config = SimConfig(
            seed=35, n_lanes=2, n_objects_per_lane=6, false_positive_rate=0.3,
            label_flip_prob=0.2,
        )
        _, frames = generate_scene(config)
        plain, blank = tmp_path / "plain.jsonl", tmp_path / "blank.jsonl"
        write_detections(frames, plain)
        lines = plain.read_text(encoding="utf-8").splitlines()
        text = []
        for i, line in enumerate(lines):
            text.append(line)
            if i % 7 == 0:
                text.extend(["", "  ", "\t"][: i % 3 + 1])  # one to three blank lines
        write_lines(blank, text)
        per_line = mock.patch.object(bio, "_parse_line", wraps=bio._parse_line)
        with mock.patch.object(bio, "_BLOCK_LINES", 16), per_line as parse:
            assert ingest_detections(blank) == ingest_detections(plain) == frames
            assert parse.call_count == 0
        # Lines 2 to 4 are blank, line 5 the bad one.
        write_lines(blank, [RECORD, "", " ", "\t", "not json", RECORD])
        with pytest.raises(InputError, match=r"blank\.jsonl:5: invalid JSON"):
            ingest_detections(blank)
        (frame,) = ingest_detections(blank, skip_malformed=True)
        assert len(frame.scores) == 2


class TestBytesThatAreNotUtf8:
    """A line holding a byte that is not UTF-8 is a bad line: an error that
    names path:line, or a skipped line. Line numbers are those of the text
    split, whatever the line ends."""

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    @pytest.mark.parametrize("bad_line", [
        b'{"frame": 1, "x": 0, "y": 0, "w": 5, "h": 5, "score": 0.9, "note": "\xff"}',
        b"\xff",
    ])
    def test_detection_line_rejected_or_skipped(self, tmp_path, newline, bad_line):
        path = tmp_path / "dets.jsonl"
        lines = [RECORD.encode(), bad_line, RECORD.replace('"frame": 0', '"frame": 2').encode()]
        path.write_bytes(newline.join(lines) + newline)
        with pytest.raises(InputError, match=r"dets\.jsonl:2: not valid UTF-8 \(byte 0xff\)"):
            ingest_detections(path)
        assert [f.frame_index for f in ingest_detections(path, skip_malformed=True)] == [0, 2]

    def test_text_that_is_utf8_but_not_ascii_accepted(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        path.write_bytes(RECORD.replace("{", '{"note": "é", ', 1).encode() + b"\n")
        assert [f.frame_index for f in ingest_detections(path)] == [0]

    def test_truth_line_rejected(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        record = b'{"frame": 0, "object_id": 1, "x": 0, "y": 0, "w": 5, "h": 5, "true_category": 0}'
        path.write_bytes(record + b"\r\n\xc3(\r\n")
        with pytest.raises(InputError, match=r"gt\.jsonl:2: not valid UTF-8 \(byte 0xc3\)"):
            read_ground_truth(path)

    def test_mot_line_rejected_or_skipped(self, tmp_path):
        path = tmp_path / "dets.txt"
        path.write_bytes(b"0,1,0,0,20,20,0.9\r1,1,0,0,20,20,0.9,\xff\r2,1,10,0,20,20,0.9\r")
        with pytest.raises(InputError, match=r"dets\.txt:2: not valid UTF-8 \(byte 0xff\)"):
            ingest_detections(path, mot=True)
        table = ingest_detections(path, skip_malformed=True, mot=True)
        assert [f.frame_index for f in table] == [0, 2]


#: Lines nested past the JSON parser's recursion limit: without braces, and
#: with the one pair of braces that sends a block to the joined parse first.
DEEP_LINES = ["[" * 200_000, '{"frame": ' + "[" * 100_000 + "]" * 100_000 + "}"]
TRUTH_RECORD = (
    '{"frame": 0, "object_id": 1, "x": 0, "y": 0, "w": 5, "h": 5, "true_category": 0}'
)


class TestLinesNestedTooDeeply:
    """A line too deeply nested to parse is a bad line; each JSON reader
    once ended in ``RecursionError`` on one."""

    @pytest.mark.parametrize("deep", DEEP_LINES)
    def test_detection_line_rejected_or_skipped(self, tmp_path, deep):
        path = tmp_path / "dets.jsonl"
        write_lines(path, [RECORD, deep, RECORD])
        message = r"dets\.jsonl:2: invalid JSON \(nested too deeply\)"
        with pytest.raises(InputError, match=message):
            ingest_detections(path)
        with pytest.raises(InputError, match=message):
            list(stream_detections(path))
        (frame,) = ingest_detections(path, skip_malformed=True)
        assert len(frame.scores) == 2
        assert [len(f.scores) for f in stream_detections(path, skip_malformed=True)] == [2]

    @pytest.mark.parametrize("deep", DEEP_LINES)
    def test_truth_line_rejected(self, tmp_path, deep):
        path = tmp_path / "gt.jsonl"
        write_lines(path, [TRUTH_RECORD, deep])
        with pytest.raises(InputError, match=r"gt\.jsonl:2: invalid JSON \(nested too deeply\)"):
            read_ground_truth(path)

    @pytest.mark.parametrize("deep", DEEP_LINES)
    def test_record_line_rejected(self, tmp_path, deep):
        path = tmp_path / "verdicts.jsonl"
        write_lines(path, ['{"k": 1}', deep])
        records = read_records(path, "verdict", ("k",))
        assert next(records) == (1, {"k": 1})
        with pytest.raises(
            InputError, match=r"verdicts\.jsonl:2: invalid JSON \(nested too deeply\)"
        ):
            next(records)


class TestUnreadablePath:
    """One opener for every reader: a missing path and one that cannot be
    opened, such as a directory, are input errors naming the file's kind."""

    READERS = [
        ("detection", ingest_detections),
        ("detection", lambda path: list(stream_detections(path))),
        ("MOT", lambda path: ingest_detections(path, mot=True)),
        ("MOT", lambda path: list(stream_detections(path, mot=True))),
        ("ground-truth", read_ground_truth),
        ("verdict", lambda path: list(read_records(path, "verdict", ()))),
    ]
    IDS = ["ingest_detections", "stream_detections", "ingest_detections_mot",
           "stream_detections_mot", "read_ground_truth", "read_records"]

    @pytest.mark.parametrize("kind, read", READERS, ids=IDS)
    def test_directory(self, tmp_path, kind, read):
        cannot = rf"^{kind} file cannot be read: {re.escape(str(tmp_path))} \(Is a directory\)$"
        with pytest.raises(InputError, match=cannot):
            read(tmp_path)

    @pytest.mark.parametrize("kind, read", READERS, ids=IDS)
    def test_missing(self, tmp_path, kind, read):
        missing = tmp_path / "missing.jsonl"
        with pytest.raises(InputError, match=rf"^{kind} file not found: {re.escape(str(missing))}$"):
            read(missing)
