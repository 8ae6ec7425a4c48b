import argparse
import contextlib
import dataclasses
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from types import UnionType
from unittest import mock
from typing import Literal, get_args, get_origin, get_type_hints

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import beltrack.cli as cli
from beltrack import (
    AggregationConfig,
    ConfigError,
    InputError,
    PipelineResult,
    SimConfig,
    TrackerConfig,
    TrackTable,
    majority_vote,
    stability_report,
)
from beltrack.cli import main
from beltrack.io import ingest_detections, read_ground_truth
from beltrack.pipeline import write_verdicts


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def scene_files(tmp_path):
    dets = tmp_path / "dets.jsonl"
    truth = tmp_path / "truth.jsonl"
    code = run_cli(
        "simulate",
        "--output-detections", str(dets),
        "--output-truth", str(truth),
        "--seed", "5",
        "--n-lanes", "2",
        "--n-objects-per-lane", "4",
        "--frame-width", "150",
        "--label-flip-prob", "0.2",
    )
    assert code == 0
    return dets, truth


class TestSimulate:
    def test_writes_both_files(self, scene_files):
        dets, truth = scene_files
        assert dets.exists() and truth.exists()
        assert len(dets.read_text().splitlines()) > 50
        first = json.loads(dets.read_text().splitlines()[0])
        assert set(first) == {"frame", "x", "y", "w", "h", "score", "category"}

    @pytest.mark.parametrize("flag", ["--n-frames", "--n-objects-per-lane"])
    def test_negative_count_is_exit_code_2(self, tmp_path, capsys, flag):
        # Both once wrote empty files and exited 0.
        dets, truth = tmp_path / "dets.jsonl", tmp_path / "truth.jsonl"
        argv = ["simulate", "--output-detections", str(dets), "--output-truth", str(truth)]
        assert run_cli(*argv, flag, "-3") == 2
        assert f"{flag[2:].replace('-', '_')} must be >= 0, got -3" in capsys.readouterr().err
        assert not dets.exists() and not truth.exists()


class TestTrack:
    def test_end_to_end_outputs(self, scene_files, tmp_path):
        dets, _ = scene_files
        verdicts = tmp_path / "verdicts.jsonl"
        summary = tmp_path / "summary.json"
        code = run_cli(
            "track", "--input", str(dets),
            "--output-verdicts", str(verdicts),
            "--output-summary", str(summary),
        )
        assert code == 0
        assert len(verdicts.read_text().splitlines()) == 8
        payload = json.loads(summary.read_text())
        assert payload["n_tracks"] == 8

    def test_missing_input_is_exit_code_1(self, tmp_path):
        assert run_cli("track", "--input", str(tmp_path / "missing.jsonl")) == 1

    def test_overflowing_box_is_input_error_unless_skipped(self, tmp_path, capsys):
        dets = tmp_path / "dets.jsonl"
        lines = [
            {"frame": t, "x": 5.0 * t, "y": 0.0, "w": 20.0, "h": 20.0, "score": 0.9, "category": 0}
            for t in range(4)
        ]
        lines.insert(2, {**lines[1], "w": 1e200, "h": 1e200, "x": 100.0})
        dets.write_text("".join(json.dumps(line) + "\n" for line in lines))
        assert run_cli("track", "--input", str(dets)) == 1
        assert f"{dets}:3: box area must be finite" in capsys.readouterr().err
        assert run_cli("track", "--input", str(dets), "--skip-malformed") == 0
        assert capsys.readouterr().out.startswith("1 tracks (1 labeled)")

    @pytest.mark.parametrize("size, message", [
        ({"w": 1e10, "h": 1e-300}, "box aspect w/h must be finite, got inf"),
        ({"w": 1e-300, "h": 1e300}, "box aspect w/h must be positive, got 0.0"),
    ])
    def test_aspect_out_of_float_range_is_input_error_unless_skipped(
        self, tmp_path, capsys, size, message
    ):
        # The tracker's filter encodes w/h: inf or 0 there crashed it.
        dets = tmp_path / "dets.jsonl"
        lines = [
            {"frame": t, "x": 5.0 * t, "y": 0.0, "w": 20.0, "h": 20.0, "score": 0.9, "category": 0}
            for t in range(3)
        ]
        lines.insert(1, {**lines[0], **size})
        dets.write_text("".join(json.dumps(line) + "\n" for line in lines))
        assert run_cli("track", "--input", str(dets)) == 1
        assert f"{dets}:2: {message}" in capsys.readouterr().err
        assert run_cli("track", "--input", str(dets), "--skip-malformed") == 0
        assert capsys.readouterr().out.startswith("1 tracks (1 labeled)")

    def test_frames_a_float_cannot_tell_apart_are_input_error(self, tmp_path, capsys):
        dets = tmp_path / "dets.jsonl"
        dets.write_text("".join(
            json.dumps({"frame": frame, "x": 0.0, "y": 0.0, "w": 5.0, "h": 5.0, "score": 0.9}) + "\n"
            for frame in (4611686018427387904, 4611686018427387905)
        ))
        assert run_cli("track", "--input", str(dets)) == 1
        assert f"{dets}:1: frame is out of range" in capsys.readouterr().err

    def test_numbers_given_as_strings_are_input_error(self, tmp_path, capsys):
        dets = tmp_path / "dets.jsonl"
        dets.write_text(
            '{"frame": "3", "x": "1", "y": 0, "w": 5, "h": 5, "score": "0.9", "category": "1"}\n'
        )
        assert run_cli("track", "--input", str(dets)) == 1
        assert f'{dets}:1: frame must be a number, got "3"' in capsys.readouterr().err

    def test_bad_tracker_config_is_exit_code_2(self, scene_files):
        dets, _ = scene_files
        code = run_cli("track", "--input", str(dets), "--high-score-threshold", "1.5")
        assert code == 2

    def test_determinism_byte_identical(self, scene_files, tmp_path):
        dets, _ = scene_files
        contents = []
        for name in ("a", "b"):
            verdicts = tmp_path / f"{name}.jsonl"
            summary = tmp_path / f"{name}.json"
            assert run_cli(
                "track", "--input", str(dets),
                "--output-verdicts", str(verdicts),
                "--output-summary", str(summary),
            ) == 0
            contents.append(verdicts.read_bytes() + summary.read_bytes())
        assert contents[0] == contents[1]


class TestConfigFile:
    def test_config_file_wins_over_flag(self, scene_files, tmp_path, caplog):
        dets, _ = scene_files
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"tracker": {"high_score_threshold": 0.7}}))
        with caplog.at_level("WARNING", logger="beltrack"):
            code = run_cli(
                "track", "--input", str(dets),
                "--config", str(config),
                "--high-score-threshold", "0.3",
            )
        assert code == 0
        assert "overrides" in caplog.text

    def test_env_var_supplies_default_config(self, scene_files, tmp_path, monkeypatch):
        dets, _ = scene_files
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"tracker": {"high_score_threshold": 2.0}}))
        monkeypatch.setenv("BELTRACK_CONFIG", str(config))
        # invalid threshold from env config proves the file was loaded
        assert run_cli("track", "--input", str(dets)) == 2

    def test_unknown_config_key_is_config_error(self, scene_files, tmp_path):
        dets, _ = scene_files
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"tracker": {"not_a_field": 1}}))
        assert run_cli("track", "--input", str(dets), "--config", str(config)) == 2

    def test_unknown_config_section_is_config_error(self, scene_files, tmp_path, capsys):
        dets, truth = scene_files
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"trackr": {"max_frames_lost": 5}}))
        assert run_cli("track", "--input", str(dets), "--config", str(config)) == 2
        assert "unknown config sections: trackr" in capsys.readouterr().err
        # Every verb takes a file with all three known sections.
        config.write_text(json.dumps({"tracker": {}, "aggregation": {}, "simulate": {}}))
        assert run_cli(
            "evaluate", "--detections", str(dets), "--truth", str(truth), "--config", str(config)
        ) == 0
        assert run_cli(
            "simulate", "--output-detections", str(tmp_path / "d.jsonl"),
            "--output-truth", str(tmp_path / "t.jsonl"), "--config", str(config),
        ) == 0

    @pytest.mark.parametrize("fault, message", [
        ("missing", "config file not found: {path}"),
        ("a directory", "config file cannot be read: {path} (Is a directory)"),
        ("unreadable", "config file cannot be read: {path} (Permission denied)"),
        ("not UTF-8", "config file {path} is not valid UTF-8: invalid start byte"),
        ("not JSON", "config file {path} is not valid JSON: Expecting property name"),
    ])
    def test_unusable_config_file_is_config_error(self, scene_files, tmp_path, capsys, fault,
                                                  message):
        # Not UTF-8 once ended in a traceback, and a directory in exit code 1.
        dets, _ = scene_files
        path = tmp_path / "config.json"
        if fault == "a directory":
            path.mkdir()
        elif fault != "missing":
            contents = {"not UTF-8": b'{"tracker": "\xff"}', "not JSON": b"{"}
            path.write_bytes(contents.get(fault, b"{}"))
        # Root reads any file whatever its mode: the read is made to fail.
        denied = PermissionError(13, "Permission denied")
        with mock.patch.object(Path, "read_text", side_effect=denied) if fault == "unreadable" \
                else contextlib.nullcontext():
            code = run_cli("track", "--input", str(dets), "--config", str(path))
        assert code == 2
        assert f"config error: {message.format(path=path)}" in capsys.readouterr().err

    def test_misspelled_aggregation_value_is_config_error(self, scene_files, tmp_path):
        dets, truth = scene_files
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"aggregation": {"tie_break": "bogus"}}))
        assert run_cli("track", "--input", str(dets), "--config", str(config)) == 2
        assert run_cli(
            "evaluate", "--detections", str(dets), "--truth", str(truth), "--config", str(config)
        ) == 2


class TestConfigValueTypes:
    """A config-file value of the wrong JSON type for its field is a
    configuration error, as is a section that is not an object."""

    @pytest.mark.parametrize("config", [
        {"tracker": {"max_frames_lost": "30"}},
        {"tracker": {"high_score_threshold": None}},
        {"tracker": {"max_frames_lost": 2.5}},
        {"tracker": {"min_hits_to_activate": True}},
        {"tracker": []},
        {"aggregation": {"collapse_before_vote": 1}},
        {"aggregation": {"tie_break": 3}},
        {"aggregation": "last"},
    ])
    def test_track_rejects(self, scene_files, tmp_path, capsys, config):
        dets, truth = scene_files
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert run_cli("track", "--input", str(dets), "--config", str(path)) == 2
        assert run_cli(
            "evaluate", "--detections", str(dets), "--truth", str(truth), "--config", str(path)
        ) == 2
        assert "config error: " in capsys.readouterr().err

    @pytest.mark.parametrize("config", [
        {"simulate": {"seed": 2.5}},
        {"simulate": {"n_lanes": "2"}},
        {"simulate": {"defect_category_weights": [1.0, 1.0, "1"]}},
        {"simulate": {"defect_category_weights": 1.0}},
        {"simulate": {"n_objects_per_lane": 2.0}},
        {"simulate": None},
    ])
    def test_simulate_rejects(self, tmp_path, capsys, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code = run_cli(
            "simulate", "--output-detections", str(tmp_path / "d.jsonl"),
            "--output-truth", str(tmp_path / "t.jsonl"), "--config", str(path),
        )
        assert code == 2
        assert "config error: " in capsys.readouterr().err

    def test_message_names_the_field_and_the_type(self, scene_files, tmp_path, capsys):
        dets, _ = scene_files
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"tracker": {"max_frames_lost": "30"}}))
        assert run_cli("track", "--input", str(dets), "--config", str(path)) == 2
        assert "max_frames_lost must be int, got \"30\"" in capsys.readouterr().err

    def test_accepts_integers_for_floats_null_where_optional_and_lists(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"simulate": {
            "seed": 3, "belt_velocity": 5, "n_objects_per_lane": None, "n_frames": 40,
            "defect_category_weights": [1, 2.5, 0],
        }}))
        dets, truth = tmp_path / "d.jsonl", tmp_path / "t.jsonl"
        code = run_cli(
            "simulate", "--output-detections", str(dets), "--output-truth", str(truth),
            "--config", str(path),
        )
        assert code == 0
        path.write_text(json.dumps({
            "tracker": {"new_track_min_score": None, "high_score_threshold": 1},
            "aggregation": {"collapse_before_vote": True, "frame_choice": "first"},
        }))
        assert run_cli("track", "--input", str(dets), "--config", str(path)) == 0


class TestNumCategoriesBelowTwo:
    """A category count below 2 is a configuration error, raised before any
    line of the stream or the truth is read."""

    @pytest.mark.parametrize("num_categories, line", [
        ("1", {"frame": 0, "x": 0, "y": 0, "w": 10, "h": 10, "score": 0.9, "category": 0}),
        ("-3", {"frame": 0, "x": 0, "y": 0, "w": 10, "h": 10, "score": 0.9}),
        ("1", {"frame": 1, "x": 0, "y": 0, "w": 10, "h": 10, "score": 0.9, "category": 1}),
        ("0", {"frame": 0, "x": 0, "y": 0, "w": 10, "h": 10, "score": 0.9, "category": 0}),
    ])
    def test_track(self, tmp_path, capsys, num_categories, line):
        dets = tmp_path / "d.jsonl"
        dets.write_text(json.dumps(line) + "\n")
        assert run_cli("track", "--input", str(dets), "--num-categories", num_categories) == 2
        assert f"num_categories must be >= 2, got {num_categories}" in capsys.readouterr().err

    def test_evaluate(self, scene_files, capsys):
        dets, truth = scene_files
        code = run_cli(
            "evaluate", "--detections", str(dets), "--truth", str(truth), "--num-categories", "1"
        )
        assert code == 2
        assert "num_categories must be >= 2, got 1" in capsys.readouterr().err

    def test_readers_check_before_reading(self, tmp_path):
        missing = tmp_path / "missing.jsonl"
        with pytest.raises(ConfigError, match="num_categories must be >= 2"):
            ingest_detections(missing, num_categories=1)
        with pytest.raises(ConfigError, match="num_categories must be >= 2"):
            read_ground_truth(missing, num_categories=1)


class TestEvaluate:
    def test_scores_against_truth(self, scene_files, tmp_path, capsys):
        dets, truth = scene_files
        out = tmp_path / "eval.json"
        code = run_cli(
            "evaluate", "--detections", str(dets), "--truth", str(truth),
            "--output", str(out),
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["id_switches"] == 0
        assert payload["n_objects"] == 8
        assert payload["detection_ap"] == 1.0

    def test_aggregation_flags_reach_evaluation(self, scene_files, monkeypatch):
        dets, truth = scene_files
        seen, original = [], cli.evaluate_against_truth

        def spy(frames, gt, tracker_config, aggregation, **kwargs):
            seen.append(aggregation)
            return original(frames, gt, tracker_config, aggregation, **kwargs)

        monkeypatch.setattr(cli, "evaluate_against_truth", spy)
        code = run_cli(
            "evaluate", "--detections", str(dets), "--truth", str(truth),
            "--collapse-before-vote", "--tie-break", "lowest_index",
        )
        assert code == 0
        assert seen == [AggregationConfig(tie_break="lowest_index", collapse_before_vote=True)]

    def test_skip_malformed_drops_bad_detection_lines(self, scene_files, tmp_path, capsys):
        # A bad line in the middle of the file and one at its end.
        dets, truth = scene_files
        lines = dets.read_text().splitlines(keepends=True)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join(lines[:5]) + "not json\n" + "".join(lines[5:]) + '{"frame": 1}\n')
        base = ["evaluate", "--detections", str(bad), "--truth", str(truth)]
        assert run_cli(*base) == 1
        assert f"{bad}:6: invalid JSON" in capsys.readouterr().err
        assert run_cli(*base, "--skip-malformed") == 0
        skipped = capsys.readouterr().out
        assert run_cli("evaluate", "--detections", str(dets), "--truth", str(truth)) == 0
        assert skipped == capsys.readouterr().out

    def test_skip_malformed_leaves_the_truth_reader_strict(self, scene_files, tmp_path, capsys):
        dets, truth = scene_files
        bad = tmp_path / "bad_truth.jsonl"
        bad.write_text(truth.read_text() + "not json\n")
        n_lines = len(bad.read_text().splitlines())
        argv = ["evaluate", "--detections", str(dets), "--truth", str(bad), "--skip-malformed"]
        assert run_cli(*argv) == 1
        assert f"{bad}:{n_lines}: invalid JSON" in capsys.readouterr().err

    def test_negative_truth_frame_is_input_error(self, scene_files, tmp_path):
        dets, _ = scene_files
        truth = tmp_path / "truth.jsonl"
        truth.write_text(
            '{"frame": -1, "object_id": 1, "x": 0, "y": 0, "w": 5, "h": 5, "true_category": 0}\n'
        )
        assert run_cli("evaluate", "--detections", str(dets), "--truth", str(truth)) == 1


    def test_out_of_range_truth_category_is_input_error(self, scene_files, tmp_path, capsys):
        dets, _ = scene_files
        truth = tmp_path / "truth.jsonl"
        truth.write_text(
            '{"frame": 0, "object_id": 1, "x": 0, "y": 0, "w": 5, "h": 5, "true_category": 9}\n'
        )
        assert run_cli("evaluate", "--detections", str(dets), "--truth", str(truth)) == 1
        assert f"{truth}:1: category index 9 out of range [0, 4)" in capsys.readouterr().err


    def test_truth_line_with_fractional_numbers_is_input_error(self, scene_files, tmp_path, capsys):
        dets, _ = scene_files
        truth = tmp_path / "truth.jsonl"
        truth.write_text(
            '{"frame": 2.7, "object_id": 1.9, "x": 0, "y": 0, "w": 5, "h": 5, "true_category": 1}\n'
        )
        assert run_cli("evaluate", "--detections", str(dets), "--truth", str(truth)) == 1
        assert f"{truth}:1: frame must be an integer, got 2.7" in capsys.readouterr().err

    def test_object_twice_on_one_frame_is_input_error(self, scene_files, tmp_path, capsys):
        dets, _ = scene_files
        truth = tmp_path / "truth.jsonl"
        truth.write_text(
            '{"frame": 0, "object_id": 1, "x": 0, "y": 0, "w": 5, "h": 5, "true_category": 1}\n'
            '{"frame": 0, "object_id": 1, "x": 9, "y": 0, "w": 5, "h": 5, "true_category": 1}\n'
        )
        assert run_cli("evaluate", "--detections", str(dets), "--truth", str(truth)) == 1
        assert f"input error: {truth}:2: object 1 appears twice on frame 0" in capsys.readouterr().err

    @pytest.mark.parametrize("threshold", ["nan", "0", "-0.1", "1.5"])
    def test_iou_threshold_outside_zero_one_is_config_error(self, scene_files, threshold, capsys):
        dets, truth = scene_files
        code = run_cli(
            "evaluate", "--detections", str(dets), "--truth", str(truth),
            "--iou-threshold", threshold,
        )
        assert code == 2
        assert "iou_threshold must be in (0, 1]" in capsys.readouterr().err

    def test_iou_threshold_one_accepted(self, scene_files, capsys):
        dets, truth = scene_files
        code = run_cli(
            "evaluate", "--detections", str(dets), "--truth", str(truth), "--iou-threshold", "1",
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["n_objects"] == 8


class TestConfigFlags:
    def test_every_config_field_has_exactly_one_flag(self):
        parser = cli.build_parser()
        (verbs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        expected = {
            "track": (TrackerConfig, AggregationConfig),
            "evaluate": (TrackerConfig, AggregationConfig),
            "simulate": (SimConfig,),
        }
        for verb, config_classes in expected.items():
            actions = verbs.choices[verb]._actions
            for config_cls in config_classes:
                for field in dataclasses.fields(config_cls):
                    flags = [a.option_strings for a in actions if a.dest == field.name]
                    assert flags == [["--" + field.name.replace("_", "-")]], (verb, field.name)

    def test_comma_separated_tuple_flag(self, tmp_path):
        dets, truth = tmp_path / "dets.jsonl", tmp_path / "truth.jsonl"
        code = run_cli(
            "simulate", "--output-detections", str(dets), "--output-truth", str(truth),
            "--n-objects-per-lane", "2", "--defect-category-weights", "1,0,0",
            "--defect-probability", "1.0",
        )
        assert code == 0
        categories = {json.loads(line)["true_category"] for line in truth.read_text().splitlines()}
        assert categories == {1}


#: Finite values at and past the edges of what the filter and the overlap
#: arithmetic can hold, mixed with ordinary ones.
EXTREME = [5e-324, 1e-300, 1e-170, 1e-160, 1e-5, 1e10, 1e154, 1e200, 1e300, 1.7976931348623157e308]
coordinates = st.one_of(
    st.floats(-50, 300), st.sampled_from(EXTREME), st.sampled_from([-v for v in EXTREME])
)
sizes = st.one_of(st.floats(1, 60), st.sampled_from(EXTREME))
#: Steps between consecutive frames, past the default 31-frame fast-forward
#: and up to 2**62 (past 2**53, the frames ingest accepts: an input error).
frame_steps = st.sampled_from([0, 1, 1, 1, 2, 3, 32, 2**62])
labels = st.sampled_from(["absent", None, 0, 1, 2, 3])


@st.composite
def detection_streams(draw):
    """JSONL lines of a few boxes seen over a few frames: each line takes one
    of up to three boxes, so tracks form, with extreme finite values, gaps,
    mixed labels and nulls, and now and then a null in a numeric field."""
    boxes = draw(st.lists(st.tuples(coordinates, coordinates, sizes, sizes), min_size=1, max_size=3))
    frame = draw(st.integers(0, 3))
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        frame += draw(frame_steps)
        x, y, w, h = draw(st.sampled_from(boxes))
        record = {"frame": frame, "x": x, "y": y, "w": w, "h": h,
                  "score": draw(st.sampled_from([0.05, 0.3, 0.7, 0.95, 1.0])),
                  "category": draw(labels)}
        if record["category"] == "absent":
            del record["category"]
        if draw(st.integers(0, 19)) == 0:
            record[draw(st.sampled_from(sorted(record)))] = None
        lines.append(json.dumps(record))
    return lines


@st.composite
def config_flags(draw, config_cls):
    """Flags for a random subset of ``config_cls``'s fields, drawn by field
    type; about one value in eight is out of range (a config error)."""
    argv = []
    hints = get_type_hints(config_cls)
    for field in dataclasses.fields(config_cls):
        if not draw(st.booleans()):
            continue
        flag, hint = cli._flag(field.name), hints[field.name]
        if get_origin(hint) is UnionType:
            (hint,) = (arg for arg in get_args(hint) if arg is not type(None))
        if get_origin(hint) is Literal:
            argv += [flag, draw(st.sampled_from(get_args(hint)))]
        elif hint is bool:
            argv.append(flag)
        elif hint is int:
            argv += [flag, str(draw(st.sampled_from([0, 1, 1, 2, 3, 4, 31, 40])))]
        else:
            assert hint is float, (field.name, hint)
            argv += [flag, str(draw(st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.6, 0.8, 1.0, 1.5])))]
    return argv


class TestTrackAnyStreamAnyConfig:
    @settings(max_examples=200, deadline=None)
    @given(
        lines=detection_streams(),
        flags=config_flags(TrackerConfig),
        aggregation_flags=config_flags(AggregationConfig),
        skip_malformed=st.booleans(),
    )
    @example(  # an aspect that overflows to inf
        lines=[json.dumps({"frame": 0, "x": 0, "y": 0, "w": 1e10, "h": 1e-300, "score": 0.9})],
        flags=[], aggregation_flags=[], skip_malformed=False,
    )
    @example(  # an aspect that underflows to 0
        lines=[json.dumps({"frame": 0, "x": 0, "y": 0, "w": 1e-300, "h": 1e300, "score": 0.9})],
        flags=[], aggregation_flags=[], skip_malformed=False,
    )
    def test_exits_0_1_or_2_and_outputs_agree(self, lines, flags, aggregation_flags, skip_malformed):
        with tempfile.TemporaryDirectory() as tmp:
            dets, verdicts, summary = (Path(tmp) / name for name in ("d.jsonl", "v.jsonl", "s.json"))
            dets.write_text("".join(line + "\n" for line in lines))
            argv = ["track", "--input", str(dets), "--output-verdicts", str(verdicts),
                    "--output-summary", str(summary), *flags, *aggregation_flags]
            code = run_cli(*argv, *(["--skip-malformed"] if skip_malformed else []))
            assert code in (0, 1, 2)
            if code != 0:
                return
            records = [json.loads(line) for line in verdicts.read_text().splitlines()]
            payload = json.loads(summary.read_text())
            # ``report`` reads back every verdict file ``track`` writes; an
            # empty one gives the zeros of the summary.
            reported = Path(tmp) / "r.json"
            assert run_cli("report", "--verdicts", str(verdicts), "--output", str(reported)) == 0
            report = json.loads(reported.read_text())
        assert payload["n_labeled_tracks"] == len(records)
        n_defect = sum(record["binary"] == "defect" for record in records)
        assert payload["aggregated"]["n_defect_tracks"] == n_defect
        stability = payload["frame_wise"]["per_track_stability"]
        assert {str(r["track_id"]): r["stability_frame_wise"] for r in records} == stability
        aggregated = payload["aggregated"]
        assert report["n_tracks"] == payload["n_labeled_tracks"] == aggregated["n_total_tracks"]
        assert report["n_defect_tracks"] == aggregated["n_defect_tracks"]
        assert report["defect_ratio"] == aggregated["defect_ratio"]
        assert report["mean_stability_frame_wise"] == pytest.approx(
            payload["frame_wise"]["mean_stability"], rel=1e-12
        )
        if not records:
            assert report["mean_track_length"] == 0.0


class TestReport:
    def test_summarizes_verdicts(self, scene_files, tmp_path, capsys):
        dets, _ = scene_files
        verdicts = tmp_path / "verdicts.jsonl"
        assert run_cli("track", "--input", str(dets), "--output-verdicts", str(verdicts)) == 0
        capsys.readouterr()
        assert run_cli("report", "--verdicts", str(verdicts)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_tracks"] == 8
        assert 0.0 <= payload["defect_ratio"] <= 1.0

    def test_missing_verdicts_is_input_error(self, tmp_path):
        assert run_cli("report", "--verdicts", str(tmp_path / "no.jsonl")) == 1

    def test_verdicts_of_a_run_without_labeled_tracks_summarize_to_zeros(self, tmp_path, capsys):
        dets, verdicts = tmp_path / "dets.jsonl", tmp_path / "verdicts.jsonl"
        dets.write_text(
            '{"frame": 0, "x": 0, "y": 0, "w": 10, "h": 10, "score": 0.9, "category": null}\n'
        )
        assert run_cli("track", "--input", str(dets), "--output-verdicts", str(verdicts)) == 0
        assert verdicts.read_text() == ""
        capsys.readouterr()
        assert run_cli("report", "--verdicts", str(verdicts)) == 0
        assert json.loads(capsys.readouterr().out) == {
            "n_tracks": 0, "n_defect_tracks": 0, "defect_ratio": 0.0,
            "mean_track_length": 0.0, "mean_stability_frame_wise": 0.0,
        }

    @pytest.mark.parametrize(
        "bad_line, message",
        [
            ("[1, 2]", "expected a JSON object"),
            ('{"track_id": 1}', "missing field 'binary'"),
            ('{"track_id": 1, "binary": "defect"}', "missing field 'k'"),
            ('{"track_id": 1, "binary": "bad", "k": 3}', "'binary' must be normal or defect"),
            ('{"track_id": 1, "binary": "defect", "k": "3"}', "'binary' must be normal or defect"),
            *(
                (f'{{"track_id": 1, "binary": "defect", "k": {k}}}',
                 "'binary' must be normal or defect, 'k' an integer >= 1")
                for k in (0, -4, "true")
            ),
            *(
                (f'{{"track_id": 1, "category": {category}, "binary": "defect", "k": 3}}',
                 "'category' must be 0 for a normal verdict and above 0 for a defect, "
                 f"got {category} for defect")
                for category in (0, -1, "null", '"2"', "true", "1.0")
            ),
            ('{"track_id": 1, "category": 2, "binary": "normal", "k": 3}',
             "'category' must be 0 for a normal verdict and above 0 for a defect, "
             "got 2 for normal"),
            *(
                (
                    f'{{"track_id": 1, "binary": "defect", "k": 3, "stability_frame_wise": {value}}}',
                    "'stability_frame_wise' must be a finite number",
                )
                for value in ('"0.5"', "null", "true", "NaN", "Infinity")
            ),
            *(
                (f'{{"track_id": 2, "binary": "defect", "k": 3, "votes": {votes}}}',
                 "'votes' must be a list of integers >= 0 summing to 'k' (3), "
                 f"got {votes}")
                for votes in ("[1, 0]", "[0, 4, -1]", "[1.0, 2]", "[true, 2]", '"3"', "null", "3")
            ),
            *(
                (f'{{"track_id": {track_id}, "binary": "defect", "k": 3}}',
                 f"'track_id' must be an integer >= 0, got {track_id}")
                for track_id in ('"x"', "-1", "2.0", "true", "null")
            ),
            ('{"track_id": 1, "category": 2, "binary": "defect", "k": 5}',
             "'track_id' 1 repeats an earlier line's"),
            *(
                (f'{{"track_id": 2, "binary": "defect", "k": 2, "stability_frame_wise": {value}}}',
                 f"'stability_frame_wise' must be a finite number in [0, 1], got {value}")
                for value in ("7.5", "-3", "1.0000000000000002", "-0.1", "2")
            ),
            *(
                (f'{{"track_id": 2, {category}"binary": "{binary}", "k": 3, "votes": {votes}}}',
                 f"'votes' must have one count per category, at least 2, got {votes} "
                 f"for category {number}")
                for category, binary, votes, number in (
                    ("", "normal", "[3]", 0), ("", "defect", "[3]", 1),
                    ('"category": 3, ', "defect", "[1, 1, 1]", 3),
                    ('"category": 5, ', "defect", "[0, 1, 1, 1]", 5),
                )
            ),
            *(
                (f'{{"track_id": 2, {category}"binary": "{binary}", "k": 3, "votes": {votes}}}',
                 f"no tie rule votes category {number} from {votes}")
                for category, binary, votes, number in (
                    ('"category": 0, ', "normal", "[0, 3]", 0),
                    ('"category": 0, ', "normal", "[1, 0, 2]", 0),
                    ("", "normal", "[1, 2, 0]", 0),
                    ('"category": 2, ', "defect", "[1, 1, 1]", 2),
                    ('"category": 1, ', "defect", "[2, 1, 0]", 1),
                    ("", "defect", "[2, 0, 1]", 1),
                )
            ),
        ],
    )
    def test_malformed_verdict_line_is_input_error(self, tmp_path, capsys, bad_line, message):
        verdicts = tmp_path / "verdicts.jsonl"
        good = '{"track_id": 1, "binary": "normal", "k": 3}'
        verdicts.write_text(good + "\n" + bad_line + "\n", encoding="utf-8")
        assert run_cli("report", "--verdicts", str(verdicts)) == 1
        assert f"{verdicts}:2: {message}" in capsys.readouterr().err

    def test_contradictory_lines_are_not_summarized(self, tmp_path, capsys):
        # Both files were once summarized, the first with a mean frame-wise
        # stability of 2.25, the second as one normal track.
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        first.write_text(
            '{"track_id": 1, "binary": "normal", "k": 3, "stability_frame_wise": 7.5}\n'
            '{"track_id": 2, "binary": "defect", "category": 1, "k": 2, '
            '"stability_frame_wise": -3}\n',
            encoding="utf-8",
        )
        second.write_text(
            '{"track_id": 1, "category": 0, "binary": "normal", "k": 3, "votes": [0, 3]}\n',
            encoding="utf-8",
        )
        for path, message in (
            (first, "'stability_frame_wise' must be a finite number in [0, 1], got 7.5"),
            (second, "no tie rule votes category 0 from [0, 3]"),
        ):
            assert run_cli("report", "--verdicts", str(path)) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"{path}:1: {message}" in captured.err

    def test_defect_without_a_category_takes_any_winning_defect(self, tmp_path, capsys):
        verdicts = tmp_path / "verdicts.jsonl"
        verdicts.write_text(
            '{"track_id": 1, "binary": "defect", "k": 3, "votes": [1, 0, 2]}\n'
            '{"track_id": 2, "binary": "normal", "k": 4, "votes": [2, 1, 1]}\n',
            encoding="utf-8",
        )
        assert run_cli("report", "--verdicts", str(verdicts)) == 0
        assert json.loads(capsys.readouterr().out)["n_defect_tracks"] == 1

    def test_every_vote_is_accepted_and_only_those(self, tmp_path, capsys):
        # Every count vector over 2-4 categories with counts 0-3 (333 tracks),
        # voted under both tie rules with and without collapse_first: the
        # verdict file ``track`` would write reads back, and a line naming a
        # category no rule voted from its counts is rejected.
        configs = list(itertools.product(("prefer_defect", "lowest_index"), (False, True)))
        for num_categories in (2, 3, 4):
            vectors = [v for v in itertools.product(range(4), repeat=num_categories) if sum(v)]
            counts = np.array([sum(v) for v in vectors])
            tracks = TrackTable(
                np.arange(len(vectors)), counts, np.concatenate([np.arange(k) for k in counts]),
                np.tile([0.0, 0.0, 10.0, 10.0], (counts.sum(), 1)),
                np.concatenate([np.repeat(np.arange(num_categories), v) for v in vectors]),
                num_categories,
            )
            voted = [set() for _ in vectors]
            for tie_break, collapse_first in configs:
                verdicts = majority_vote(tracks, tie_break, collapse_first)
                assert verdicts.votes.tolist() == [list(v) for v in vectors]
                for winners, category in zip(voted, verdicts.categories.tolist()):
                    winners.add(category)
                path = tmp_path / f"{num_categories}-{tie_break}-{collapse_first}.jsonl"
                write_verdicts(PipelineResult(verdicts, tracks, *stability_report(tracks)), path)
                assert run_cli("report", "--verdicts", str(path)) == 0
                assert json.loads(capsys.readouterr().out)["n_tracks"] == len(vectors)
            for vector, winners in zip(vectors, voted):
                for category in range(num_categories):
                    if category in winners:
                        cli._check_vote(list(vector), category, True, "line")
                    else:
                        with pytest.raises(InputError, match="no tie rule votes"):
                            cli._check_vote(list(vector), category, True, "line")

    def test_a_line_without_a_category_is_checked_by_its_side(self):
        # Every count vector over 2-4 categories with counts 0-3: a line that
        # names no category takes the side of its ``binary``, accepted when
        # some tie rule, with or without collapse_first, votes that side.
        configs = list(itertools.product(("prefer_defect", "lowest_index"), (False, True)))
        for num_categories in (2, 3, 4):
            vectors = [v for v in itertools.product(range(4), repeat=num_categories) if sum(v)]
            counts = np.array([sum(v) for v in vectors])
            tracks = TrackTable(
                np.arange(len(vectors)), counts, np.concatenate([np.arange(k) for k in counts]),
                np.tile([0.0, 0.0, 10.0, 10.0], (counts.sum(), 1)),
                np.concatenate([np.repeat(np.arange(num_categories), v) for v in vectors]),
                num_categories,
            )
            sides = [set() for _ in vectors]
            for tie_break, collapse_first in configs:
                verdicts = majority_vote(tracks, tie_break, collapse_first)
                for voted, category in zip(sides, verdicts.categories.tolist()):
                    voted.add(int(category > 0))
            for vector, voted in zip(vectors, sides):
                for side in (0, 1):
                    if side in voted:
                        cli._check_vote(list(vector), side, False, "line")
                    else:
                        with pytest.raises(InputError, match="no tie rule votes"):
                            cli._check_vote(list(vector), side, False, "line")

    def test_no_length_below_one_reaches_the_summary(self, tmp_path, capsys):
        # A negative and a zero length once gave a mean track length of -2.0.
        verdicts = tmp_path / "verdicts.jsonl"
        verdicts.write_text(
            '{"track_id": 1, "binary": "normal", "k": -4}\n'
            '{"track_id": 2, "binary": "normal", "k": 0}\n',
            encoding="utf-8",
        )
        assert run_cli("report", "--verdicts", str(verdicts)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{verdicts}:1: 'binary' must be normal or defect, 'k' an integer >= 1" in captured.err

    def test_inconsistent_verdicts_are_not_summarized(self, tmp_path, capsys):
        # These three lines were once summarized as three tracks, two defect.
        verdicts = tmp_path / "verdicts.jsonl"
        verdicts.write_text(
            '{"track_id": 1, "category": 0, "binary": "normal", "k": 3, "votes": [1, 0]}\n'
            '{"track_id": 1, "category": 2, "binary": "defect", "k": 5}\n'
            '{"track_id": "x", "binary": "defect", "k": 5}\n',
            encoding="utf-8",
        )
        assert run_cli("report", "--verdicts", str(verdicts)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{verdicts}:1: 'votes' must be a list of integers >= 0 summing to 'k'" in captured.err

    def test_verdict_file_not_utf8_is_input_error(self, tmp_path, capsys):
        verdicts = tmp_path / "verdicts.jsonl"
        good = b'{"track_id": 1, "binary": "normal", "k": 3}'
        verdicts.write_bytes(good + b"\n" + b'{"track_id": 2, "binary": "\xff", "k": 3}\n')
        assert run_cli("report", "--verdicts", str(verdicts)) == 1
        assert f"{verdicts}:2: not valid UTF-8 (byte 0xff)" in capsys.readouterr().err


class TestLateLine:
    """A line 65 frames behind the lines before it is a bad line for every
    verb that reads a detection file, JSONL or MOT text: ``track`` and
    ``evaluate`` stop on it with the same message, and ``track
    --skip-malformed`` logs it in those words and drops it (``evaluate``
    has no such flag)."""

    @pytest.mark.parametrize("mot", [False, True], ids=["jsonl", "mot"])
    def test_track_and_evaluate_agree(self, tmp_path, capsys, caplog, mot):
        frames = [*range(100), 34]
        if mot:
            path = tmp_path / "dets.txt"
            lines = [f"{frame},-1,{5 * frame},0,20,20,0.9" for frame in frames]
        else:
            path = tmp_path / "dets.jsonl"
            lines = [json.dumps({"frame": frame, "x": 5 * frame, "y": 0, "w": 20, "h": 20,
                                 "score": 0.9, "category": 0}) for frame in frames]
        path.write_text("".join(text + "\n" for text in lines))
        truth = tmp_path / "truth.jsonl"
        truth.write_text("")
        flags = ["--mot"] if mot else []
        fault = f"{path}:101: frame 34 is more than 64 frames behind frame 99 of an earlier line"
        assert run_cli("track", "--input", str(path), *flags) == 1
        assert f"input error: {fault}" in capsys.readouterr().err
        assert run_cli("evaluate", "--detections", str(path), "--truth", str(truth), *flags) == 1
        assert f"input error: {fault}" in capsys.readouterr().err
        summary = tmp_path / "summary.json"
        with caplog.at_level("WARNING", logger="beltrack"):
            code = run_cli("track", "--input", str(path), *flags, "--skip-malformed",
                           "--output-summary", str(summary))
        assert code == 0
        assert [record.getMessage() for record in caplog.records] == [f"skipping line: {fault}"]
        assert json.loads(summary.read_text())["n_tracks"] == 1


class TestMotInput:
    def test_track_reads_mot_text(self, tmp_path):
        mot = tmp_path / "dets.txt"
        rows = [f"{t},1,{5.0 * t},0,20,20,0.9,-1,-1,-1" for t in range(1, 8)]
        mot.write_text("".join(r + "\n" for r in rows))
        summary = tmp_path / "summary.json"
        code = run_cli("track", "--input", str(mot), "--mot", "--output-summary", str(summary))
        assert code == 0
        payload = json.loads(summary.read_text())
        assert payload["n_tracks"] == 1
        assert payload["n_unlabeled_tracks"] == 1

    def test_skip_malformed_skips_a_bad_line(self, tmp_path, capsys, caplog):
        mot = tmp_path / "dets.txt"
        mot.write_text("0,1,0,0,20,20,0.9\n1,1,x,0,20,20,0.9\n2,1,10,0,20,20,0.9\n")
        assert run_cli("track", "--input", str(mot), "--mot") == 1
        assert f"{mot}:2: could not convert string to float: 'x'" in capsys.readouterr().err
        summary = tmp_path / "summary.json"
        with caplog.at_level("WARNING", logger="beltrack"):
            code = run_cli(
                "track", "--input", str(mot), "--mot", "--skip-malformed",
                "--output-summary", str(summary),
            )
        assert code == 0
        assert f"skipping line: {mot}:2:" in caplog.text
        assert json.loads(summary.read_text())["n_tracks"] == 1


class TestUnusablePaths:
    """An input path that cannot be read, an input line nested too deeply
    to parse, and an output path in a missing directory each end a verb
    with exit code 1 and a message; each once ended in a traceback."""

    @pytest.mark.parametrize("verb", ["track", "track --mot", "evaluate", "report"])
    def test_directory_as_input(self, scene_files, tmp_path, capsys, verb):
        dets, truth = scene_files
        argv = {
            "track": ["track", "--input", str(tmp_path)],
            "track --mot": ["track", "--mot", "--input", str(tmp_path)],
            "evaluate": ["evaluate", "--detections", str(dets), "--truth", str(tmp_path)],
            "report": ["report", "--verdicts", str(tmp_path)],
        }[verb]
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and f"file cannot be read: {tmp_path}" in err

    @pytest.mark.parametrize("verb", ["track", "evaluate", "report"])
    def test_line_nested_too_deeply(self, scene_files, tmp_path, capsys, verb):
        dets, truth = scene_files
        bad = tmp_path / "bad.jsonl"
        lines = (truth if verb == "evaluate" else dets).read_text().splitlines()[:3]
        if verb == "report":
            lines = ['{"track_id": 1, "binary": "normal", "k": 3}']
        bad.write_text("\n".join([*lines, "[" * 200_000]) + "\n", encoding="utf-8")
        argv = {
            "track": ["track", "--input", str(bad)],
            "evaluate": ["evaluate", "--detections", str(dets), "--truth", str(bad)],
            "report": ["report", "--verdicts", str(bad)],
        }[verb]
        assert run_cli(*argv) == 1
        where = f"{bad}:{len(lines) + 1}"
        assert f"input error: {where}: invalid JSON (nested too deeply)" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["simulate", "track", "evaluate", "report"])
    def test_output_in_a_missing_directory(self, scene_files, tmp_path, capsys, verb):
        dets, truth = scene_files
        verdicts = tmp_path / "verdicts.jsonl"
        assert run_cli("track", "--input", str(dets), "--output-verdicts", str(verdicts)) == 0
        capsys.readouterr()
        out = tmp_path / "missing" / "out.json"
        argv = {
            "simulate": ["simulate", "--output-detections", str(out), "--output-truth", str(truth),
                         "--n-frames", "5"],
            "track": ["track", "--input", str(dets), "--output-verdicts", str(out)],
            "evaluate": ["evaluate", "--detections", str(dets), "--truth", str(truth),
                         "--output", str(out)],
            "report": ["report", "--verdicts", str(verdicts), "--output", str(out)],
        }[verb]
        assert run_cli(*argv) == 1
        assert f"error: [Errno 2] No such file or directory: '{out}'" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["simulate", "track", "evaluate", "report"])
    def test_output_fails_before_any_input_is_read_and_leaves_no_file(
        self, tmp_path, capsys, verb
    ):
        # Every input is missing, and so is one output's directory: the
        # output fails first, and no other output is made. ``simulate``
        # once left its detection file behind, and ``evaluate`` and
        # ``report`` once read their inputs first.
        missing = str(tmp_path / "missing.jsonl")
        good, bad = str(tmp_path / "out.jsonl"), tmp_path / "missing" / "out.json"
        argv = {
            "simulate": ["simulate", "--output-detections", good, "--output-truth", str(bad),
                         "--n-frames", "5"],
            "track": ["track", "--input", missing, "--output-verdicts", good,
                      "--output-summary", str(bad)],
            "evaluate": ["evaluate", "--detections", missing, "--truth", missing,
                         "--output", str(bad)],
            "report": ["report", "--verdicts", missing, "--output", str(bad)],
        }[verb]
        assert run_cli(*argv) == 1
        assert f"error: [Errno 2] No such file or directory: '{bad}'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestCollidingPaths:
    """An output that is the same file as an input or as another output of
    the same run is a config error naming both paths, raised before any file
    is read or made; each case once exited 0, one file overwriting the
    other."""

    CASES = {
        "simulate outputs": ["simulate", "--output-detections", "{x}", "--output-truth", "{x}"],
        "track outputs": ["track", "--input", "{dets}", "--output-verdicts", "{x}",
                          "--output-summary", "{x}"],
        "track input": ["track", "--input", "{dets}", "--output-verdicts", "{dets}"],
        "evaluate detections": ["evaluate", "--detections", "{dets}", "--truth", "{truth}",
                                "--output", "{dets}"],
        "evaluate truth": ["evaluate", "--detections", "{dets}", "--truth", "{truth}",
                           "--output", "{truth}"],
        "report input": ["report", "--verdicts", "{dets}", "--output", "{dets}"],
    }

    @pytest.mark.parametrize("case", CASES)
    def test_same_path(self, scene_files, tmp_path, capsys, case):
        dets, truth = scene_files
        before = {path: path.read_bytes() for path in tmp_path.iterdir()}
        names = {"x": tmp_path / "x.jsonl", "dets": dets, "truth": truth}
        argv = [arg.format(**names) for arg in self.CASES[case]]
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: output ") and "is the same file as" in err
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("link", ["spelled", "symlink", "hard link"])
    def test_other_names_of_the_input(self, scene_files, tmp_path, capsys, link):
        dets, _ = scene_files
        other = tmp_path / "other.jsonl"
        if link == "spelled":
            other = tmp_path / "sub" / ".." / dets.name
        elif link == "symlink":
            other.symlink_to(dets)
        else:
            os.link(dets, other)
        data = dets.read_bytes()
        assert run_cli("track", "--input", str(dets), "--output-verdicts", str(other)) == 2
        err = capsys.readouterr().err
        assert f"config error: output {other} is the same file as input {dets}" in err
        assert dets.read_bytes() == data


class TestConfigFileAsOutput:
    """An output that is the run's config file, named by ``--config`` or by
    ``BELTRACK_CONFIG``, is a config error naming both paths, raised before
    any file is read or made; it once exited 0 and replaced the config file."""

    CASES = {
        "track summary": ["track", "--input", "{dets}", "--output-summary", "{config}"],
        "track verdicts": ["track", "--input", "{dets}", "--output-verdicts", "{config}"],
        "evaluate": ["evaluate", "--detections", "{dets}", "--truth", "{truth}",
                     "--output", "{config}"],
        "simulate": ["simulate", "--output-detections", "{config}", "--output-truth", "{truth}"],
    }

    @pytest.mark.parametrize("source", ["flag", "environment"])
    @pytest.mark.parametrize("case", CASES)
    def test_rejected(self, scene_files, tmp_path, capsys, monkeypatch, case, source):
        dets, truth = scene_files
        config = tmp_path / "config.json"
        config.write_text('{"tracker": {"max_frames_lost": 5}}\n')
        argv = [arg.format(dets=dets, truth=truth, config=config) for arg in self.CASES[case]]
        if source == "flag":
            argv += ["--config", str(config)]
        else:
            monkeypatch.setenv("BELTRACK_CONFIG", str(config))
        before = {path: path.read_bytes() for path in tmp_path.iterdir()}
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert f"config error: output {config} is the same file as config {config}" in err
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_other_name_of_the_config(self, scene_files, tmp_path, capsys):
        dets, _ = scene_files
        config = tmp_path / "config.json"
        config.write_text("{}\n")
        other = tmp_path / "link.json"
        other.symlink_to(config)
        argv = ["track", "--input", str(dets), "--config", str(config), "--output-summary", str(other)]
        assert run_cli(*argv) == 2
        assert f"output {other} is the same file as config {config}" in capsys.readouterr().err
        assert config.read_text() == "{}\n"

    def test_a_config_beside_the_outputs_is_read(self, scene_files, tmp_path):
        dets, _ = scene_files
        config = tmp_path / "config.json"
        config.write_text("{}\n")
        summary = tmp_path / "summary.json"
        argv = ["track", "--input", str(dets), "--config", str(config), "--output-summary", str(summary)]
        assert run_cli(*argv) == 0
        assert json.loads(summary.read_text())["n_tracks"] > 0


class TestInstalledEntryPoint:
    def test_console_script_help(self):
        # The child imports the same beltrack sources as this test run.
        source_root = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [source_root, os.environ.get("PYTHONPATH")])
        )}
        result = subprocess.run(
            [sys.executable, "-m", "beltrack.cli", "--help"],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0
        assert "track" in result.stdout and "simulate" in result.stdout


class TestRuntimeWithoutScipy:
    # The child cannot import scipy; it imports beltrack and runs three verbs.
    SCRIPT = """
import sys
sys.modules["scipy"] = None
import beltrack, beltrack.cli
out = sys.argv[1]
dets, truth = out + "/dets.jsonl", out + "/truth.jsonl"
verbs = [
    ["simulate", "--output-detections", dets, "--output-truth", truth,
     "--seed", "3", "--n-lanes", "2", "--n-objects-per-lane", "3", "--frame-width", "150"],
    ["track", "--input", dets, "--output-summary", out + "/summary.json"],
    ["evaluate", "--detections", dets, "--truth", truth],
]
for argv in verbs:
    code = beltrack.cli.main(argv)
    if code != 0:
        sys.exit(f"{argv[0]} exited {code}")
"""

    def test_simulate_track_evaluate_without_scipy(self, tmp_path):
        source_root = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [source_root, os.environ.get("PYTHONPATH")])
        )}
        result = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, str(tmp_path)],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0, result.stderr
        assert json.loads((tmp_path / "summary.json").read_text())["n_tracks"] > 0
