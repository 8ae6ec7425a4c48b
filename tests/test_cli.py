import argparse
import dataclasses
import json
import subprocess
import sys

import pytest

import beltrack.cli as cli
from beltrack import AggregationConfig, SimConfig, TrackerConfig
from beltrack.cli import main


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

    def test_missing_config_file_is_config_error(self, scene_files, tmp_path):
        dets, _ = scene_files
        code = run_cli("track", "--input", str(dets), "--config", str(tmp_path / "no.json"))
        assert code == 2

    def test_misspelled_aggregation_value_is_config_error(self, scene_files, tmp_path):
        dets, truth = scene_files
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"aggregation": {"tie_break": "bogus"}}))
        assert run_cli("track", "--input", str(dets), "--config", str(config)) == 2
        assert run_cli(
            "evaluate", "--detections", str(dets), "--truth", str(truth), "--config", str(config)
        ) == 2


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

    def test_negative_truth_frame_is_input_error(self, scene_files, tmp_path):
        dets, _ = scene_files
        truth = tmp_path / "truth.jsonl"
        truth.write_text(
            '{"frame": -1, "object_id": 1, "x": 0, "y": 0, "w": 5, "h": 5, "true_category": 0}\n'
        )
        assert run_cli("evaluate", "--detections", str(dets), "--truth", str(truth)) == 1


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

    @pytest.mark.parametrize(
        "bad_line, message",
        [
            ("[1, 2]", "expected a JSON object"),
            ('{"track_id": 1}', "missing field 'binary'"),
            ('{"track_id": 1, "binary": "defect"}', "missing field 'k'"),
            ('{"track_id": 1, "binary": "bad", "k": 3}', "'binary' must be normal or defect"),
            ('{"track_id": 1, "binary": "defect", "k": "3"}', "'binary' must be normal or defect"),
        ],
    )
    def test_malformed_verdict_line_is_input_error(self, tmp_path, capsys, bad_line, message):
        verdicts = tmp_path / "verdicts.jsonl"
        good = '{"track_id": 1, "binary": "normal", "k": 3}'
        verdicts.write_text(good + "\n" + bad_line + "\n", encoding="utf-8")
        assert run_cli("report", "--verdicts", str(verdicts)) == 1
        assert f"{verdicts}:2: {message}" in capsys.readouterr().err


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


class TestInstalledEntryPoint:
    def test_console_script_help(self):
        result = subprocess.run(
            [sys.executable, "-m", "beltrack.cli", "--help"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert "track" in result.stdout and "simulate" in result.stdout
