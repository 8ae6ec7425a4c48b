"""Command-line interface.

Verbs: ``track`` runs the pipeline on a detection stream, ``simulate``
writes synthetic scene files, ``evaluate`` scores a stream against a
ground-truth file, and ``report`` summarizes existing verdict files.

Every config field has exactly one flag, generated from its dataclass, and
a config-file equivalent (JSON with ``tracker``, ``simulate``, and
``aggregation`` sections); values from the config file win over conflicting
flags, with a warning. The ``BELTRACK_CONFIG`` environment variable names a
default config file.

Exit codes: 0 success, 1 input error or an output file that cannot be
written (its directory is missing, say), 2 configuration error, such as an
output that is the same file as an input, the config file or another output.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path
from types import UnionType
from typing import Literal, get_args, get_origin, get_type_hints

import numpy as np

from .errors import ConfigError, InputError
from .aggregation import TieBreak, elected
from .io import ingest_detections, read_ground_truth, read_records
from .model import DEFAULT_NUM_CATEGORIES
from .pipeline import (
    AggregationConfig,
    PipelineRun,
    evaluate_against_truth,
    run_pipeline,
    same_file,
    simulate_to_files,
    staged_outputs,
)
from .simulate import SimConfig
from .tracker import TrackerConfig

logger = logging.getLogger("beltrack")

#: Fields every verdict line must carry for ``report``.
_VERDICT_FIELDS = ("track_id", "binary", "k")

#: Config-file section (and flag-group title) of each config dataclass.
_SECTIONS = {TrackerConfig: "tracker", AggregationConfig: "aggregation", SimConfig: "simulate"}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _field_types(config_cls: type) -> dict[str, tuple[object, bool]]:
    """Each field's type (``X | None`` as X) and whether it takes None."""
    return {
        name: (next(arg for arg in get_args(hint) if arg is not type(None)), True)
        if get_origin(hint) is UnionType else (hint, False)
        for name, hint in get_type_hints(config_cls).items()
    }


def _add_config_flags(parser: argparse.ArgumentParser, config_cls: type):
    """One flag per field of ``config_cls``, parsed according to its type:
    a Literal gives choices, a bool a valueless switch, ``X | None`` parses
    as X, and a tuple as comma-separated values."""
    group = parser.add_argument_group(_SECTIONS[config_cls])
    for name, (hint, _) in _field_types(config_cls).items():
        flag = _flag(name)
        if get_origin(hint) is Literal:
            group.add_argument(flag, choices=get_args(hint))
        elif hint is bool:
            group.add_argument(flag, action="store_const", const=True, default=None)
        elif get_origin(hint) is tuple:
            item = get_args(hint)[0]
            group.add_argument(
                flag,
                type=lambda text, item=item: tuple(item(v) for v in text.split(",")),
                metavar="V1,V2,...",
            )
        else:
            group.add_argument(flag, type=hint)


#: The Python types of the JSON values a config-file entry of each field
#: type may hold: a float takes an integer too, and no number takes a bool.
_JSON_TYPES = {bool: (bool,), int: (int,), float: (int, float), str: (str,)}


def _config_value(name: str, value, hint, optional: bool):
    """A config-file value as its field takes it (a list as a tuple), or
    ``ConfigError`` if its JSON type does not fit the field's type. A
    Literal's choices are left to its dataclass to check."""
    many = get_origin(hint) is tuple  # a list of values of its item type
    kind = get_args(hint)[0] if many else str if get_origin(hint) is Literal else hint
    if many and type(value) is list and all(type(item) in _JSON_TYPES[kind] for item in value):
        return tuple(value)
    if (not many and type(value) in _JSON_TYPES[kind]) or (value is None and optional):
        return value
    what = ("a list of " if many else "") + kind.__name__ + (" or null" if optional else "")
    raise ConfigError(f"{name} must be {what}, got {json.dumps(value)}")


def _load_config_file(args: argparse.Namespace, *outputs: str | None) -> dict:
    """The config file's sections, ``{}`` without one; ``ConfigError`` if one
    of the run's ``outputs`` is the config file."""
    path = args.config or os.environ.get("BELTRACK_CONFIG")
    if not path:
        return {}
    for output in filter(None, outputs):
        if same_file(Path(output), Path(path)):
            raise ConfigError(f"output {output} is the same file as config {path}")
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as exc:  # a directory, say
        raise ConfigError(f"config file cannot be read: {path} ({exc.strerror})") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid UTF-8: {exc.reason}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must contain a JSON object")
    unknown = set(data) - set(_SECTIONS.values())
    if unknown:
        raise ConfigError(f"unknown config sections: {', '.join(sorted(unknown))}")
    return data


def _resolve(section: dict, args: argparse.Namespace, types: dict) -> dict:
    """Merge config-file section and CLI flags; the file wins conflicts."""
    unknown = set(section) - set(types)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    merged = {}
    for name, (hint, optional) in types.items():
        cli_value = getattr(args, name, None)
        if name in section:
            value = _config_value(name, section[name], hint, optional)
            if cli_value is not None and value != cli_value:
                logger.warning(
                    "config file overrides %s=%r (flag gave %r)", name, value, cli_value
                )
            merged[name] = value
        elif cli_value is not None:
            merged[name] = cli_value
    return merged


def _build_config(config_cls: type, config_file: dict, args):
    section = config_file.get(_SECTIONS[config_cls], {})
    if type(section) is not dict:
        raise ConfigError(f"config section {_SECTIONS[config_cls]!r} must be a JSON object")
    return config_cls(**_resolve(section, args, _field_types(config_cls)))


def _cmd_track(args) -> int:
    config_file = _load_config_file(args, args.output_verdicts, args.output_summary)
    run = PipelineRun(
        input_path=args.input,
        tracker_config=_build_config(TrackerConfig, config_file, args),
        aggregation=_build_config(AggregationConfig, config_file, args),
        verdicts_path=args.output_verdicts,
        summary_path=args.output_summary,
        skip_malformed=args.skip_malformed,
        mot_format=args.mot,
        num_categories=args.num_categories,
    )
    result = run_pipeline(run)
    verdicts, labeled = result.verdicts, max(len(result.verdicts), 1)
    print(
        f"{len(result.tracks)} tracks ({len(verdicts)} labeled), aggregated defect ratio "
        f"{np.count_nonzero(verdicts.categories) / labeled:.4f}, "
        f"frame-wise mean stability {result.frame_wise_stability.sum() / labeled:.4f}"
    )
    return 0


def _cmd_simulate(args) -> int:
    config_file = _load_config_file(args, args.output_detections, args.output_truth)
    sim = _build_config(SimConfig, config_file, args)
    n_objects, n_frames = simulate_to_files(sim, args.output_detections, args.output_truth)
    print(
        f"wrote {n_objects} objects over {n_frames} non-empty frames to "
        f"{args.output_detections} / {args.output_truth}"
    )
    return 0


def _cmd_evaluate(args) -> int:
    config_file = _load_config_file(args, args.output)
    tracker_config = _build_config(TrackerConfig, config_file, args)
    aggregation = _build_config(AggregationConfig, config_file, args)
    with staged_outputs(args.output, inputs=[args.detections, args.truth]) as (output,):
        detections = ingest_detections(
            args.detections, skip_malformed=args.skip_malformed,
            num_categories=args.num_categories, mot=args.mot,
        )
        gt = read_ground_truth(args.truth, num_categories=args.num_categories)
        evaluation = evaluate_against_truth(
            detections, gt, tracker_config, aggregation, iou_threshold=args.iou_threshold
        )
        text = json.dumps(dataclasses.asdict(evaluation), indent=2, sort_keys=True)
        if output:
            output.write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


def _check_vote(votes: list[int], category: int, named: bool, where: str):
    """``InputError`` unless one of ``majority_vote``'s tie rules, with or
    without ``collapse_first``, elects ``category`` from ``votes``, or, if
    the line ``named`` no category, a category on the same side of normal
    and defect."""
    if len(votes) < 2 or category >= len(votes):
        raise InputError(
            f"{where}: 'votes' must have one count per category, at least 2, "
            f"got {json.dumps(votes)} for category {category}"
        )
    row, rules = np.array([votes]), get_args(TieBreak)
    choices = [elected(row, rule, collapse)[0] for rule in rules for collapse in (False, True)]
    if not any(c == category if named else (c > 0) == (category > 0) for c in choices):
        raise InputError(f"{where}: no tie rule votes category {category} from {json.dumps(votes)}")


def _cmd_report(args) -> int:
    with staged_outputs(args.output, inputs=[args.verdicts]) as (output,):
        text = _report(Path(args.verdicts))
        if output:
            output.write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


def _report(path: Path) -> str:
    """The report JSON of a verdict file."""
    records, track_ids = [], set()
    for line_number, record in read_records(path, "verdict", _VERDICT_FIELDS):
        where = f"{path}:{line_number}"
        binary, k = record["binary"], record["k"]
        if binary not in ("normal", "defect") or type(k) is not int or k < 1:
            raise InputError(f"{where}: 'binary' must be normal or defect, 'k' an integer >= 1")
        category = record.get("category", int(binary == "defect"))  # absent: agrees
        if type(category) is not int or category < 0 or (category > 0) != (binary == "defect"):
            raise InputError(
                f"{where}: 'category' must be 0 for a normal verdict and above 0 for a defect, "
                f"got {json.dumps(category)} for {binary}"
            )
        frame_wise = record.get("stability_frame_wise", 0.0)
        if type(frame_wise) not in (int, float) or not 0.0 <= frame_wise <= 1.0:
            raise InputError(
                f"{where}: 'stability_frame_wise' must be a finite number in [0, 1], "
                f"got {json.dumps(frame_wise)}"
            )
        votes = record.get("votes", [k])  # absent: agrees
        if not (
            type(votes) is list and all(type(v) is int and v >= 0 for v in votes)
            and sum(votes) == k
        ):
            raise InputError(
                f"{where}: 'votes' must be a list of integers >= 0 summing to 'k' ({k}), "
                f"got {json.dumps(votes)}"
            )
        if "votes" in record:
            _check_vote(votes, category, "category" in record, where)
        track_id = record["track_id"]
        if type(track_id) is not int or track_id < 0:
            raise InputError(
                f"{where}: 'track_id' must be an integer >= 0, got {json.dumps(track_id)}"
            )
        if track_id in track_ids:
            raise InputError(f"{where}: 'track_id' {track_id} repeats an earlier line's")
        track_ids.add(track_id)
        records.append(record)
    # Zeros without verdicts, as in the summary of a run without labeled tracks.
    n, n_defect = len(records), sum(1 for r in records if r["binary"] == "defect")
    stability = [r["stability_frame_wise"] for r in records if "stability_frame_wise" in r]
    payload = {
        "n_tracks": n,
        "n_defect_tracks": n_defect,
        "defect_ratio": n_defect / max(n, 1),
        "mean_track_length": sum(r["k"] for r in records) / max(n, 1),
        "mean_stability_frame_wise": (
            sum(stability) / max(len(stability), 1) if stability or not records else None
        ),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beltrack",
        description="Conveyor-belt inspection pipeline: tracking, label aggregation, metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    track = sub.add_parser("track", help="run the pipeline on a detection stream")
    track.add_argument("--input", required=True, help="detection JSONL (or MOT text with --mot)")
    track.add_argument("--mot", action="store_true", help="input is MOT-challenge text")
    track.add_argument("--skip-malformed", action="store_true")
    track.add_argument("--num-categories", type=int, default=DEFAULT_NUM_CATEGORIES)
    track.add_argument("--output-verdicts", help="per-track verdict JSONL path")
    track.add_argument("--output-summary", help="run summary JSON path")
    track.add_argument("--config", help="JSON config file (overrides flags)")
    _add_config_flags(track, TrackerConfig)
    _add_config_flags(track, AggregationConfig)
    track.set_defaults(func=_cmd_track)

    simulate = sub.add_parser("simulate", help="generate a synthetic scene")
    simulate.add_argument("--output-detections", required=True)
    simulate.add_argument("--output-truth", required=True)
    simulate.add_argument("--config", help="JSON config file (overrides flags)")
    _add_config_flags(simulate, SimConfig)
    simulate.set_defaults(func=_cmd_simulate)

    evaluate = sub.add_parser("evaluate", help="score a stream against ground truth")
    evaluate.add_argument("--detections", required=True)
    evaluate.add_argument("--truth", required=True)
    evaluate.add_argument("--mot", action="store_true")
    evaluate.add_argument(
        "--skip-malformed", action="store_true",
        help="drop bad detection lines, as track does (the truth file stays strict)",
    )
    evaluate.add_argument("--num-categories", type=int, default=DEFAULT_NUM_CATEGORIES)
    evaluate.add_argument("--iou-threshold", type=float, default=0.5)
    evaluate.add_argument("--output", help="write the evaluation JSON here as well")
    evaluate.add_argument("--config", help="JSON config file (overrides flags)")
    _add_config_flags(evaluate, TrackerConfig)
    _add_config_flags(evaluate, AggregationConfig)
    evaluate.set_defaults(func=_cmd_evaluate)

    report = sub.add_parser("report", help="summarize an existing verdict file")
    report.add_argument("--verdicts", required=True)
    report.add_argument("--output")
    report.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an output file that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
