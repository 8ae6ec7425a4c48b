"""Stream serialization: detection JSONL, ground-truth JSONL, and a
MOT-challenge text adapter.

Detection format, one JSON object per line:

    {"frame": int, "x": float, "y": float, "w": float, "h": float,
     "score": float, "category": int|null}

``category`` null (or absent) means no classifier output for that box.
Every field must be a JSON number (not a string or a boolean), ``frame``
and ``category`` whole numbers below 2**53 in magnitude (float64 holds every
such integer exactly), and a box's fields, edges, area and aspect w/h must
be finite, with w, h and w/h positive (the tracker's filter encodes the
aspect). The ground-truth format mirrors it, and its rules, with
``object_id`` and ``true_category`` fields (both whole numbers) instead of
``score``/``category``, and at most one line per object and frame.
"""

from __future__ import annotations

import json
import logging
import math
from array import array
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import InputError
from .model import (
    DEFAULT_NUM_CATEGORIES,
    BoundingBox,
    CategoryLabel,
    Detection,
    FrameDetections,
    check_box,
    split_frames,
    valid_detection_rows,
)
from .simulate import SceneGroundTruth

logger = logging.getLogger(__name__)

DETECTION_FIELDS = ("frame", "x", "y", "w", "h", "score")
TRUTH_FIELDS = ("frame", "object_id", "x", "y", "w", "h", "true_category")
#: Columns of the parsed table: the detection fields, then the category
#: (nan where a line has none).
_COLUMNS = (*DETECTION_FIELDS, "category")
#: Frames and categories are parsed as float64, exact for integers below
#: 2**53; any larger one parses to 2**53 or more and is rejected.
_INT_LIMIT = 2.0**53


def _record_values(
    line: str, fields: tuple[str, ...], optional: str | None = None
) -> tuple[float, ...]:
    """The numbers of one JSONL record: its ``fields`` in order, then its
    ``optional`` field where that is present and not null. Raises ValueError
    (JSONDecodeError included) for a line that is not a JSON object, a
    missing field or a value that is not a JSON number (JSON booleans
    included), and OverflowError for an integer past the float range."""
    record = json.loads(line)
    if not isinstance(record, dict):
        raise ValueError("expected a JSON object")
    for key in fields:
        if key not in record:
            raise ValueError(f"missing field {key!r}")
    if optional is not None and record.get(optional) is not None:
        fields = (*fields, optional)
    values = [record[key] for key in fields]
    if not {int, float}.issuperset(map(type, values)):  # bool is a type of its own
        key = next(k for k, v in zip(fields, values) if type(v) not in (int, float))
        raise ValueError(f"{key} must be a number, got {json.dumps(record[key])}")
    return tuple(map(float, values))


def _parse_detection_line(line: str) -> tuple[float, ...]:
    """One JSONL line as a table row, nan in the category column where the
    line has none. Raises as ``_record_values`` does; whole-number checks
    are left to the table."""
    row = _record_values(line, DETECTION_FIELDS, optional="category")
    if len(row) == len(DETECTION_FIELDS):
        return (*row, math.nan)
    if math.isnan(row[-1]):  # nan marks "no category"
        raise ValueError(f"category must be an integer, got {row[-1]!r}")
    return row


def _line_error(exc: Exception) -> str:
    if isinstance(exc, json.JSONDecodeError):
        return f"invalid JSON ({exc.msg})"
    return str(exc)


def _whole_number_error(name: str, value: float) -> str | None:
    if not value.is_integer():
        return f"{name} must be an integer, got {value!r}"
    if abs(value) >= _INT_LIMIT:
        return f"{name} is out of range, got {value!r}"
    return None


def _whole_numbers(column: np.ndarray) -> np.ndarray:
    """Mask of the entries ``_whole_number_error`` accepts."""
    return (column == np.floor(column)) & (np.abs(column) < _INT_LIMIT)


def _row_error(row: list[float], num_categories: int) -> str:
    """Why the table check rejected a row, in the words of the scalar checks."""
    frame, *box, score, category = row
    labeled = not math.isnan(category)
    message = _whole_number_error("frame", frame) or (
        _whole_number_error("category", category) if labeled else None
    )
    if message is not None:
        return message
    try:
        label = CategoryLabel(int(category), num_categories) if labeled else None
        Detection(int(frame), BoundingBox(*box), score, label)
    except ValueError as exc:
        return str(exc)
    raise AssertionError(f"the table check and the scalar checks disagree on {row}")


def _frames_from_table(
    path: Path,
    rows: array,
    line_numbers: array,
    errors: list[tuple[int, str]],
    skip_malformed: bool,
    num_categories: int,
) -> list[FrameDetections]:
    """Check the parsed rows as one table, report the first bad line (or log
    and drop every bad line when ``skip_malformed``), and split the rest
    into frames. ``errors`` holds the lines that failed to parse."""
    table = np.frombuffer(rows).reshape(-1, len(_COLUMNS))
    lines = np.frombuffer(line_numbers, dtype=np.int64)
    frames, boxes, scores, categories = table[:, 0], table[:, 1:5], table[:, 5], table[:, 6]
    labeled = ~np.isnan(categories)
    whole = _whole_numbers(frames) & (~labeled | _whole_numbers(categories))
    frames = np.where(whole, frames, 0).astype(np.int64)
    categories = np.where(whole & labeled, categories, -1).astype(np.int64)
    valid = (
        whole
        & (frames >= 0)
        & ~(labeled & (categories < 0))  # -1 is "no label" only in the table
        & valid_detection_rows(boxes, scores, categories, num_categories)
    )
    for i in np.flatnonzero(~valid).tolist():
        errors.append((int(lines[i]), _row_error(table[i].tolist(), num_categories)))
    errors.sort()
    if errors and not skip_malformed:
        line_number, message = errors[0]
        raise InputError(f"{path}:{line_number}: {message}")
    for line_number, message in errors:
        logger.warning("skipping line: %s:%d: %s", path, line_number, message)
    return split_frames(
        frames[valid], boxes[valid], scores[valid], categories[valid], num_categories
    )


def ingest_detections(
    path: str | Path, *, skip_malformed: bool = False, num_categories: int = 4
) -> list[FrameDetections]:
    """Read a detection JSONL file, grouped by frame and sorted by frame index.

    Malformed lines abort with the offending line number unless
    ``skip_malformed`` is set, in which case they are logged and dropped.
    Each line becomes one numeric row; the rows are checked as one table.
    """
    path = Path(path)
    if not path.exists():
        raise InputError(f"detection file not found: {path}")
    rows, line_numbers = array("d"), array("q")
    errors: list[tuple[int, str]] = []
    with path.open(encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                rows.extend(_parse_detection_line(line))
            except (ValueError, OverflowError) as exc:
                errors.append((line_number, _line_error(exc)))
                if not skip_malformed:
                    break  # an earlier line may still fail the table check
                continue
            line_numbers.append(line_number)
    return _frames_from_table(path, rows, line_numbers, errors, skip_malformed, num_categories)


def write_detections(frames: Iterable[FrameDetections], path: str | Path):
    """Write a detection stream in the JSONL format ``ingest_detections`` reads."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        for frame in frames:
            for (x, y, w, h), score, category in zip(
                frame.boxes.tolist(), frame.scores.tolist(), frame.categories.tolist()
            ):
                record = {
                    "frame": frame.frame_index,
                    "x": x,
                    "y": y,
                    "w": w,
                    "h": h,
                    "score": score,
                    "category": None if category < 0 else category,
                }
                handle.write(json.dumps(record) + "\n")


def write_ground_truth(gt: SceneGroundTruth, path: str | Path):
    """One line per (object, frame): the detection format plus identity fields."""
    path = Path(path)
    object_ids = np.repeat(gt.object_ids, gt.counts).tolist()
    categories = np.repeat(gt.categories, gt.counts).tolist()
    with path.open("w", encoding="utf-8") as handle:
        for object_id, category, frame, (x, y, w, h) in zip(
            object_ids, categories, gt.frames.tolist(), gt.boxes.tolist()
        ):
            record = {
                "frame": frame,
                "object_id": object_id,
                "x": x,
                "y": y,
                "w": w,
                "h": h,
                "true_category": category,
            }
            handle.write(json.dumps(record) + "\n")


def _parse_truth_line(line: str) -> tuple[float, ...]:
    """One ground-truth JSONL line as (frame, object id, x, y, w, h,
    category index), under the detection reader's rules: every field must
    be a JSON number, ``frame``, ``object_id`` and ``true_category`` must be
    whole numbers below 2**53 in magnitude, and the box one that
    ``BoundingBox`` accepts. Raises ValueError or OverflowError."""
    row = _record_values(line, TRUTH_FIELDS)
    frame, object_id, x, y, w, h, category = row
    for key, value in (("frame", frame), ("object_id", object_id), ("true_category", category)):
        message = _whole_number_error(key, value)
        if message is not None:
            raise ValueError(message)
    if frame < 0:
        raise ValueError(f"frame_index must be >= 0, got {int(frame)}")
    check_box(x, y, w, h)
    return row


def read_ground_truth(path: str | Path, num_categories: int = 4) -> SceneGroundTruth:
    """Read a ground-truth JSONL file into one table, objects in id order
    and each object's rows in frame order; the first bad line aborts with
    its line number."""
    path = Path(path)
    if not path.exists():
        raise InputError(f"ground-truth file not found: {path}")
    rows = array("d")  # the TRUTH_FIELDS of each line
    categories: dict[int, CategoryLabel] = {}  # object id -> its category
    seen: set[tuple[int, int]] = set()  # (object id, frame)
    with path.open(encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                row = _parse_truth_line(line)
                category = CategoryLabel(int(row[-1]), num_categories)
            except (ValueError, OverflowError) as exc:
                raise InputError(f"{path}:{line_number}: {_line_error(exc)}") from exc
            frame, object_id = int(row[0]), int(row[1])
            if categories.setdefault(object_id, category) != category:
                raise InputError(
                    f"{path}:{line_number}: object {object_id} changes category "
                    f"({categories[object_id].index} -> {category.index})"
                )
            if (object_id, frame) in seen:
                raise InputError(
                    f"{path}:{line_number}: object {object_id} appears twice on frame {frame}"
                )
            seen.add((object_id, frame))
            rows.extend(row)
    table = np.frombuffer(rows).reshape(-1, len(TRUTH_FIELDS))
    frames, object_ids = table[:, 0].astype(np.int64), table[:, 1].astype(np.int64)
    order = np.lexsort((frames, object_ids))
    ids, counts = np.unique(object_ids, return_counts=True)
    return SceneGroundTruth(
        ids,
        [categories[object_id].index for object_id in ids.tolist()],
        counts,
        frames[order],
        table[order, 2:6],
        num_categories,
    )


def ingest_mot(path: str | Path) -> list[FrameDetections]:
    """Read MOT-challenge text (frame,id,x,y,w,h,score,...) as a detection stream.

    The id column and any trailing fields are ignored; there is no category
    channel in this format. Finite confidences are clamped into [0, 1] (MOT
    files sometimes carry -1 or unnormalized values); nan and inf are rejected.
    """
    path = Path(path)
    if not path.exists():
        raise InputError(f"MOT file not found: {path}")
    rows, line_numbers = array("d"), array("q")
    errors: list[tuple[int, str]] = []
    with path.open(encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            try:
                if len(parts) < 7:
                    raise ValueError("expected at least 7 comma-separated fields")
                # The frame stays a float: the table check rejects a fractional one.
                frame, x, y, w, h, score = (float(parts[i]) for i in (0, 2, 3, 4, 5, 6))
                if not math.isfinite(score):
                    raise ValueError(f"confidence must be finite, got {parts[6].strip()!r}")
            except (ValueError, OverflowError) as exc:
                errors.append((line_number, str(exc)))
                break  # an earlier line may still fail the table check
            rows.extend((frame, x, y, w, h, min(1.0, max(0.0, score)), math.nan))
            line_numbers.append(line_number)
    return _frames_from_table(path, rows, line_numbers, errors, False, DEFAULT_NUM_CATEGORIES)
