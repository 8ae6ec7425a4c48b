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

Files must be UTF-8: a line holding a byte that is not is a bad line, like
one that is not JSON. Each non-blank line must hold exactly one JSON
object. Files are read in blocks of ``_BLOCK_LINES`` lines, each parsed
with one ``json.loads`` and checked column by column, so parse memory is
bounded by one block; a block with a bad line is parsed again line by line,
which words the error.
"""

from __future__ import annotations

import json
import logging
import math
from array import array
from itertools import chain, islice, repeat
from operator import itemgetter
from pathlib import Path
from typing import IO, Iterable, Iterator

import numpy as np

from .errors import ConfigError, InputError
from .model import (
    DEFAULT_NUM_CATEGORIES,
    CategoryLabel,
    FrameDetections,
    check_box,
    check_detection_row,
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
#: Lines parsed per ``json.loads`` call: few enough that a block's records
#: stay below the garbage collector's first threshold (700 new objects).
_BLOCK_LINES = 512
#: (line numbers, rows) of a detection file without lines.
_EMPTY_BLOCK = (np.empty(0, np.int64), np.empty((0, len(_COLUMNS))))


def _open_text(path: Path) -> IO[str]:
    """``path`` as UTF-8 text, split into lines as a strict decode would;
    each byte that is not UTF-8 turns into a lone surrogate code point,
    which ``_check_utf8`` rejects."""
    return path.open(encoding="utf-8", errors="surrogateescape")


def _check_utf8(line: str):
    """Raise ValueError if ``line`` held a byte that is not UTF-8."""
    try:
        line.encode("utf-8")
    except UnicodeEncodeError as exc:
        byte = ord(line[exc.start]) - 0xDC00
        raise ValueError(f"not valid UTF-8 (byte 0x{byte:02x})") from None


def _parse_line(line: str, fields: tuple[str, ...], optional: str | None) -> tuple[float, ...]:
    """One JSONL record as a table row: its ``fields``, then ``optional`` if
    given (nan where absent or null). Raises ValueError (JSONDecodeError
    included) for a line that is not a JSON object, a missing field, a value
    that is not a JSON number (booleans included) or a NaN ``optional``, and
    OverflowError for an integer past the float range."""
    _check_utf8(line)
    record = json.loads(line)
    if not isinstance(record, dict):
        raise ValueError("expected a JSON object")
    for key in fields:
        if key not in record:
            raise ValueError(f"missing field {key!r}")
    labeled = optional is not None and record.get(optional) is not None
    keys = (*fields, optional) if labeled else fields
    values = [record[key] for key in keys]
    if not {int, float}.issuperset(map(type, values)):  # bool is a type of its own
        key = next(k for k, v in zip(keys, values) if type(v) not in (int, float))
        raise ValueError(f"{key} must be a number, got {json.dumps(record[key])}")
    row = tuple(map(float, values))
    if labeled and math.isnan(row[-1]):  # nan marks an absent ``optional``
        raise ValueError(f"{optional} must be an integer, got {row[-1]!r}")
    return row if labeled or optional is None else (*row, math.nan)


def _parse_block(
    lines: list[str], fields: tuple[str, ...], optional: str | None
) -> np.ndarray | None:
    """The rows ``_parse_line`` gives for ``lines``, one per line, as one
    table; None when a line is blank or ``_parse_line`` would reject it."""
    text = "[" + ",".join(lines) + "]"
    if not text.isascii():
        return None  # the per-line parse checks for bytes that are not UTF-8
    # Every line holds one "{" and one "}": if the joined lines then parse
    # to one object per line, each brace is an object's, so no object spans
    # two lines (a JSON string holds no raw newline) or shares one.
    for brace in "{}":
        if set(map(str.count, lines, repeat(brace))) != {1}:
            return None
    try:
        records = json.loads(text)
        if len(records) != len(lines) or set(map(type, records)) != {dict}:
            return None
        columns = [list(map(itemgetter(key), records)) for key in fields]
        if not {int, float}.issuperset(map(type, chain.from_iterable(columns))):
            return None  # bool and str are not numbers
        if optional is not None:
            columns.append(list(map(dict.get, records, repeat(optional))))
            if not {int, float, type(None)}.issuperset(map(type, columns[-1])):
                return None
        table = np.array(columns, dtype=float)  # None becomes nan
    except (ValueError, RecursionError, KeyError, OverflowError):
        return None  # not JSON, too deep, a missing field, past the float range
    if optional is not None and np.isnan(table[-1]).sum() != columns[-1].count(None):
        return None  # a NaN ``optional``
    return table.T


def _blocks(
    handle: IO[str], fields: tuple[str, ...], optional: str | None,
    errors: list[tuple[int, str]], skip_malformed: bool,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(line numbers, ``_parse_line`` rows) of each block of ``_BLOCK_LINES``
    lines. A block with a blank or bad line is parsed line by line: each bad
    line adds (line number, message) to ``errors``, and the first one ends
    the read, after the rows before it, unless ``skip_malformed``."""
    start = 1
    while lines := list(islice(handle, _BLOCK_LINES)):
        table = _parse_block(lines, fields, optional)
        if table is not None:
            yield np.arange(start, start + len(lines)), table
        else:
            rows, numbers = [], []
            for line_number, line in enumerate(lines, start):
                if not line.strip():
                    continue
                try:
                    rows.append(_parse_line(line, fields, optional))
                    numbers.append(line_number)
                except (ValueError, OverflowError) as exc:
                    errors.append((line_number, _line_error(exc)))
                    if not skip_malformed:
                        break
            width = len(fields) + (optional is not None)
            yield np.array(numbers, np.int64), np.array(rows).reshape(-1, width)
            if errors and not skip_malformed:
                return
        start += len(lines)


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
        check_detection_row(
            int(frame), box, score, int(category) if labeled else None, num_categories
        )
    except ValueError as exc:
        return str(exc)
    raise AssertionError(f"the table check and the scalar checks disagree on {row}")


def _frames_from_table(
    path: Path,
    table: np.ndarray,
    lines: np.ndarray,
    errors: list[tuple[int, str]],
    skip_malformed: bool,
    num_categories: int,
) -> list[FrameDetections]:
    """Check the parsed rows (``_COLUMNS``) as one table, report the first
    bad line (or log and drop every bad line when ``skip_malformed``), and
    split the rest into frames. ``errors`` holds the lines that failed to parse."""
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
    if num_categories < 2:
        raise ConfigError(f"num_categories must be >= 2, got {num_categories}")
    path = Path(path)
    if not path.exists():
        raise InputError(f"detection file not found: {path}")
    errors: list[tuple[int, str]] = []
    with _open_text(path) as handle:
        blocks = _blocks(handle, DETECTION_FIELDS, "category", errors, skip_malformed)
        # A parse error ends the read after the rows before it, which may
        # still fail the table check. No block outlives the join.
        lines, table = (np.concatenate(part) for part in zip(_EMPTY_BLOCK, *blocks))
    return _frames_from_table(path, table, lines, errors, skip_malformed, num_categories)


def write_detections(frames: Iterable[FrameDetections], path: str | Path):
    """Write a detection stream in the JSONL format ``ingest_detections`` reads."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        for frame in frames:
            for (x, y, w, h), score, category in zip(
                frame.boxes.tolist(), frame.scores.tolist(), frame.categories.tolist()
            ):
                values = (frame.frame_index, x, y, w, h, score, None if category < 0 else category)
                handle.write(json.dumps(dict(zip(_COLUMNS, values))) + "\n")


def write_ground_truth(gt: SceneGroundTruth, path: str | Path):
    """One line per (object, frame): the detection format plus identity fields."""
    path = Path(path)
    object_ids = np.repeat(gt.object_ids, gt.counts).tolist()
    categories = np.repeat(gt.categories, gt.counts).tolist()
    with path.open("w", encoding="utf-8") as handle:
        for object_id, category, frame, (x, y, w, h) in zip(
            object_ids, categories, gt.frames.tolist(), gt.boxes.tolist()
        ):
            values = (frame, object_id, x, y, w, h, category)
            handle.write(json.dumps(dict(zip(TRUTH_FIELDS, values))) + "\n")


def _check_truth_row(row: list[float]):
    """Raise ValueError unless a ground-truth row (frame, object id, x, y,
    w, h, category index) holds what the detection reader's rules allow:
    ``frame``, ``object_id`` and ``true_category`` whole numbers below 2**53
    in magnitude, ``frame`` at least 0, and a box ``BoundingBox`` accepts."""
    frame, object_id, x, y, w, h, category = row
    for key, value in (("frame", frame), ("object_id", object_id), ("true_category", category)):
        message = _whole_number_error(key, value)
        if message is not None:
            raise ValueError(message)
    if frame < 0:
        raise ValueError(f"frame_index must be >= 0, got {int(frame)}")
    check_box(x, y, w, h)


def read_ground_truth(path: str | Path, num_categories: int = 4) -> SceneGroundTruth:
    """Read a ground-truth JSONL file into one table, objects in id order
    and each object's rows in frame order; the first bad line aborts with
    its line number."""
    if num_categories < 2:
        raise ConfigError(f"num_categories must be >= 2, got {num_categories}")
    path = Path(path)
    if not path.exists():
        raise InputError(f"ground-truth file not found: {path}")
    tables = [np.empty((0, len(TRUTH_FIELDS)))]  # the TRUTH_FIELDS of each line
    categories: dict[int, CategoryLabel] = {}  # object id -> its category
    seen: set[tuple[int, int]] = set()  # (object id, frame)
    errors: list[tuple[int, str]] = []  # a line that failed to parse ends the read
    with _open_text(path) as handle:
        for lines, block in _blocks(handle, TRUTH_FIELDS, None, errors, False):
            for line_number, row in zip(lines.tolist(), block.tolist()):
                try:
                    _check_truth_row(row)
                    category = CategoryLabel(int(row[-1]), num_categories)
                except ValueError as exc:
                    raise InputError(f"{path}:{line_number}: {exc}") from exc
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
            tables.append(block)
    if errors:
        line_number, message = errors[0]
        raise InputError(f"{path}:{line_number}: {message}")
    table = np.concatenate(tables)
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


def ingest_mot(path: str | Path, *, skip_malformed: bool = False) -> list[FrameDetections]:
    """Read MOT-challenge text (frame,id,x,y,w,h,score,...) as a detection stream.

    The id column and any trailing fields are ignored; there is no category
    channel in this format. Finite confidences are clamped into [0, 1] (MOT
    files sometimes carry -1 or unnormalized values); nan and inf are rejected.
    Malformed lines abort, or are logged and dropped with ``skip_malformed``.
    """
    path = Path(path)
    if not path.exists():
        raise InputError(f"MOT file not found: {path}")
    rows, line_numbers = array("d"), array("q")
    errors: list[tuple[int, str]] = []
    with _open_text(path) as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            try:
                _check_utf8(line)
                if len(parts) < 7:
                    raise ValueError("expected at least 7 comma-separated fields")
                # The frame stays a float: the table check rejects a fractional one.
                frame, x, y, w, h, score = (float(parts[i]) for i in (0, 2, 3, 4, 5, 6))
                if not math.isfinite(score):
                    raise ValueError(f"confidence must be finite, got {parts[6].strip()!r}")
            except (ValueError, OverflowError) as exc:
                errors.append((line_number, str(exc)))
                if skip_malformed:
                    continue
                break  # an earlier line may still fail the table check
            rows.extend((frame, x, y, w, h, min(1.0, max(0.0, score)), math.nan))
            line_numbers.append(line_number)
    table = np.frombuffer(rows).reshape(-1, len(_COLUMNS))
    lines = np.frombuffer(line_numbers, dtype=np.int64)
    return _frames_from_table(path, table, lines, errors, skip_malformed, DEFAULT_NUM_CATEGORIES)
