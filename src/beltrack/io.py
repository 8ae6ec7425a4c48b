"""Stream serialization: detection JSONL, ground-truth JSONL, and a
MOT-challenge text adapter.

Detection format, one JSON object per line:

    {"frame": int, "x": float, "y": float, "w": float, "h": float,
     "score": float, "category": int|null}

``category`` null (or absent) means no classifier output for that box.
Every field must be a JSON number (not a string or a boolean). The ground-
truth format mirrors it with ``object_id`` and ``true_category`` fields
(both whole numbers, every line labeled) instead of ``score``/``category``,
and at most one line per object and frame, each object in one category.
Each line becomes a float64 row, checked with ``model.row_checks``, which
holds the rules and the order in which a line's first fault is reported.

Every reader opens its file with ``_open_text``, where a missing path, or
one that cannot be read (a directory, say), is an ``InputError``. The
table readers, MOT text included, share one line loop, ``_blocks``: it
reads ``_BLOCK_LINES`` lines at a time, drops blank lines, and parses each
JSONL block with one ``json.loads``, so parse memory is bounded by one
block; a block with a bad line is parsed again line by line, which words
its faults. One parse of a JSONL line, ``_record``, serves the tables and
the verdict records ``read_records`` yields. A line that holds a byte that
is not UTF-8, is not JSON, nests too deeply or is not one JSON object is a
bad line. A block's parse faults and its rows' check faults are reported in
one place, ``_passing``: the lowest bad line raises, naming ``path:line``,
or under ``skip_malformed`` each one is logged and dropped.

The detection JSONL reader checks each block of rows as it is parsed, and
has two consumers: ``stream_detections`` yields whole frames in frame
order as the file is read, holding the rows of ``REORDER_FRAMES + 1``
frames, and rejects a line more than ``REORDER_FRAMES`` frames out of
order; ``ingest_detections`` joins every block and sorts the rows once.
The ground-truth and MOT readers read whole files into one table, which
they check and sort. The writers write, block by block, the bytes of one
``json.dumps`` per record.
"""

from __future__ import annotations

import json
import logging
import math
from functools import partial
from itertools import chain, islice, repeat
from operator import itemgetter
from pathlib import Path
from typing import IO, Callable, Iterator

import numpy as np

from .errors import ConfigError, InputError
from .model import (
    DEFAULT_NUM_CATEGORIES,
    DetectionTable,
    FrameDetections,
    RowCheck,
    first_fault,
    passing_rows,
    row_checks,
)
from .simulate import SceneGroundTruth

logger = logging.getLogger(__name__)

DETECTION_FIELDS = ("frame", "x", "y", "w", "h", "score")
TRUTH_FIELDS = ("frame", "object_id", "x", "y", "w", "h", "true_category")
#: Columns of the parsed table: the detection fields, then the category
#: (nan where a line has none).
_COLUMNS = (*DETECTION_FIELDS, "category")
#: Lines parsed per ``json.loads`` call: few enough that a block's records
#: stay below the garbage collector's first threshold (700 new objects).
_BLOCK_LINES = 512
#: The reorder window of ``stream_detections``, in frames: a detection line
#: may hold a frame at most this many frames below the highest frame of the
#: lines before it. Files no further out of order read as if sorted. The
#: value is not measured on any producer: this package's writers (and so the
#: simulator) write files sorted by frame, which read the same at any window,
#: and no out-of-order detector output has been seen. The window costs the
#: rows of ``REORDER_FRAMES + 1`` frames; a file further out of order must be
#: sorted by frame first.
REORDER_FRAMES = 64


def _open_text(path: Path, kind: str) -> IO[str]:
    """``path`` as UTF-8 text, split into lines as a strict decode would;
    each byte that is not UTF-8 turns into a lone surrogate code point,
    which ``_check_utf8`` rejects. ``InputError`` if it cannot be opened."""
    try:
        return path.open(encoding="utf-8", errors="surrogateescape")
    except FileNotFoundError:
        raise InputError(f"{kind} file not found: {path}") from None
    except OSError as exc:
        raise InputError(f"{kind} file cannot be read: {path} ({exc.strerror})") from None


def _check_utf8(line: str):
    """Raise ValueError if ``line`` held a byte that is not UTF-8."""
    try:
        line.encode("utf-8")
    except UnicodeEncodeError as exc:
        byte = ord(line[exc.start]) - 0xDC00
        raise ValueError(f"not valid UTF-8 (byte 0x{byte:02x})") from None


def _record(line: str, fields: tuple[str, ...]) -> dict:
    """The JSON object on a JSONL line, which must hold ``fields``; a bad
    line raises ValueError, worded as its error."""
    _check_utf8(line)
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON ({exc.msg})") from None
    except RecursionError:
        raise ValueError("invalid JSON (nested too deeply)") from None
    if not isinstance(record, dict):
        raise ValueError("expected a JSON object")
    for key in fields:
        if key not in record:
            raise ValueError(f"missing field {key!r}")
    return record


def read_records(path: str | Path, kind: str, fields: tuple[str, ...]) -> Iterator[tuple[int, dict]]:
    """(line number, ``_record``) of each non-blank line of a JSONL file of
    ``kind``; a bad line raises ``InputError`` naming ``path:line``."""
    with _open_text(Path(path), kind) as handle:
        for line_number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = _record(line, fields)
            except ValueError as exc:
                raise InputError(f"{path}:{line_number}: {exc}") from None
            yield line_number, record


def _parse_line(line: str, fields: tuple[str, ...], optional: str | None) -> tuple[float, ...]:
    """One JSONL record as a table row: its ``fields``, then ``optional`` if
    given (nan where absent or null). Raises ValueError for a line that
    ``_record`` rejects, a value that is not a JSON number (booleans
    included) or a NaN ``optional``, and OverflowError for an integer past
    the float range."""
    record = _record(line, fields)
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


def _parse_mot_line(line: str) -> tuple[float, ...]:
    """A MOT text line (frame,id,x,y,w,h,score,...) as a ``_COLUMNS`` row,
    its score clamped into [0, 1], or ValueError."""
    _check_utf8(line)
    parts = line.strip().split(",")
    if len(parts) < 7:
        raise ValueError("expected at least 7 comma-separated fields")
    # The frame stays a float: the row checks reject a fractional one.
    frame, x, y, w, h, score = (float(parts[i]) for i in (0, 2, 3, 4, 5, 6))
    if not math.isfinite(score):
        raise ValueError(f"confidence must be finite, got {parts[6].strip()!r}")
    return frame, x, y, w, h, min(1.0, max(0.0, score)), math.nan


def _parse_block(
    lines: list[str], fields: tuple[str, ...], optional: str | None
) -> np.ndarray | None:
    """The rows ``_parse_line`` gives for ``lines``, one per line, as one
    table; None when ``_parse_line`` would reject a line."""
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
    handle: IO[str], width: int, parse_line: Callable, parse_block: Callable | None = None
) -> Iterator[tuple[np.ndarray, np.ndarray, list[tuple[int, str]]]]:
    """(line numbers, rows, faults) of the non-blank lines of each block of
    ``_BLOCK_LINES`` lines: the ``width`` columns ``parse_line`` gives, and
    (line number, message) for each line it rejects. ``parse_block`` parses
    a whole block, or gives None, and then the block is parsed line by line.
    The first block is empty, so a file without lines joins into a table."""
    yield np.empty(0, np.int64), np.empty((0, width)), []
    start = 1
    while lines := list(islice(handle, _BLOCK_LINES)):
        numbers = np.arange(start, start + len(lines))
        start += len(lines)
        kept = list(filter(str.strip, lines))  # a blank line holds no record
        if len(kept) < len(lines):
            numbers = numbers[[bool(line.strip()) for line in lines]]
        table = None if parse_block is None else parse_block(kept)
        if table is not None:
            yield numbers, table, []
            continue
        rows, parsed, faults = [], [], []
        for line_number, line in zip(numbers.tolist(), kept):
            try:
                rows.append(parse_line(line))
                parsed.append(line_number)
            except (ValueError, OverflowError) as exc:
                faults.append((line_number, str(exc)))
        yield np.array(parsed, np.int64), np.array(rows).reshape(-1, width), faults


def _passing(
    path: Path, lines: np.ndarray, checks: list[RowCheck], faults: list, skip_malformed: bool
) -> np.ndarray:
    """The mask of the rows that pass ``checks``. The lowest bad line, a row
    failing a check or a parse fault, raises ``InputError``, or under
    ``skip_malformed`` each bad line is logged."""
    valid = passing_rows(checks)
    # Rows are in line order. Without ``skip_malformed`` only the first bad
    # one is worded: a later row's words may read a bad earlier row.
    bad = np.flatnonzero(~valid)[: None if skip_malformed else 1]
    faults = sorted(faults + [(int(lines[i]), first_fault(checks, i)) for i in bad.tolist()])
    if faults and not skip_malformed:
        line_number, message = faults[0]
        raise InputError(f"{path}:{line_number}: {message}")
    for line_number, message in faults:
        logger.warning("skipping line: %s:%d: %s", path, line_number, message)
    return valid


def _checked_rows(
    path: Path,
    table: np.ndarray,
    lines: np.ndarray,
    faults: list[tuple[int, str]],
    skip_malformed: bool,
    num_categories: int,
    highest: float | None = None,
) -> tuple[np.ndarray, ...]:
    """Check the parsed rows (``_COLUMNS``) as one table, report their bad
    lines with the parse ``faults`` (``_passing``), and return the rest as
    detection columns: frames, boxes, scores and categories (-1: no label).
    Given the ``highest`` frame of the lines read before, a line more than
    ``REORDER_FRAMES`` frames below the highest frame before it fails too."""
    frames, boxes, scores, categories = table[:, 0], table[:, 1:5], table[:, 5], table[:, 6]
    checks = row_checks(
        {"frame": frames, "box": boxes, "score": scores, "category": categories}, num_categories
    )
    if highest is not None:
        # The highest frame of the lines up to each line that pass the checks.
        reach = np.maximum.accumulate(np.where(passing_rows(checks), frames, highest))
        reach = np.maximum(reach, highest)
        checks.append((frames >= reach - REORDER_FRAMES, lambda i: (
            f"frame {int(frames[i])} is more than {REORDER_FRAMES} frames behind "
            f"frame {int(reach[i])} of an earlier line"
        )))
    valid = _passing(path, lines, checks, faults, skip_malformed)
    categories = np.nan_to_num(categories[valid], nan=-1)  # nan: no label
    return (
        frames[valid].astype(np.int64), boxes[valid], scores[valid], categories.astype(np.int64)
    )


def _detection_blocks(
    path: str | Path, skip_malformed: bool, num_categories: int, ordered: bool = False
) -> Iterator[tuple[np.ndarray, ...]]:
    """The ``_checked_rows`` columns of each block of a detection JSONL
    file, in file order, the first one empty. ``ordered`` adds the check
    for a line too far out of frame order."""
    if num_categories < 2:
        raise ConfigError(f"num_categories must be >= 2, got {num_categories}")
    path = Path(path)
    fields = dict(fields=DETECTION_FIELDS, optional="category")
    parsers = partial(_parse_line, **fields), partial(_parse_block, **fields)
    highest = 0 if ordered else None  # frames are >= 0
    with _open_text(path, "detection") as handle:
        for lines, table, faults in _blocks(handle, len(_COLUMNS), *parsers):
            columns = _checked_rows(
                path, table, lines, faults, skip_malformed, num_categories, highest
            )
            if ordered:
                highest = columns[0].max(initial=highest)
            yield columns


def ingest_detections(
    path: str | Path, *, skip_malformed: bool = False, num_categories: int = DEFAULT_NUM_CATEGORIES
) -> DetectionTable:
    """Read a whole detection JSONL file into one table, sorted by frame
    index (each frame's lines in file order).

    Malformed lines abort with the offending line number unless
    ``skip_malformed`` is set, in which case they are logged and dropped.
    Each line becomes one numeric row; the rows are checked block by block.
    """
    blocks = _detection_blocks(path, skip_malformed, num_categories)
    columns = [np.concatenate(column) for column in zip(*blocks)]
    return DetectionTable._from_checked_rows(*columns, num_categories)


def stream_detections(
    path: str | Path, *, skip_malformed: bool = False, num_categories: int = DEFAULT_NUM_CATEGORIES
) -> Iterator[FrameDetections]:
    """Read a detection JSONL file as ``ingest_detections`` does, one block
    at a time, and yield its frames in frame order (each frame's lines in
    file order): after each block, the frames more than ``REORDER_FRAMES``
    frames below the highest frame read. So the rows of at most
    ``REORDER_FRAMES + 1`` frames and a block are held.

    A line more than ``REORDER_FRAMES`` frames below the highest frame of
    the lines before it is a bad line: its frame may have been yielded.
    Within that window the frames equal ``ingest_detections``'s. A bad line
    raises ``InputError`` when its block is read, after the frames yielded
    before it. Close the stream to close the file.
    """
    blocks = _detection_blocks(path, skip_malformed, num_categories, ordered=True)
    pending = next(blocks)  # the empty first block
    for block in blocks:
        pending = [np.concatenate(pair) for pair in zip(pending, block)]
        done = pending[0] < pending[0].max(initial=0) - REORDER_FRAMES
        if done.any():
            yield from DetectionTable._from_checked_rows(
                *(column[done] for column in pending), num_categories
            )
            pending = [column[~done] for column in pending]
    yield from DetectionTable._from_checked_rows(*pending, num_categories)


def write_columns(handle: IO[str], fields: tuple[str, ...], columns: list[np.ndarray]):
    """Write a row of ``columns`` (equal-length arrays, one per name in
    ``fields``) per line, ``_BLOCK_LINES`` rows at a time, as ``json.dumps``
    writes its dict: ``str`` of a ``tolist()`` int, finite float or int list
    (a 2-D column's row) is its JSON text, and a string value must be JSON text."""
    line = "{" + ", ".join(f"{json.dumps(name)}: %s" for name in fields) + "}\n"
    for start in range(0, len(columns[0]), _BLOCK_LINES):
        block = [column[start : start + _BLOCK_LINES].tolist() for column in columns]
        handle.write("".join(map(line.__mod__, zip(*block))))


def write_detections(detections: DetectionTable, path: str | Path):
    """Write a detection table in the JSONL format ``ingest_detections``
    reads, one line per row in table order."""
    labels = detections.categories
    with Path(path).open("w", encoding="utf-8") as handle:
        write_columns(handle, _COLUMNS, [
            detections.frames, *detections.boxes.T, detections.scores,
            np.where(labels < 0, "null", labels.astype(object)),
        ])


def write_ground_truth(gt: SceneGroundTruth, path: str | Path):
    """One line per (object, frame): the detection format plus identity fields."""
    with Path(path).open("w", encoding="utf-8") as handle:
        write_columns(handle, TRUTH_FIELDS, [
            gt.frames, np.repeat(gt.object_ids, gt.counts), *gt.boxes.T,
            np.repeat(gt.categories, gt.counts),
        ])


def read_ground_truth(
    path: str | Path, num_categories: int = DEFAULT_NUM_CATEGORIES
) -> SceneGroundTruth:
    """Read a ground-truth JSONL file into one table, objects in id order
    and each object's rows in frame order. The lines are checked as one
    table, by ``row_checks`` and then for a line that changes its object's
    category or repeats its (object, frame) pair, in that order; the lowest
    bad line aborts the read."""
    if num_categories < 2:
        raise ConfigError(f"num_categories must be >= 2, got {num_categories}")
    path = Path(path)
    fields = dict(fields=TRUTH_FIELDS, optional=None)
    parsers = partial(_parse_line, **fields), partial(_parse_block, **fields)
    with _open_text(path, "ground-truth") as handle:
        lines, table, faults = zip(*_blocks(handle, len(TRUTH_FIELDS), *parsers))
    lines, table = np.concatenate(lines), np.concatenate(table)
    frames, object_ids, categories = table[:, 0], table[:, 1], table[:, 6]
    checks = row_checks(
        {"frame": frames, "object_id": object_ids, "box": table[:, 2:6],
         "true_category": categories},
        num_categories,
    )
    # Each row's object and the object's first row; then the rows by object,
    # frame and line (lexsort is stable), where a row repeats the pair of the
    # row before it.
    ids, first, objects, counts = np.unique(
        object_ids, return_index=True, return_inverse=True, return_counts=True
    )
    order = np.lexsort((frames, object_ids))
    sorted_frames = frames[order]
    repeated = np.zeros(len(order), dtype=bool)
    repeated[order[1:]] = (np.diff(objects[order]) == 0) & (sorted_frames[1:] == sorted_frames[:-1])
    # A row and its object's first row pass the row checks, or a line at or
    # below the row's fails them first.
    checks.append((categories == categories[first[objects]], lambda i: (
        f"object {int(object_ids[i])} changes category "
        f"({int(categories[first[objects[i]]])} -> {int(categories[i])})"
    )))
    checks.append((~repeated, lambda i: (
        f"object {int(object_ids[i])} appears twice on frame {int(frames[i])}"
    )))
    _passing(path, lines, checks, list(chain.from_iterable(faults)), False)
    return SceneGroundTruth(
        ids.astype(np.int64),
        categories[first].astype(np.int64),
        counts,
        sorted_frames.astype(np.int64),
        table[order, 2:6],
        num_categories,
    )


def ingest_mot(path: str | Path, *, skip_malformed: bool = False) -> DetectionTable:
    """Read MOT-challenge text (frame,id,x,y,w,h,score,...) as a detection stream.

    The id column and any trailing fields are ignored; there is no category
    channel in this format. Finite confidences are clamped into [0, 1] (MOT
    files sometimes carry -1 or unnormalized values); nan and inf are rejected.
    Malformed lines abort, or are logged and dropped with ``skip_malformed``.
    """
    path = Path(path)
    with _open_text(path, "MOT") as handle:
        lines, table, faults = zip(*_blocks(handle, len(_COLUMNS), _parse_mot_line))
    columns = _checked_rows(
        path, np.concatenate(table), np.concatenate(lines), list(chain.from_iterable(faults)),
        skip_malformed, DEFAULT_NUM_CATEGORIES,
    )
    return DetectionTable._from_checked_rows(*columns, DEFAULT_NUM_CATEGORIES)
