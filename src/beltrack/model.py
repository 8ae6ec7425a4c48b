"""Shared domain vocabulary: boxes, detections, categories, and tracks.

Everything here is immutable value data. Detections and tracks are held
as columns: a stream's detections (:class:`DetectionTable`, a
:class:`FrameDetections` view per frame) and its tracks
(:class:`TrackTable`) are (x, y, w, h) box rows beside frame, score and
category columns, checked and compared as tables (``row_checks``,
``iou_matrix``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Sequence

import numpy as np

DEFAULT_NUM_CATEGORIES = 4


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box in pixel coordinates: top-left corner plus size."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        x, y, w, h = self.x, self.y, self.w, self.h
        # One test accepts the common case: a sum of non-negative terms is
        # finite only when every term is, and |x + w| <= |x| + w, so then
        # every field, extent and the aspect is finite (when the sum
        # overflows, the row checks settle it).
        if w > 0 and h > 0:
            aspect = w / h
            if aspect > 0 and math.isfinite(abs(x) + abs(y) + w + h + w * h + aspect):
                return
        check_rows({"box": np.array([[x, y, w, h]], dtype=float)})


#: A check of an input table: the mask of the rows that pass it, and the
#: words for the row at an index that fails it.
RowCheck = tuple[np.ndarray, Callable[[int], str]]


def row_checks(
    columns: dict[str, np.ndarray], num_categories: int = DEFAULT_NUM_CATEGORIES
) -> list[RowCheck]:
    """The checks of an input table in report order: the one definition of
    what an input row must hold. A row is accepted when it passes every
    check, and its fault is the first check it fails (``first_fault``).

    ``columns`` holds ``"box"``, (n, 4) (x, y, w, h) rows, and any of
    ``"frame"``, ``"object_id"``, ``"score"`` and a label column,
    ``"category"`` (nan, or -1 in an integer column: no label) or
    ``"true_category"``. Float columns, as parsed from a file, must hold
    whole numbers below 2**53, which float64 holds exactly. A box's edges,
    area and aspect must be finite too, or the tracker's overlaps and its
    filter, which encodes the aspect, would overflow.
    """
    if "category" in columns:  # an unlabeled row passes as label 0
        labels = columns["category"]
        unlabeled = np.isnan(labels) if labels.dtype.kind == "f" else labels == -1
        columns = {**columns, "category": np.where(unlabeled, 0, labels)}
    checks = []
    for key in ("frame", "object_id", "category", "true_category"):
        column = columns.get(key)
        if column is not None and column.dtype.kind == "f":
            whole = np.isfinite(column) & (column == np.floor(column))
            checks.append(_check(whole, f"{key} must be an integer, got {{!r}}", column))
            in_range = np.abs(column) < 2.0**53
            checks.append(_check(in_range, f"{key} is out of range, got {{!r}}", column))
    labels = columns.get("category", columns.get("true_category"))
    if labels is not None:
        checks.append(((labels >= 0) & (labels < num_categories), lambda i: (
            f"category index {int(labels[i])} out of range [0, {num_categories})"
        )))
    boxes = columns["box"]
    x, y, w, h = boxes.T
    with np.errstate(all="ignore"):
        extents = np.array([x + w, y + h, w * h, w / h])
    for name, field, finite in zip("xywh", boxes.T, np.isfinite(boxes).T):
        checks.append(_check(finite, f"box field {name!r} must be finite, got {{!r}}", field))
    checks.append(_check((w > 0.0) & (h > 0.0), "box size must be positive, got w={}, h={}", w, h))
    names = ("right", "bottom", "area", "aspect w/h")
    for name, extent, finite in zip(names, extents, np.isfinite(extents)):
        checks.append(_check(finite, f"box {name} must be finite, got {{!r}}", extent))
    aspect = extents[3]
    checks.append(_check(aspect > 0.0, "box aspect w/h must be positive, got {!r}", aspect))
    if "frame" in columns:
        frames = columns["frame"]
        checks.append((frames >= 0, lambda i: f"frame_index must be >= 0, got {int(frames[i])}"))
    if "score" in columns:
        scores = columns["score"]
        in_range = (scores >= 0.0) & (scores <= 1.0)
        checks.append(_check(in_range, "score must be in [0, 1], got {}", scores))
    return checks


def _check(passed: np.ndarray, words: str, *columns: np.ndarray) -> RowCheck:
    """A check that words row i by filling ``words`` with the columns' entries."""
    return passed, lambda i: words.format(*(column[i].item() for column in columns))


def passing_rows(checks: list[RowCheck]) -> np.ndarray:
    """Mask of the rows that pass every check."""
    return np.logical_and.reduce([passed for passed, _ in checks])


def first_fault(checks: list[RowCheck], row: int) -> str:
    """The words of the first check that row ``row`` fails."""
    return next(words(row) for passed, words in checks if not passed[row])


def check_rows(columns: dict[str, np.ndarray], num_categories: int = DEFAULT_NUM_CATEGORIES):
    """Raise ``ValueError`` with the fault of the first row ``row_checks``
    rejects."""
    checks = row_checks(columns, num_categories)
    valid = passing_rows(checks)
    if not valid.all():
        raise ValueError(first_fault(checks, int(np.argmin(valid))))


def corners(xywh: np.ndarray) -> np.ndarray:
    """(n, 4) (x, y, w, h) rows as (4, n) corner rows: x, y, right, bottom."""
    edges = xywh.T.copy()
    edges[2:] += edges[:2]
    return edges


def iou_matrix(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Pairwise IoU between (4, n) and (4, m) corner rows (see ``corners``),
    shape (n, m)."""
    halves = _half_areas(np.concatenate([rows, cols], axis=1))  # both sets' at once
    n = rows.shape[1]
    return _iou(rows[:, :, None], cols[:, None, :], halves[:n, None], halves[n:])


def pair_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of two (4, k) corner rows column by column, as ``iou_matrix``'s."""
    return _iou(a, b, _half_areas(a), _half_areas(b))


def _half_areas(edges: np.ndarray) -> np.ndarray:
    sizes = edges[2:] - edges[:2]
    return sizes[0] * sizes[1] / 2


def _iou(a: np.ndarray, b: np.ndarray, half_a: np.ndarray, half_b: np.ndarray) -> np.ndarray:
    """The one IoU formula: corner rows ``a``, ``b`` broadcast, given halved areas."""
    # The overlaps' widths and heights, then their halved areas and unions.
    overlap = np.minimum(a[2:], b[2:])
    overlap -= np.maximum(a[:2], b[:2])
    np.maximum(overlap, 0.0, out=overlap)
    half = np.multiply(overlap[0], overlap[1], out=overlap[0])
    half /= 2
    # Halved, the union cannot overflow.
    union = np.add(half_a, half_b, out=overlap[1])
    union -= half
    # A pair without a float overlap divides 0 by its union. Where that is
    # 0/0 (two areas that underflow), or inf/inf, the nan it gives is
    # scored 0 by fmax.
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(half, union, out=half)
    return np.fmax(half, 0.0, out=half)


@dataclass(frozen=True)
class CategoryLabel:
    """Quality category as an index in [0, num_categories); 0 is the fresh class."""

    index: int
    num_categories: int = DEFAULT_NUM_CATEGORIES

    def __post_init__(self):
        if self.num_categories < 2:
            raise ValueError(f"need at least 2 categories, got {self.num_categories}")
        if not 0 <= self.index < self.num_categories:
            raise ValueError(
                f"category index {self.index} out of range [0, {self.num_categories})"
            )


@lru_cache(maxsize=16)
def category_labels(num_categories: int) -> tuple[CategoryLabel, ...]:
    """The label of each category index, built once and shared."""
    return tuple(CategoryLabel(index, num_categories) for index in range(num_categories))


@dataclass(frozen=True)
class Detection:
    """One detector output box at one frame, with an optional classifier
    label: a row of a ``FrameDetections``, which checked it."""

    frame_index: int
    box: BoundingBox
    score: float
    category_observation: CategoryLabel | None = None


@dataclass(frozen=True, eq=False, slots=True)
class FrameDetections:
    """All detections of a single frame, held as read-only columns:
    ``boxes`` (n, 4) (x, y, w, h) rows, ``scores`` (n,) and ``categories``
    (n,) category indices in [0, num_categories), -1 where a box has no
    classifier label.

    ``FrameDetections(frame, boxes, scores, categories)`` copies and checks
    the columns as a ``DetectionTable`` of one frame; without
    ``categories`` no box has a label, and ``FrameDetections(frame)`` is an
    empty frame. ``detections`` gives the rows as ``Detection``s.
    """

    frame_index: int
    boxes: np.ndarray | None = None
    scores: np.ndarray | Sequence[float] = ()
    categories: np.ndarray | None = None
    num_categories: int = DEFAULT_NUM_CATEGORIES

    def __post_init__(self):
        shape = np.shape(self.scores)
        table = DetectionTable(
            np.full(shape, self.frame_index),
            np.empty((0, 4)) if self.boxes is None else self.boxes,
            self.scores,
            np.full(shape, -1) if self.categories is None else self.categories,
            self.num_categories,
        )
        columns = table.boxes, table.scores, table.categories
        _set_columns(self, self.frame_index, *columns, self.num_categories)

    @classmethod
    def _from_columns(
        cls,
        frame_index: int,
        boxes: np.ndarray,
        scores: np.ndarray,
        categories: np.ndarray,
        num_categories: int,
    ) -> "FrameDetections":
        """A frame over the given read-only columns, neither copied nor
        checked (a ``DetectionTable``'s, which checked them)."""
        frame = cls.__new__(cls)
        _set_columns(frame, frame_index, boxes, scores, categories, num_categories)
        return frame

    @property
    def detections(self) -> tuple[Detection, ...]:
        """The detections as rows, in column order."""
        labels = category_labels(self.num_categories)
        return tuple(
            Detection(self.frame_index, BoundingBox(*box), score, None if c < 0 else labels[c])
            for box, score, c in zip(
                self.boxes.tolist(), self.scores.tolist(), self.categories.tolist()
            )
        )


#: The columns of a ``DetectionTable``, one entry each per row.
_DETECTION_COLUMNS = ("frames", "boxes", "scores", "categories")


@dataclass(frozen=True, eq=False, slots=True)
class DetectionTable:
    """A stream's detections as one read-only table, stably sorted by frame:
    ``frames`` (k,) beside the three columns of ``FrameDetections``.

    ``DetectionTable(frames, boxes, scores, categories)`` copies the
    columns, checks them with ``row_checks`` (``ValueError`` for the first
    bad row) and sorts them. ``len`` counts the frames, and iterating gives
    one ``FrameDetections`` view per frame. Equality and pickling compare
    and carry the columns.
    """

    frames: np.ndarray
    boxes: np.ndarray
    scores: np.ndarray
    categories: np.ndarray
    num_categories: int = DEFAULT_NUM_CATEGORIES

    def __post_init__(self):
        frames = np.array(self.frames, dtype=np.int64)
        boxes = np.array(self.boxes, dtype=float)
        scores = np.array(self.scores, dtype=float)
        categories = np.array(self.categories, dtype=np.int64)
        if not (
            frames.ndim == 1
            and scores.shape == categories.shape == frames.shape
            and boxes.shape == (len(frames), 4)
        ):
            raise ValueError("detections need a frame, an (x, y, w, h) box, a score and a "
                             "category per row")
        check_rows(
            {"frame": frames, "box": boxes, "score": scores, "category": categories},
            self.num_categories,
        )
        order = np.argsort(frames, kind="stable")
        columns = frames[order], boxes[order], scores[order], categories[order]
        _set_columns(self, *_read_only(*columns), self.num_categories)

    @classmethod
    def _from_checked_rows(cls, frames, boxes, scores, categories, num_categories: int):
        """The table of rows that have passed ``row_checks``, stably sorted
        by frame: the columns themselves, made read-only, not checked,
        sorted or copied again."""
        table = cls.__new__(cls)
        _set_columns(table, *_read_only(frames, boxes, scores, categories), num_categories)
        return table

    def __len__(self) -> int:
        return int(np.count_nonzero(np.diff(self.frames))) + (len(self.frames) > 0)

    def __iter__(self) -> Iterator[FrameDetections]:
        for frame, a, b in frame_runs(self.frames):
            yield FrameDetections._from_columns(
                frame, self.boxes[a:b], self.scores[a:b], self.categories[a:b],
                self.num_categories,
            )

    def __eq__(self, other):
        if not isinstance(other, DetectionTable):
            return NotImplemented
        # As for labels: the category count matters only where a row has one.
        return all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in _DETECTION_COLUMNS
        ) and (self.num_categories == other.num_categories or not (self.categories >= 0).any())

    def __reduce__(self):
        return DetectionTable, (*(getattr(self, name) for name in _DETECTION_COLUMNS),
                                self.num_categories)


def _set_columns(value, *fields):
    """Set the fields of a frozen, slotted ``value`` in declaration order."""
    for name, field in zip(type(value).__slots__, fields):
        object.__setattr__(value, name, field)


def _read_only(*columns: np.ndarray) -> tuple[np.ndarray, ...]:
    for column in columns:
        column.flags.writeable = False
    return columns


def valid_extents(extents: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Mask of the boxes ``BoundingBox`` accepts, from their heights and (4, n)
    rows right (x + w), bottom (y + h), area w * h and aspect w / h."""
    # h, w/h > 0 give w > 0; then the rows are finite only if x, y, w, h are.
    return np.isfinite(extents).all(axis=0) & (np.minimum(h, extents[3]) > 0.0)


def frame_runs(frame_column: np.ndarray) -> list[tuple[int, int, int]]:
    """(frame, start, stop) of each run of one frame index in an ascending
    frame column."""
    if len(frame_column) == 0:
        return []
    bounds = [0, *(np.flatnonzero(np.diff(frame_column)) + 1).tolist(), len(frame_column)]
    return list(zip(frame_column[bounds[:-1]].tolist(), bounds, bounds[1:]))


@dataclass(frozen=True, eq=False)
class Track:
    """A track's id and, as columns in frame order, the frames it matched:
    ``frames`` (k,), ``boxes`` (k, 4) (x, y, w, h) rows and ``categories``
    (k,), -1 where the detection had no label. ``predictions`` gives
    (frame, label) tuples of the labeled rows. Iterating a ``TrackTable``
    gives its tracks, over views of its columns."""

    id: int
    frames: np.ndarray
    boxes: np.ndarray
    categories: np.ndarray
    num_categories: int

    @property
    def labels(self) -> np.ndarray:
        """The categories of the labeled rows, in frame order."""
        return self.categories[self.categories >= 0]

    @property
    def predictions(self) -> list[tuple[int, CategoryLabel]]:
        table = category_labels(self.num_categories)
        return [
            (f, table[c]) for f, c in zip(self.frames.tolist(), self.categories.tolist()) if c >= 0
        ]


@dataclass(frozen=True, eq=False)
class TrackTable:
    """A stream's tracks as one table in id order, ``SceneGroundTruth``'s
    shape with a category per row: ``ids`` (n,) and ``counts`` (n,), each
    track's number of rows; then the rows, track after track and each in
    frame order, ``frames`` (k,), ``boxes`` (k, 4) (x, y, w, h) and
    ``categories`` (k,), -1 where a detection had no label. ``len`` counts
    the tracks; iterating gives a ``Track`` per track, over column views."""

    ids: np.ndarray
    counts: np.ndarray
    frames: np.ndarray
    boxes: np.ndarray
    categories: np.ndarray
    num_categories: int

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[Track]:
        stops = np.cumsum(self.counts).tolist()
        for track_id, a, b in zip(self.ids.tolist(), [0, *stops], stops):
            yield Track(track_id, self.frames[a:b], self.boxes[a:b], self.categories[a:b],
                        self.num_categories)

    def labeled(self) -> "TrackTable":
        """The labeled rows, and the tracks that have any: one table, built
        by the first call and returned by every later one."""
        if "_labeled" not in self.__dict__:
            rows = self.categories >= 0
            owners = np.repeat(np.arange(len(self.ids)), self.counts)[rows]
            counts = np.bincount(owners, minlength=len(self.ids))
            kept = counts > 0
            self.__dict__["_labeled"] = TrackTable(
                self.ids[kept], counts[kept], self.frames[rows], self.boxes[rows],
                self.categories[rows], self.num_categories,
            )
        return self.__dict__["_labeled"]
