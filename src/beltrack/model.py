"""Shared domain vocabulary: boxes, detections, categories, and tracks.

Everything here is immutable value data except :class:`Track`, which is
owned and mutated exclusively by the tracker. Detections and tracks are held
as columns: a frame's detections (:class:`FrameDetections`) and a track's
matches (:class:`Track`) are (x, y, w, h) box rows beside score and category
columns, checked and compared as tables (``split_frames``, ``iou_matrix``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from .kalman import KalmanState

DEFAULT_NUM_CATEGORIES = 4

#: Canonical category ordering. Index 0 is the only non-defect category;
#: the binary collapse below relies on that.
CATEGORY_NAMES = ("fresh", "bruise_defect", "rot_defect", "scab_defect")


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box in pixel coordinates: top-left corner plus size."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        check_box(self.x, self.y, self.w, self.h)


def check_box(x: float, y: float, w: float, h: float):
    """Raise ``ValueError`` unless (x, y, w, h) is a box ``BoundingBox``
    accepts: every field, edge, the area and the aspect w/h finite, and w,
    h and w/h positive."""
    # One test for the common case: a sum of non-negative terms is finite
    # only when every term is, and |x + w| <= |x| + w, so then every field,
    # extent and the aspect is finite (when the sum overflows, the checks
    # below settle it).
    if w > 0 and h > 0:
        aspect = w / h
        if aspect > 0 and math.isfinite(abs(x) + abs(y) + w + h + w * h + aspect):
            return
    for name, value in (("x", x), ("y", y), ("w", w), ("h", h)):
        if not math.isfinite(value):
            raise ValueError(f"box field {name!r} must be finite, got {value!r}")
    if w <= 0 or h <= 0:
        raise ValueError(f"box size must be positive, got w={w}, h={h}")
    # Finite fields can still overflow: the tracker's overlap areas would
    # then turn into inf and nan, and its filter, which encodes the aspect
    # w/h, would start from inf or 0.
    for name, value in (
        ("right", x + w), ("bottom", y + h), ("area", w * h), ("aspect w/h", w / h)
    ):
        if not math.isfinite(value):
            raise ValueError(f"box {name} must be finite, got {value!r}")
    if not w / h > 0:
        raise ValueError(f"box aspect w/h must be positive, got {w / h!r}")


def check_detection_row(
    frame_index: int,
    box: Sequence[float],
    score: float,
    category: int | None,
    num_categories: int,
):
    """Raise ``ValueError`` unless one table row holds a detection, checking
    its label (category None: no label), its box, its frame index and its
    score, in that order."""
    if category is not None:
        CategoryLabel(category, num_categories)
    check_box(*box)
    if frame_index < 0:
        raise ValueError(f"frame_index must be >= 0, got {frame_index}")
    if not 0.0 <= score <= 1.0:
        raise ValueError(f"score must be in [0, 1], got {score}")


def corners(xywh: np.ndarray) -> np.ndarray:
    """(n, 4) (x, y, w, h) rows as (4, n) corner rows: x, y, right, bottom."""
    xy = xywh[:, :2].T
    return np.concatenate([xy, xy + xywh[:, 2:].T])


def iou_matrix(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Pairwise IoU between (4, n) and (4, m) corner rows (see ``corners``),
    shape (n, m)."""
    edges = np.concatenate([rows, cols], axis=1)
    halves = (edges[2] - edges[0]) * (edges[3] - edges[1]) / 2  # both sets' halved areas
    # The overlaps' widths and heights, then their halved areas and unions.
    overlap = np.minimum(rows[2:, :, None], cols[2:, None, :])
    overlap -= np.maximum(rows[:2, :, None], cols[:2, None, :])
    np.maximum(overlap, 0.0, out=overlap)
    half = np.multiply(overlap[0], overlap[1], out=overlap[0])
    half /= 2
    # Halved, the union cannot overflow.
    union = np.add(halves[: rows.shape[1], None], halves[rows.shape[1] :], out=overlap[1])
    union -= half
    # Pairs without a float overlap keep 0 and skip the division, which
    # could be 0/0; fmax scores an inf/inf pair 0.
    np.divide(half, union, out=half, where=half > 0.0)
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

    @property
    def name(self) -> str:
        if self.num_categories == DEFAULT_NUM_CATEGORIES:
            return CATEGORY_NAMES[self.index]
        return f"category_{self.index}"


@lru_cache(maxsize=16)
def category_labels(num_categories: int) -> tuple[CategoryLabel, ...]:
    """The label of each category index, built once and shared."""
    return tuple(CategoryLabel(index, num_categories) for index in range(num_categories))


class BinaryQuality(Enum):
    """Industrial pass/fail label collapsed from the multi-class categories."""

    NORMAL = "normal"
    DEFECT = "defect"


def to_binary(label: CategoryLabel) -> BinaryQuality:
    """Collapse a category to binary: fresh (index 0) is normal, everything else defect."""
    return BinaryQuality.NORMAL if label.index == 0 else BinaryQuality.DEFECT


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

    ``FrameDetections(frame, boxes, scores, categories)`` copies the columns
    and checks them as ``split_frames`` does; without ``categories`` no box
    has a label, and ``FrameDetections(frame)`` is an empty frame.
    ``detections`` gives the rows as ``Detection``s. Equality and pickling
    compare and carry the columns.
    """

    frame_index: int
    boxes: np.ndarray | None = None
    scores: np.ndarray | Sequence[float] = ()
    categories: np.ndarray | None = None
    num_categories: int = DEFAULT_NUM_CATEGORIES

    def __post_init__(self):
        scores = np.array(self.scores, dtype=float)
        boxes = np.array(np.empty((0, 4)) if self.boxes is None else self.boxes, dtype=float)
        if self.categories is None:
            categories = np.full(scores.shape, -1, dtype=np.int64)
        else:
            categories = np.array(self.categories, dtype=np.int64)
        if not (
            scores.ndim == 1
            and boxes.shape == (len(scores), 4)
            and categories.shape == scores.shape
        ):
            raise ValueError("a frame needs an (x, y, w, h) box, a score and a category per row")
        frames = np.full(len(scores), self.frame_index)
        _check_rows(frames, boxes, scores, categories, self.num_categories)
        columns = _read_only(boxes, scores, categories)
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
        checked (see ``split_frames``, which checks them)."""
        frame = cls.__new__(cls)
        _set_columns(frame, frame_index, boxes, scores, categories, num_categories)
        return frame

    @classmethod
    def _unpickle(cls, frame_index, boxes, scores, categories, num_categories):
        """A frame over unpickled columns, which it makes read-only."""
        return cls._from_columns(
            frame_index, *_read_only(boxes, scores, categories), num_categories
        )

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

    def __eq__(self, other):
        if not isinstance(other, FrameDetections):
            return NotImplemented
        # As for rows: the category count is part of a label, so it only
        # matters where a row carries one.
        return (
            self.frame_index == other.frame_index
            and np.array_equal(self.boxes, other.boxes)
            and np.array_equal(self.scores, other.scores)
            and np.array_equal(self.categories, other.categories)
            and (self.num_categories == other.num_categories or not (self.categories >= 0).any())
        )

    def __reduce__(self):
        return (
            FrameDetections._unpickle,
            (self.frame_index, self.boxes, self.scores, self.categories, self.num_categories),
        )


def _set_columns(frame, *values):
    for name, value in zip(FrameDetections.__slots__, values):
        object.__setattr__(frame, name, value)


def _read_only(*columns: np.ndarray) -> tuple[np.ndarray, ...]:
    for column in columns:
        column.flags.writeable = False
    return columns


def valid_extents(extents: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Mask of the boxes ``BoundingBox`` accepts, from their heights and (4, n)
    rows right (x + w), bottom (y + h), area w * h and aspect w / h."""
    # h, w/h > 0 give w > 0; then the rows are finite only if x, y, w, h are.
    return np.isfinite(extents).all(axis=0) & (np.minimum(h, extents[3]) > 0.0)


def valid_detection_rows(
    boxes: np.ndarray, scores: np.ndarray, categories: np.ndarray, num_categories: int
) -> np.ndarray:
    """Mask of the table rows ``check_detection_row`` accepts (given a valid
    frame index; category -1: no label), checked column by column."""
    x, y, w, h = boxes.T
    with np.errstate(all="ignore"):
        extents = np.array([x + w, y + h, w * h, w / h])
    labels = (categories >= -1) & (categories < num_categories)
    return valid_extents(extents, h) & (scores >= 0.0) & (scores <= 1.0) & labels


def _check_rows(
    frame_indices: np.ndarray,
    boxes: np.ndarray,
    scores: np.ndarray,
    categories: np.ndarray,
    num_categories: int,
):
    """Raise ``ValueError`` for the first row ``check_detection_row`` rejects
    (category -1: no label), in its words."""
    valid = valid_detection_rows(boxes, scores, categories, num_categories) & (frame_indices >= 0)
    if not valid.all():
        i = int(np.argmin(valid))
        category = int(categories[i])
        check_detection_row(
            int(frame_indices[i]), boxes[i].tolist(), float(scores[i]),
            None if category == -1 else category, num_categories,
        )


def split_frames(
    frame_indices: np.ndarray,
    boxes: np.ndarray,
    scores: np.ndarray,
    categories: np.ndarray,
    num_categories: int,
) -> list[FrameDetections]:
    """One frame per distinct frame index, in frame order, from a table of
    detection rows (category -1: no label). The rows of a frame keep their
    table order; the frames are views of one sorted, read-only copy.

    Raises ``ValueError`` for the first row that ``check_detection_row``
    rejects.
    """
    _check_rows(frame_indices, boxes, scores, categories, num_categories)
    order = np.argsort(frame_indices, kind="stable")
    boxes, scores, categories = _read_only(boxes[order], scores[order], categories[order])
    return [
        FrameDetections._from_columns(
            frame, boxes[a:b], scores[a:b], categories[a:b], num_categories
        )
        for frame, a, b in frame_runs(frame_indices[order])
    ]


def frame_runs(frame_column: np.ndarray) -> list[tuple[int, int, int]]:
    """(frame, start, stop) of each run of one frame index in an ascending
    frame column."""
    if len(frame_column) == 0:
        return []
    bounds = [0, *(np.flatnonzero(np.diff(frame_column)) + 1).tolist(), len(frame_column)]
    return list(zip(frame_column[bounds[:-1]].tolist(), bounds, bounds[1:]))


class TrackStatus(Enum):
    TENTATIVE = "tentative"
    ACTIVE = "active"
    LOST = "lost"
    REMOVED = "removed"


@dataclass(eq=False)
class Track:
    """Persistent object identity with motion state and, as columns in
    frame order, the frames it matched: ``frames`` (k,), ``boxes`` (k, 4)
    (x, y, w, h) rows and ``categories`` (k,), -1 where the detection had no
    label. ``predictions`` gives (frame, label) tuples of the labeled rows.

    ``ByteTracker`` builds a track once it is removed, or on ``finalize``
    while live, with its lifecycle fields and ``state`` (a snapshot of its
    filter, None for a track built elsewhere) as they are then; ``finalize``
    fills the columns with read-only views of the match table.
    """

    id: int
    state: "KalmanState | None"
    status: TrackStatus
    last_update_frame: int
    hit_count: int = 1
    frames: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    boxes: np.ndarray = field(default_factory=lambda: np.zeros((0, 4)))
    categories: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    num_categories: int = DEFAULT_NUM_CATEGORIES

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
