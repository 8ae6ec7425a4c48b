"""Shared domain vocabulary: boxes, detections, categories, and tracks.

Everything here is immutable value data except :class:`Track`, which is
owned and mutated exclusively by the tracker. A frame's detections are held
as columns (:class:`FrameDetections`); :class:`Detection` is the row type
callers build frames from and read them back as.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Sequence

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

    @property
    def right(self) -> float:
        return self.x + self.w

    @property
    def bottom(self) -> float:
        return self.y + self.h

    @property
    def cx(self) -> float:
        return self.x + self.w / 2.0

    @property
    def cy(self) -> float:
        return self.y + self.h / 2.0

    @property
    def area(self) -> float:
        return self.w * self.h


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


def check_detection(frame_index: int, score: float):
    """Raise ``ValueError`` unless a detection's frame index and score are
    ones ``Detection`` accepts (it checks its box first)."""
    if frame_index < 0:
        raise ValueError(f"frame_index must be >= 0, got {frame_index}")
    if not 0.0 <= score <= 1.0:
        raise ValueError(f"score must be in [0, 1], got {score}")


def box_history(frames: np.ndarray, boxes: np.ndarray) -> list[tuple[int, BoundingBox]]:
    """(frame, box) pairs from a frame column and its (k, 4) (x, y, w, h) rows."""
    return [(f, BoundingBox(*box)) for f, box in zip(frames.tolist(), boxes.tolist())]


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes: 0 when disjoint, 1 when identical.

    Areas are computed from the same corner coordinates the intersection
    uses, so identical boxes score exactly 1.0 under floating point; the
    union is summed over halved areas so that it cannot overflow.
    """
    a_right, a_bottom = a.x + a.w, a.y + a.h
    b_right, b_bottom = b.x + b.w, b.y + b.h
    iw = min(a_right, b_right) - max(a.x, b.x)
    ih = min(a_bottom, b_bottom) - max(a.y, b.y)
    inter = iw * ih
    if iw <= 0.0 or ih <= 0.0 or inter == 0.0:  # disjoint, or too small for a float
        return 0.0
    area_a = (a_right - a.x) * (a_bottom - a.y)
    area_b = (b_right - b.x) * (b_bottom - b.y)
    return inter / 2 / (area_a / 2 + area_b / 2 - inter / 2)


def xywh_array(boxes: Sequence[BoundingBox]) -> np.ndarray:
    """The boxes as an (n, 4) array of (x, y, w, h) rows."""
    return np.array([(b.x, b.y, b.w, b.h) for b in boxes], dtype=float).reshape(-1, 4)


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
    # Halved, as in the scalar ``iou``, the union cannot overflow.
    union = np.add(halves[: rows.shape[1], None], halves[rows.shape[1] :], out=overlap[1])
    union -= half
    # Pairs without a float overlap keep 0 and skip the division, which
    # could be 0/0; fmax scores an inf/inf pair 0, as the scalar ``iou`` does.
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


FRESH = CategoryLabel(0)
BRUISE = CategoryLabel(1)
ROT = CategoryLabel(2)
SCAB = CategoryLabel(3)


class BinaryQuality(Enum):
    """Industrial pass/fail label collapsed from the multi-class categories."""

    NORMAL = "normal"
    DEFECT = "defect"


def to_binary(label: CategoryLabel) -> BinaryQuality:
    """Collapse a category to binary: fresh (index 0) is normal, everything else defect."""
    return BinaryQuality.NORMAL if label.index == 0 else BinaryQuality.DEFECT


@dataclass(frozen=True)
class Detection:
    """One detector output box at one frame, with an optional classifier label."""

    frame_index: int
    box: BoundingBox
    score: float
    category_observation: CategoryLabel | None = None

    def __post_init__(self):
        check_detection(self.frame_index, self.score)


class FrameDetections:
    """All detections of a single frame, held as read-only columns:
    ``boxes`` (n, 4) (x, y, w, h) rows, ``scores`` (n,) and ``categories``
    (n,) category indices in [0, num_categories), -1 where a box has no
    classifier label.

    ``FrameDetections(frame, [Detection, ...])`` builds the columns from
    checked rows, and ``detections`` gives the rows back. Equality and
    pickling compare and carry the columns.
    """

    __slots__ = ("frame_index", "boxes", "scores", "categories", "num_categories")

    def __init__(self, frame_index: int, detections: Iterable[Detection] = ()):
        rows = tuple(detections)
        for det in rows:
            if det.frame_index != frame_index:
                raise ValueError(
                    f"detection frame {det.frame_index} does not match frame {frame_index}"
                )
        counts = {
            det.category_observation.num_categories
            for det in rows
            if det.category_observation is not None
        }
        if len(counts) > 1:
            raise ValueError(f"frame {frame_index} mixes category counts {sorted(counts)}")
        self._set_columns(
            frame_index,
            xywh_array([det.box for det in rows]),
            np.array([det.score for det in rows], dtype=float),
            np.array(
                [
                    -1 if det.category_observation is None else det.category_observation.index
                    for det in rows
                ],
                dtype=np.int64,
            ),
            counts.pop() if counts else DEFAULT_NUM_CATEGORIES,
        )

    @classmethod
    def _from_columns(
        cls,
        frame_index: int,
        boxes: np.ndarray,
        scores: np.ndarray,
        categories: np.ndarray,
        num_categories: int,
    ) -> "FrameDetections":
        """A frame over the given columns, neither copied nor checked (see
        ``split_frames``, which checks them)."""
        frame = cls.__new__(cls)
        frame._set_columns(frame_index, boxes, scores, categories, num_categories)
        return frame

    def _set_columns(self, frame_index, boxes, scores, categories, num_categories):
        for column in (boxes, scores, categories):
            column.flags.writeable = False
        for name, value in zip(
            self.__slots__, (frame_index, boxes, scores, categories, num_categories)
        ):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"FrameDetections is immutable; cannot set {name!r}")

    @property
    def detections(self) -> tuple[Detection, ...]:
        """The detections as checked rows, in column order."""
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

    __hash__ = None

    def __reduce__(self):
        return (
            FrameDetections._from_columns,
            (self.frame_index, self.boxes, self.scores, self.categories, self.num_categories),
        )

    def __repr__(self):
        return (
            f"FrameDetections({self.frame_index}, boxes={self.boxes.tolist()}, "
            f"scores={self.scores.tolist()}, categories={self.categories.tolist()}, "
            f"num_categories={self.num_categories})"
        )


def detection_row(
    frame_index: int,
    box: Sequence[float],
    score: float,
    category: int,
    num_categories: int,
) -> Detection:
    """One table row as a checked ``Detection``; category -1 is no label."""
    label = None if category == -1 else CategoryLabel(category, num_categories)
    return Detection(frame_index, BoundingBox(*box), score, label)


def valid_extents(extents: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Mask of the boxes ``BoundingBox`` accepts, from their heights and (4, n)
    rows right (x + w), bottom (y + h), area w * h and aspect w / h."""
    # h, w/h > 0 give w > 0; then the rows are finite only if x, y, w, h are.
    return np.isfinite(extents).all(axis=0) & (np.minimum(h, extents[3]) > 0.0)


def valid_detection_rows(
    boxes: np.ndarray, scores: np.ndarray, categories: np.ndarray, num_categories: int
) -> np.ndarray:
    """Mask of the table rows ``detection_row`` accepts (given a valid frame
    index), checked column by column."""
    x, y, w, h = boxes.T
    with np.errstate(all="ignore"):
        extents = np.array([x + w, y + h, w * h, w / h])
    labels = (categories >= -1) & (categories < num_categories)
    return valid_extents(extents, h) & (scores >= 0.0) & (scores <= 1.0) & labels


def split_frames(
    frame_indices: np.ndarray,
    boxes: np.ndarray,
    scores: np.ndarray,
    categories: np.ndarray,
    num_categories: int,
) -> list[FrameDetections]:
    """One frame per distinct frame index, in frame order, from a table of
    detection rows (category -1: no label). The rows of a frame keep their
    table order; the frames are views of one sorted copy.

    Raises ``ValueError`` for the first row that ``detection_row`` rejects.
    """
    valid = valid_detection_rows(boxes, scores, categories, num_categories) & (frame_indices >= 0)
    if not valid.all():
        i = int(np.argmin(valid))
        detection_row(
            int(frame_indices[i]), boxes[i].tolist(), float(scores[i]),
            int(categories[i]), num_categories,
        )
    order = np.argsort(frame_indices, kind="stable")
    boxes, scores, categories = boxes[order], scores[order], categories[order]
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
    label. ``history`` and ``predictions`` give (frame, box) and (frame,
    label) tuples.

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
    def history(self) -> list[tuple[int, BoundingBox]]:
        return box_history(self.frames, self.boxes)

    @property
    def predictions(self) -> list[tuple[int, CategoryLabel]]:
        table = category_labels(self.num_categories)
        return [
            (f, table[c]) for f, c in zip(self.frames.tolist(), self.categories.tolist()) if c >= 0
        ]
