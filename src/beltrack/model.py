"""Shared domain vocabulary: boxes, detections, categories, and tracks.

Everything here is immutable value data except :class:`Track`, which is
owned and mutated exclusively by the tracker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
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
        for name in ("x", "y", "w", "h"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"box field {name!r} must be finite, got {value!r}")
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"box size must be positive, got w={self.w}, h={self.h}")

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


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes: 0 when disjoint, 1 when identical.

    Areas are computed from the same corner coordinates the intersection
    uses, so identical boxes score exactly 1.0 under floating point.
    """
    a_right, a_bottom = a.x + a.w, a.y + a.h
    b_right, b_bottom = b.x + b.w, b.y + b.h
    iw = min(a_right, b_right) - max(a.x, b.x)
    ih = min(a_bottom, b_bottom) - max(a.y, b.y)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    area_a = (a_right - a.x) * (a_bottom - a.y)
    area_b = (b_right - b.x) * (b_bottom - b.y)
    return inter / (area_a + area_b - inter)


def xywh_array(boxes: Sequence[BoundingBox]) -> np.ndarray:
    """The boxes as an (n, 4) array of (x, y, w, h) rows."""
    return np.array([(b.x, b.y, b.w, b.h) for b in boxes], dtype=float).reshape(-1, 4)


def corners(xywh: np.ndarray) -> np.ndarray:
    """(n, 4) (x, y, w, h) rows as (x, y, right, bottom) corner rows."""
    out = xywh.copy()
    out[:, 2:] += xywh[:, :2]
    return out


def iou_matrix(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Pairwise IoU between two (n, 4) corner arrays, shape (len(rows), len(cols))."""
    iw = np.minimum(rows[:, None, 2], cols[None, :, 2]) - np.maximum(rows[:, None, 0], cols[None, :, 0])
    ih = np.minimum(rows[:, None, 3], cols[None, :, 3]) - np.maximum(rows[:, None, 1], cols[None, :, 1])
    inter = np.maximum(iw, 0.0) * np.maximum(ih, 0.0)
    area_r = (rows[:, 2] - rows[:, 0]) * (rows[:, 3] - rows[:, 1])
    area_c = (cols[:, 2] - cols[:, 0]) * (cols[:, 3] - cols[:, 1])
    return inter / (area_r[:, None] + area_c[None, :] - inter)


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
        if self.frame_index < 0:
            raise ValueError(f"frame_index must be >= 0, got {self.frame_index}")
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must be in [0, 1], got {self.score}")


@dataclass(frozen=True)
class FrameDetections:
    """All detections of a single frame."""

    frame_index: int
    detections: tuple[Detection, ...]

    def __init__(self, frame_index: int, detections=()):
        object.__setattr__(self, "frame_index", frame_index)
        object.__setattr__(self, "detections", tuple(detections))
        for det in self.detections:
            if det.frame_index != frame_index:
                raise ValueError(
                    f"detection frame {det.frame_index} does not match frame {frame_index}"
                )


class TrackStatus(Enum):
    TENTATIVE = "tentative"
    ACTIVE = "active"
    LOST = "lost"
    REMOVED = "removed"


@dataclass
class Track:
    """Persistent object identity with motion state, box history, and the
    per-frame category predictions recorded while the track was matched.

    Mutated only by the tracker; treat instances obtained from
    ``ByteTracker.finalize`` as read-only snapshots. The tracker steps the
    filters of live tracks as one batch, so ``state`` is a snapshot of this
    track's filter: written when the track is removed, and for live tracks
    on each ``finalize``; None before either.
    """

    id: int
    state: "KalmanState | None"
    status: TrackStatus
    last_update_frame: int
    hit_count: int = 1
    history: list[tuple[int, BoundingBox]] = field(default_factory=list)
    predictions: list[tuple[int, CategoryLabel]] = field(default_factory=list)

    @property
    def length(self) -> int:
        """Number of frames on which the track matched a detection."""
        return len(self.history)
