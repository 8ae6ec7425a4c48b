"""Seeded synthetic conveyor scenes: ground-truth trajectories plus noisy
detection and label streams.

Objects ride a horizontal belt (x increases by ``belt_velocity`` every
frame) in fixed lanes, entering from the left edge and leaving on the
right. Noise knobs model detector dropout, box jitter, false positives,
and classifier label flips. Given the same seed and config the output is
bit-identical across runs (PCG64 generator).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .model import (
    DEFAULT_NUM_CATEGORIES,
    CategoryLabel,
    FrameDetections,
    category_labels,
    frame_runs,
    split_frames,
)


@dataclass(frozen=True)
class SimConfig:
    seed: int = 0
    n_lanes: int = 2
    lane_spacing: float = 80.0
    belt_velocity: float = 5.0
    spawn_interval_frames: int = 20
    spawn_jitter_frames: int = 0
    box_size_mean: float = 32.0
    box_size_std: float = 0.0
    n_frames: int = 200
    frame_width: float = 320.0
    frame_height: float = 240.0
    defect_probability: float = 0.3
    defect_category_weights: tuple[float, ...] = (1.0, 1.0, 1.0)
    detection_dropout_prob: float = 0.0
    bbox_jitter_std: float = 0.0
    false_positive_rate: float = 0.0
    score_mean_true: float = 0.9
    score_std_true: float = 0.03
    score_mean_fp: float = 0.3
    score_std_fp: float = 0.05
    label_flip_prob: float = 0.0
    n_objects_per_lane: int | None = None  # None: keep spawning until the stream ends
    num_categories: int = 4

    def __post_init__(self):
        for name in ("defect_probability", "detection_dropout_prob", "label_flip_prob",
                     "score_mean_true", "score_mean_fp"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {value}")
        if self.lane_spacing <= 0:
            raise ConfigError(f"lane_spacing must be > 0, got {self.lane_spacing}")
        if self.belt_velocity <= 0:
            raise ConfigError(f"belt_velocity must be > 0, got {self.belt_velocity}")
        if self.n_lanes < 1:
            raise ConfigError(f"n_lanes must be >= 1, got {self.n_lanes}")
        if self.spawn_interval_frames < 1:
            raise ConfigError(f"spawn_interval_frames must be >= 1, got {self.spawn_interval_frames}")
        if self.spawn_jitter_frames < 0:
            raise ConfigError(f"spawn_jitter_frames must be >= 0, got {self.spawn_jitter_frames}")
        if self.box_size_mean <= 0:
            raise ConfigError(f"box_size_mean must be > 0, got {self.box_size_mean}")
        if len(self.defect_category_weights) != self.num_categories - 1:
            raise ConfigError(
                f"defect_category_weights needs {self.num_categories - 1} entries, "
                f"got {len(self.defect_category_weights)}"
            )
        if min(self.defect_category_weights) < 0 or sum(self.defect_category_weights) <= 0:
            raise ConfigError("defect_category_weights must be non-negative with positive sum")
        if self.false_positive_rate < 0:
            raise ConfigError(f"false_positive_rate must be >= 0, got {self.false_positive_rate}")


@dataclass(frozen=True, eq=False)
class GroundTruthObject:
    """One object of a ``SceneGroundTruth``: its id, its true category and
    read-only views of its rows, ``frames`` (k,) in frame order and
    ``boxes`` (k, 4) (x, y, w, h)."""

    object_id: int
    true_category: CategoryLabel
    frames: np.ndarray
    boxes: np.ndarray


#: The columns of a ``SceneGroundTruth``: one entry per object, then one per row.
_TRUTH_COLUMNS = ("object_ids", "categories", "counts", "frames", "boxes")


@dataclass(frozen=True, eq=False)
class SceneGroundTruth:
    """The true trajectories of a scene as one read-only table in object
    order: ``object_ids`` (n,), true ``categories`` (n,) (indices in
    [0, num_categories)) and ``counts`` (n,), each object's number of rows;
    then the rows, object after object and each object's in frame order,
    ``frames`` (k,) and ``boxes`` (k, 4) (x, y, w, h). ``generate_scene``
    keeps only objects with rows.

    ``objects`` gives one ``GroundTruthObject`` view per object, built on
    each access. Equality and pickling compare and carry the columns.
    """

    object_ids: np.ndarray
    categories: np.ndarray
    counts: np.ndarray
    frames: np.ndarray
    boxes: np.ndarray
    num_categories: int = DEFAULT_NUM_CATEGORIES

    def __post_init__(self):
        ids, categories, counts, frames = (
            np.array(getattr(self, name), dtype=np.int64) for name in _TRUTH_COLUMNS[:4]
        )
        boxes = np.array(self.boxes, dtype=float)
        if not (
            ids.ndim == frames.ndim == 1
            and categories.shape == counts.shape == ids.shape
            and boxes.shape == (len(frames), 4)
            and (counts >= 0).all()
            and counts.sum() == len(frames)
        ):
            raise ValueError(
                "ground truth needs a category and a row count per object, and a frame "
                "and an (x, y, w, h) box per row, as many rows as the counts add up to"
            )
        if ((categories < 0) | (categories >= self.num_categories)).any():
            raise ValueError(f"true categories must be in [0, {self.num_categories})")
        for name, column in zip(_TRUTH_COLUMNS, (ids, categories, counts, frames, boxes)):
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    @property
    def objects(self) -> tuple[GroundTruthObject, ...]:
        """One view per object, in table order."""
        labels = category_labels(self.num_categories)
        stops = np.cumsum(self.counts).tolist()
        return tuple(
            GroundTruthObject(object_id, labels[c], self.frames[a:b], self.boxes[a:b])
            for object_id, c, a, b in zip(
                self.object_ids.tolist(), self.categories.tolist(), [0, *stops], stops
            )
        )

    def __eq__(self, other):
        if not isinstance(other, SceneGroundTruth):
            return NotImplemented
        # As for labels: the category count matters only where there is an object.
        return all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in _TRUTH_COLUMNS
        ) and (self.num_categories == other.num_categories or not len(self.object_ids))

    __hash__ = None

    def __reduce__(self):
        return SceneGroundTruth, (*(getattr(self, n) for n in _TRUTH_COLUMNS), self.num_categories)


def _spawn_times(rng: np.random.Generator, config: SimConfig) -> list[int]:
    """Spawn schedule for one lane: nominal interval plus integer jitter,
    kept strictly increasing."""
    times = []
    k = 0
    while True:
        if config.n_objects_per_lane is not None and k >= config.n_objects_per_lane:
            break
        nominal = k * config.spawn_interval_frames
        if config.spawn_jitter_frames > 0:
            nominal += int(
                rng.integers(-config.spawn_jitter_frames, config.spawn_jitter_frames + 1)
            )
        if times:
            nominal = max(nominal, times[-1] + 1)
        if config.n_objects_per_lane is None and nominal >= config.n_frames:
            break
        times.append(nominal)
        k += 1
    return times


def generate_scene(config: SimConfig) -> tuple[SceneGroundTruth, list[FrameDetections]]:
    """Build one scene: true trajectories and the noisy detection stream.

    An object spawned at frame s sits fully off-screen at x = -size and moves
    belt_velocity px per frame; it is "visible" (produces a truth box and,
    modulo dropout, a detection) on frames >= 0 with a strictly positive
    overlap with the image. Frames with no detections are omitted from the
    stream.
    """
    rng = np.random.default_rng(config.seed)

    lane_spawns = [_spawn_times(rng, config) for _ in range(config.n_lanes)]
    spawn_list = sorted(
        (t, lane) for lane, times in enumerate(lane_spawns) for t in times
    )

    # Each object's size, category, lane offset and the steps it may be seen.
    sizes, categories, ys, starts, stops = [], [], [], [], []
    for spawn, lane in spawn_list:
        if config.box_size_std > 0:
            size = max(4.0, float(rng.normal(config.box_size_mean, config.box_size_std)))
        else:
            size = config.box_size_mean
        if rng.random() < config.defect_probability:
            weights = np.asarray(config.defect_category_weights, dtype=float)
            weights = weights / weights.sum()
            index = 1 + int(rng.choice(len(weights), p=weights))
        else:
            index = 0
        sizes.append(size)
        categories.append(index)
        ys.append((lane + 0.5) * config.lane_spacing - size / 2.0)
        # A jittered spawn can fall before frame 0; the stream starts at 0,
        # so truth starts there too. One step after it crosses the image, a
        # box is past the right edge. With a fixed object budget the stream
        # runs until the last object exits; otherwise trajectories are cut
        # off at n_frames.
        start = max(1, -spawn)
        stop = math.ceil((config.frame_width + size) / config.belt_velocity) + 1
        if config.n_objects_per_lane is None:
            stop = min(stop, config.n_frames - spawn)
        starts.append(start)
        stops.append(max(start, stop))

    # Step s of an object is frame spawn + s, at x = -size + belt_velocity * s;
    # the object is seen until its box reaches the right edge.
    starts = np.array(starts, dtype=np.int64)
    counts = np.array(stops, dtype=np.int64) - starts
    row_object = np.repeat(np.arange(len(counts)), counts)
    steps = np.arange(len(row_object)) - (np.cumsum(counts) - counts - starts)[row_object]
    x = -np.array(sizes)[row_object] + config.belt_velocity * steps
    inside = x < config.frame_width
    row_object, steps, x = row_object[inside], steps[inside], x[inside]
    row_frames = np.array([spawn for spawn, _ in spawn_list], dtype=np.int64)[row_object] + steps
    row_sizes = np.array(sizes)[row_object]
    # Objects no frame shows are left out; no random draw depends on them.
    categories = np.array(categories, dtype=np.int64)
    seen = np.bincount(row_object, minlength=len(counts))  # rows per object
    truth = SceneGroundTruth(
        np.arange(1, len(counts) + 1)[seen > 0],
        categories[seen > 0],
        seen[seen > 0],
        row_frames,
        np.column_stack((x, np.array(ys)[row_object], row_sizes, row_sizes)),
        config.num_categories,
    )

    # The rows of each frame, in object order.
    by_frame = np.argsort(row_frames, kind="stable")
    visible = {frame: by_frame[a:b] for frame, a, b in frame_runs(row_frames[by_frame])}
    row_category = categories[row_object]

    # One (frame, x, y, w, h, score, category) row per detection, in stream order.
    rows: list[tuple] = []
    last_frame = int(row_frames.max()) if len(row_frames) else -1
    n_frames = max(config.n_frames, last_frame + 1)
    for frame in range(n_frames):
        seen = visible.get(frame, by_frame[:0])
        boxes, true_indices = truth.boxes[seen].tolist(), row_category[seen].tolist()
        for (x, y, w, h), true_index in zip(boxes, true_indices):
            if config.detection_dropout_prob > 0 and rng.random() < config.detection_dropout_prob:
                continue
            if config.bbox_jitter_std > 0:
                dx, dy = rng.normal(0.0, config.bbox_jitter_std, size=2)
                x, y = x + dx, y + dy
            score = float(rng.normal(config.score_mean_true, config.score_std_true))
            score = min(max(score, 0.0), 1.0)
            index = true_index
            if config.label_flip_prob > 0 and rng.random() < config.label_flip_prob:
                others = [c for c in range(config.num_categories) if c != true_index]
                index = others[int(rng.integers(len(others)))]
            rows.append((frame, x, y, w, h, score, index))
        if config.false_positive_rate > 0:
            for _ in range(int(rng.poisson(config.false_positive_rate))):
                size = max(4.0, float(rng.normal(config.box_size_mean, max(config.box_size_std, 1.0))))
                x = float(rng.uniform(0.0, max(config.frame_width - size, 1.0)))
                y = float(rng.uniform(0.0, max(config.frame_height - size, 1.0)))
                score = float(rng.normal(config.score_mean_fp, config.score_std_fp))
                score = min(max(score, 0.0), 1.0)
                category = int(rng.integers(config.num_categories))
                rows.append((frame, x, y, size, size, score, category))

    table = np.array(rows, dtype=float).reshape(-1, 7)
    frames = split_frames(
        table[:, 0].astype(np.int64),
        table[:, 1:5],
        table[:, 5],
        table[:, 6].astype(np.int64),
        config.num_categories,
    )
    return truth, frames
