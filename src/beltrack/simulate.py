"""Seeded synthetic conveyor scenes: ground-truth trajectories plus noisy
detection and label streams.

Objects ride a horizontal belt (x increases by ``belt_velocity`` every
frame) in fixed lanes, entering from the left edge and leaving on the
right. Noise knobs model detector dropout, box jitter, false positives,
and classifier label flips. Given the same seed and config the output is
bit-identical across runs (PCG64 generator).

Every draw comes from one generator seeded with ``seed``, in this order,
which is what keeps a scene the same from one version to the next:

1. Lane after lane, each spawn's jitter, ``integers`` (only when
   ``spawn_jitter_frames > 0``).
2. Each object in spawn order: its size, ``normal`` (only when
   ``box_size_std > 0``); ``random`` for defect, then ``choice`` of its
   defect category when it is one.
3. Frame after frame, from 0 to the stream's end: each visible truth row,
   in object order, draws ``random`` for dropout (only when
   ``detection_dropout_prob > 0``); if kept, ``normal(0, bbox_jitter_std,
   size=2)`` for its x and y jitter (only when ``bbox_jitter_std > 0``),
   ``normal`` for its score, and ``random`` for a flip (only when
   ``label_flip_prob > 0``), then ``integers(num_categories - 1)`` for the
   other category when it flips. Then, when ``false_positive_rate > 0``,
   ``poisson`` for the frame's false-positive count, and per false positive
   ``normal`` for its size, ``random`` for x, ``random`` for y, ``normal``
   for its score and ``integers(num_categories)`` for its category.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import ConfigError
from .model import (
    DEFAULT_NUM_CATEGORIES,
    CategoryLabel,
    DetectionTable,
    category_labels,
    check_rows,
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
    num_categories: int = DEFAULT_NUM_CATEGORIES

    def __post_init__(self):
        for name in ("defect_probability", "detection_dropout_prob", "label_flip_prob",
                     "score_mean_true", "score_mean_fp"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {value}")
        for name in ("lane_spacing", "belt_velocity", "box_size_mean", "frame_width",
                     "frame_height"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ConfigError(f"{name} must be finite and > 0, got {value}")
        for name in ("box_size_std", "bbox_jitter_std", "score_std_true", "score_std_fp",
                     "false_positive_rate"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ConfigError(f"{name} must be finite and >= 0, got {value}")
        for name, least in (("n_lanes", 1), ("spawn_interval_frames", 1),
                            ("spawn_jitter_frames", 0), ("n_frames", 0),
                            ("n_objects_per_lane", 0), ("num_categories", 2)):
            value = getattr(self, name)
            if value is not None and value < least:  # n_objects_per_lane may be None
                raise ConfigError(f"{name} must be >= {least}, got {value}")
        if len(self.defect_category_weights) != self.num_categories - 1:
            raise ConfigError(
                f"defect_category_weights needs {self.num_categories - 1} entries, "
                f"got {len(self.defect_category_weights)}"
            )
        weights = self.defect_category_weights
        if not all(0.0 <= w < math.inf for w in weights) or sum(weights) <= 0:
            raise ConfigError("defect_category_weights must be finite and non-negative with "
                              "positive sum")


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
    then the rows, object after object and each object's in strictly rising
    frame order, ``frames`` (k,) and ``boxes`` (k, 4) (x, y, w, h), checked
    by ``model.row_checks``. ``generate_scene`` keeps only objects with rows.

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
        # The rows pass a truth file's row checks; each object's frames rise.
        rows = {"frame": frames, "box": boxes, "true_category": np.repeat(categories, counts)}
        check_rows(rows, self.num_categories)
        owners = np.repeat(np.arange(len(counts)), counts)
        if (np.diff(frames)[owners[1:] == owners[:-1]] <= 0).any():
            raise ValueError("each object's frames must be strictly increasing")
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


def _ground_truth(rng: np.random.Generator, config: SimConfig) -> SceneGroundTruth:
    """A scene's true trajectories, drawn first from the scene's generator."""
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
    return SceneGroundTruth(
        np.arange(1, len(counts) + 1)[seen > 0],
        categories[seen > 0],
        seen[seen > 0],
        row_frames,
        np.column_stack((x, np.array(ys)[row_object], row_sizes, row_sizes)),
        config.num_categories,
    )


def generate_scene(config: SimConfig) -> tuple[SceneGroundTruth, DetectionTable]:
    """Build one scene: true trajectories and the noisy detection stream.

    An object spawned at frame s sits fully off-screen at x = -size and moves
    belt_velocity px per frame; it is "visible" (produces a truth box and,
    modulo dropout, a detection) on frames >= 0 with a strictly positive
    overlap with the image. The detection table has no rows on frames
    without detections. The noise draws follow the order the module
    docstring states.
    """
    rng = np.random.default_rng(config.seed)
    truth = _ground_truth(rng, config)

    # The draws, one generator call at a time in stream order, kept as they
    # come: per kept truth row a jitter pair, a raw score and a flip draw
    # (-1: none); per frame a false-positive count; per false positive its
    # raw size, x and y fractions, raw score and category.
    random, normal, integers = rng.random, rng.normal, rng.integers
    dropout, jitter_std, flip = (
        config.detection_dropout_prob, config.bbox_jitter_std, config.label_flip_prob
    )
    fp_size_std, n_others = max(config.box_size_std, 1.0), config.num_categories - 1
    kept, jitter, scores, flips = array("q"), array("d"), array("d"), array("q")
    fp_counts, fp = array("q"), array("d")
    by_frame = iter(np.argsort(truth.frames, kind="stable").tolist())
    n_frames = max(config.n_frames, int(truth.frames.max(initial=-1)) + 1)
    for count in np.bincount(truth.frames, minlength=n_frames).tolist():
        for row in islice(by_frame, count):
            if dropout > 0 and random() < dropout:
                continue
            kept.append(row)
            if jitter_std > 0:
                jitter.extend(normal(0.0, jitter_std, size=2).tolist())
            scores.append(normal(config.score_mean_true, config.score_std_true))
            flips.append(integers(n_others) if flip > 0 and random() < flip else -1)
        if config.false_positive_rate > 0:
            fp_counts.append(rng.poisson(config.false_positive_rate))
            for _ in range(fp_counts[-1]):
                fp.extend((
                    normal(config.box_size_mean, fp_size_std), random(), random(),
                    normal(config.score_mean_fp, config.score_std_fp), integers(n_others + 1),
                ))

    # Truth rows, then false positives: the table's stable frame sort puts a
    # frame's false positives after its truth rows. A flip to the k-th other
    # category is k, or k + 1 from the true category up.
    kept, flips = np.frombuffer(kept, dtype=np.int64), np.frombuffer(flips, dtype=np.int64)
    boxes = truth.boxes[kept]
    if jitter_std > 0:
        boxes[:, :2] += np.frombuffer(jitter).reshape(-1, 2)
    true_categories = np.repeat(truth.categories, truth.counts)[kept]
    size, u, v, fp_scores, fp_categories = np.frombuffer(fp).reshape(-1, 5).T
    size = np.maximum(size, 4.0)
    # ``uniform(0, room)`` is ``0 + room * random()`` in NumPy: the same bits.
    x = np.maximum(config.frame_width - size, 1.0) * u
    y = np.maximum(config.frame_height - size, 1.0) * v
    detections = DetectionTable(
        np.concatenate((truth.frames[kept], np.repeat(np.arange(len(fp_counts)), fp_counts))),
        np.concatenate((boxes, np.column_stack((x, y, size, size)))),
        np.clip(np.concatenate((np.frombuffer(scores), fp_scores)), 0.0, 1.0),
        np.concatenate((
            np.where(flips < 0, true_categories, flips + (flips >= true_categories)), fp_categories,
        )),
        config.num_categories,
    )
    return truth, detections
