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
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .model import BoundingBox, CategoryLabel, FrameDetections, split_frames


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


@dataclass(frozen=True)
class GroundTruthObject:
    object_id: int
    true_category: CategoryLabel
    boxes: tuple[tuple[int, BoundingBox], ...]  # (frame_index, true box), ordered


@dataclass(frozen=True)
class SceneGroundTruth:
    objects: tuple[GroundTruthObject, ...] = field(default_factory=tuple)


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

    objects = []
    for object_id, (spawn, lane) in enumerate(spawn_list, start=1):
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
        category = CategoryLabel(index, config.num_categories)

        y = (lane + 0.5) * config.lane_spacing - size / 2.0
        # With a fixed object budget the stream runs until the last object
        # exits; otherwise trajectories are cut off at n_frames.
        horizon = math.inf if config.n_objects_per_lane is not None else config.n_frames
        boxes = []
        # A jittered spawn can fall before frame 0; the stream starts at 0,
        # so truth starts there too.
        step = max(1, -spawn)
        while True:
            frame = spawn + step
            x = -size + config.belt_velocity * step
            if x >= config.frame_width or frame >= horizon:
                break
            boxes.append((frame, BoundingBox(x=x, y=y, w=size, h=size)))
            step += 1
        objects.append(
            GroundTruthObject(object_id=object_id, true_category=category, boxes=tuple(boxes))
        )

    # frame -> (true category, true box) of each object visible on it
    visible: dict[int, list[tuple[int, BoundingBox]]] = {}
    for obj in objects:
        for frame, box in obj.boxes:
            visible.setdefault(frame, []).append((obj.true_category.index, box))

    # One (frame, x, y, w, h, score, category) row per detection, in stream order.
    rows: list[tuple] = []
    last_frame = max(visible) if visible else -1
    n_frames = max(config.n_frames, last_frame + 1)
    for frame in range(n_frames):
        for true_index, box in visible.get(frame, []):
            if config.detection_dropout_prob > 0 and rng.random() < config.detection_dropout_prob:
                continue
            x, y = box.x, box.y
            if config.bbox_jitter_std > 0:
                dx, dy = rng.normal(0.0, config.bbox_jitter_std, size=2)
                x, y = x + dx, y + dy
            score = float(np.clip(rng.normal(config.score_mean_true, config.score_std_true), 0.0, 1.0))
            index = true_index
            if config.label_flip_prob > 0 and rng.random() < config.label_flip_prob:
                others = [c for c in range(config.num_categories) if c != true_index]
                index = others[int(rng.integers(len(others)))]
            rows.append((frame, x, y, box.w, box.h, score, index))
        if config.false_positive_rate > 0:
            for _ in range(int(rng.poisson(config.false_positive_rate))):
                size = max(4.0, float(rng.normal(config.box_size_mean, max(config.box_size_std, 1.0))))
                x = float(rng.uniform(0.0, max(config.frame_width - size, 1.0)))
                y = float(rng.uniform(0.0, max(config.frame_height - size, 1.0)))
                score = float(np.clip(rng.normal(config.score_mean_fp, config.score_std_fp), 0.0, 1.0))
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
    return SceneGroundTruth(objects=tuple(objects)), frames
