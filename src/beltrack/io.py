"""Stream serialization: detection JSONL, ground-truth JSONL, and a
MOT-challenge text adapter.

Detection format, one JSON object per line:

    {"frame": int, "x": float, "y": float, "w": float, "h": float,
     "score": float, "category": int|null}

``category`` null means no classifier output for that box. The ground-truth
format mirrors it with ``object_id`` and ``true_category`` fields instead of
``score``/``category``.
"""

from __future__ import annotations

import json
import logging
import math
from pathlib import Path
from typing import Iterable

from .errors import InputError
from .model import BoundingBox, CategoryLabel, Detection, FrameDetections
from .simulate import GroundTruthObject, SceneGroundTruth

logger = logging.getLogger(__name__)

DETECTION_FIELDS = ("frame", "x", "y", "w", "h", "score")


def _group_by_frame(detections: Iterable[Detection]) -> list[FrameDetections]:
    grouped: dict[int, list[Detection]] = {}
    for det in detections:
        grouped.setdefault(det.frame_index, []).append(det)
    return [FrameDetections(frame, grouped[frame]) for frame in sorted(grouped)]


def _parse_detection_line(
    record: dict, line_number: int, path, num_categories: int
) -> Detection:
    for key in DETECTION_FIELDS:
        if key not in record:
            raise InputError(f"{path}:{line_number}: missing field {key!r}")
    try:
        frame = int(record["frame"])
        box = BoundingBox(
            x=float(record["x"]), y=float(record["y"]),
            w=float(record["w"]), h=float(record["h"]),
        )
        category = record.get("category")
        label = None if category is None else CategoryLabel(int(category), num_categories)
        return Detection(
            frame_index=frame, box=box, score=float(record["score"]), category_observation=label
        )
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path}:{line_number}: {exc}") from exc


def ingest_detections(
    path: str | Path, *, skip_malformed: bool = False, num_categories: int = 4
) -> list[FrameDetections]:
    """Read a detection JSONL file, grouped by frame and sorted by frame index.

    Malformed lines abort with the offending line number unless
    ``skip_malformed`` is set, in which case they are logged and dropped.
    """
    path = Path(path)
    if not path.exists():
        raise InputError(f"detection file not found: {path}")
    detections = []
    with path.open(encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise InputError(f"{path}:{line_number}: expected a JSON object")
                detections.append(
                    _parse_detection_line(record, line_number, path, num_categories)
                )
            except json.JSONDecodeError as exc:
                error = InputError(f"{path}:{line_number}: invalid JSON ({exc.msg})")
                if not skip_malformed:
                    raise error from exc
                logger.warning("skipping line: %s", error)
            except InputError as error:
                if not skip_malformed:
                    raise
                logger.warning("skipping line: %s", error)
    return _group_by_frame(detections)


def write_detections(frames: Iterable[FrameDetections], path: str | Path):
    """Write a detection stream in the JSONL format ``ingest_detections`` reads."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        for frame in frames:
            for det in frame.detections:
                record = {
                    "frame": det.frame_index,
                    "x": det.box.x,
                    "y": det.box.y,
                    "w": det.box.w,
                    "h": det.box.h,
                    "score": det.score,
                    "category": None
                    if det.category_observation is None
                    else det.category_observation.index,
                }
                handle.write(json.dumps(record) + "\n")


def write_ground_truth(gt: SceneGroundTruth, path: str | Path):
    """One line per (object, frame): the detection format plus identity fields."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        for obj in gt.objects:
            for frame, box in obj.boxes:
                record = {
                    "frame": frame,
                    "object_id": obj.object_id,
                    "x": box.x,
                    "y": box.y,
                    "w": box.w,
                    "h": box.h,
                    "true_category": obj.true_category.index,
                }
                handle.write(json.dumps(record) + "\n")


def read_ground_truth(path: str | Path, num_categories: int = 4) -> SceneGroundTruth:
    path = Path(path)
    if not path.exists():
        raise InputError(f"ground-truth file not found: {path}")
    boxes: dict[int, list[tuple[int, BoundingBox]]] = {}
    categories: dict[int, int] = {}
    with path.open(encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                object_id = int(record["object_id"])
                frame = int(record["frame"])
                if frame < 0:
                    raise ValueError(f"frame_index must be >= 0, got {frame}")
                box = BoundingBox(
                    x=float(record["x"]), y=float(record["y"]),
                    w=float(record["w"]), h=float(record["h"]),
                )
                category = int(record["true_category"])
            except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
                raise InputError(f"{path}:{line_number}: {exc}") from exc
            if object_id in categories and categories[object_id] != category:
                raise InputError(
                    f"{path}:{line_number}: object {object_id} changes category "
                    f"({categories[object_id]} -> {category})"
                )
            categories[object_id] = category
            boxes.setdefault(object_id, []).append((frame, box))
    objects = tuple(
        GroundTruthObject(
            object_id=object_id,
            true_category=CategoryLabel(categories[object_id], num_categories),
            boxes=tuple(sorted(boxes[object_id])),
        )
        for object_id in sorted(boxes)
    )
    return SceneGroundTruth(objects=objects)


def ingest_mot(path: str | Path) -> list[FrameDetections]:
    """Read MOT-challenge text (frame,id,x,y,w,h,score,...) as a detection stream.

    The id column and any trailing fields are ignored; there is no category
    channel in this format. Finite confidences are clamped into [0, 1] (MOT
    files sometimes carry -1 or unnormalized values); nan and inf are rejected.
    """
    path = Path(path)
    if not path.exists():
        raise InputError(f"MOT file not found: {path}")
    detections = []
    with path.open(encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) < 7:
                raise InputError(
                    f"{path}:{line_number}: expected at least 7 comma-separated fields"
                )
            try:
                frame = int(float(parts[0]))
                x, y, w, h = (float(v) for v in parts[2:6])
                score = float(parts[6])
                if not math.isfinite(score):
                    raise ValueError(f"confidence must be finite, got {parts[6].strip()!r}")
                score = min(1.0, max(0.0, score))
                detections.append(
                    Detection(frame_index=frame, box=BoundingBox(x, y, w, h), score=score)
                )
            except ValueError as exc:
                raise InputError(f"{path}:{line_number}: {exc}") from exc
    return _group_by_frame(detections)
