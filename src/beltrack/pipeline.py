"""End-to-end orchestration: ingest or simulate a detection stream, track it,
aggregate per-track labels, and emit verdicts plus quality reports.

Aggregation is strictly downstream of tracking: switching between the
frame-wise baseline and majority voting never changes track identities,
only the labels and stability scores derived from them.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Literal, get_args, get_origin, get_type_hints

import numpy as np

from .aggregation import TieBreak, TrackVerdict, majority_vote
from .errors import ConfigError
from .io import ingest_detections, ingest_mot, write_detections, write_ground_truth
from .metrics import (
    FrameChoice,
    StabilityGranularity,
    VideoQualityReport,
    aggregated_report,
    covering_tracks,
    defect_ratio,
    detection_map,
    majority_tracks,
    stability_report,
    switches_in,
)
from .model import FrameDetections, Track
from .simulate import SceneGroundTruth, SimConfig, generate_scene
from .tracker import ByteTracker, TrackerConfig

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class AggregationConfig:
    tie_break: TieBreak = "prefer_defect"
    collapse_before_vote: bool = False
    frame_choice: FrameChoice = "last"
    stability_granularity: StabilityGranularity = "binary"

    def __post_init__(self):
        for name, hint in get_type_hints(AggregationConfig).items():
            value = getattr(self, name)
            if get_origin(hint) is Literal and value not in get_args(hint):
                raise ConfigError(
                    f"{name} must be one of {', '.join(get_args(hint))}, got {value!r}"
                )


@dataclass(frozen=True)
class PipelineRun:
    """One pipeline invocation: exactly one input source plus configs."""

    input_path: str | Path | None = None
    sim_config: SimConfig | None = None
    tracker_config: TrackerConfig = field(default_factory=TrackerConfig)
    aggregation: AggregationConfig = field(default_factory=AggregationConfig)
    verdicts_path: str | Path | None = None
    summary_path: str | Path | None = None
    skip_malformed: bool = False
    mot_format: bool = False
    num_categories: int = 4

    def __post_init__(self):
        if (self.input_path is None) == (self.sim_config is None):
            raise ConfigError("exactly one of input_path or sim_config must be given")


@dataclass
class PipelineResult:
    verdicts: list[TrackVerdict]
    report_aggregated: VideoQualityReport
    report_frame_wise: VideoQualityReport
    tracks: list[Track]
    n_unlabeled_tracks: int


def run_stream(
    frames: list[FrameDetections],
    tracker_config: TrackerConfig | None = None,
) -> list[Track]:
    """Drive a tracker over a detection stream and return the finished tracks.

    Frames are sorted if needed (with a warning), and the tracker steps
    through the frames that produced no detections too, so tracks age and
    coast correctly. After ``max_frames_lost + 1`` empty frames every track
    is removed and further empty frames change nothing, so a longer gap is
    skipped: the run takes time in proportion to the frames given, not to
    the span of their indices. A frame index given twice is rejected with
    ``ValueError``.
    """
    if not frames:
        return []
    indices = [f.frame_index for f in frames]
    if indices != sorted(indices):
        logger.warning("detection stream is out of order; sorting %d frames in memory", len(frames))
        frames = sorted(frames, key=lambda f: f.frame_index)
    tracker = ByteTracker(tracker_config)
    empty_steps = tracker.config.max_frames_lost + 1
    previous = None
    for frame in frames:
        if previous is not None:
            if frame.frame_index == previous:
                raise ValueError(f"frame {previous} appears more than once in the stream")
            for empty in range(previous + 1, min(frame.frame_index, previous + 1 + empty_steps)):
                tracker.step(FrameDetections(empty))
        tracker.step(frame)
        previous = frame.frame_index
    return tracker.finalize()


def _vote(
    tracks: list[Track], aggregation: AggregationConfig
) -> tuple[list[Track], list[TrackVerdict]]:
    """The tracks that saw at least one label, and one verdict for each."""
    labeled = [track for track in tracks if len(track.labels)]
    verdicts = [
        majority_vote(track, aggregation.tie_break, aggregation.collapse_before_vote)
        for track in labeled
    ]
    return labeled, verdicts


def run_pipeline(run: PipelineRun) -> PipelineResult:
    """Execute the full loop and optionally write verdict/summary files.

    Both reports derive from the one verdict list and one frame-wise pass,
    so the verdict file and the summary agree under every configuration.
    """
    if run.sim_config is not None:
        _, frames = generate_scene(run.sim_config)
    elif run.mot_format:
        frames = ingest_mot(run.input_path, skip_malformed=run.skip_malformed)
    else:
        frames = ingest_detections(
            run.input_path,
            skip_malformed=run.skip_malformed,
            num_categories=run.num_categories,
        )

    tracks = run_stream(frames, run.tracker_config)
    labeled, verdicts = _vote(tracks, run.aggregation)
    n_unlabeled = len(tracks) - len(labeled)
    if n_unlabeled:
        logger.info("%d of %d tracks carry no category predictions", n_unlabeled, len(tracks))

    if labeled:
        report_aggregated = aggregated_report(verdicts)
        report_frame_wise = stability_report(
            labeled,
            frame_choice=run.aggregation.frame_choice,
            granularity=run.aggregation.stability_granularity,
        )
    else:
        empty = VideoQualityReport(0.0, {}, 0.0, 0, 0)
        report_aggregated = report_frame_wise = empty

    result = PipelineResult(
        verdicts=verdicts,
        report_aggregated=report_aggregated,
        report_frame_wise=report_frame_wise,
        tracks=tracks,
        n_unlabeled_tracks=n_unlabeled,
    )
    if run.verdicts_path is not None:
        write_verdicts(result, run.verdicts_path)
    if run.summary_path is not None:
        write_summary(result, run.summary_path)
    return result


def write_verdicts(result: PipelineResult, path: str | Path):
    """Verdict JSONL: one line per labeled track."""
    path = Path(path)
    stability = result.report_frame_wise.per_track_stability
    with path.open("w", encoding="utf-8") as handle:
        for verdict in result.verdicts:
            record = {
                "track_id": verdict.track_id,
                "category": verdict.final_category,
                "binary": verdict.final_binary.value,
                "k": verdict.track_length,
                "votes": list(verdict.vote_counts),
                "stability_frame_wise": stability[verdict.track_id],
            }
            handle.write(json.dumps(record) + "\n")


def _report_dict(report: VideoQualityReport) -> dict:
    return {
        "defect_ratio": report.defect_ratio,
        "mean_stability": report.mean_stability,
        "n_total_tracks": report.n_total_tracks,
        "n_defect_tracks": report.n_defect_tracks,
        "per_track_stability": {
            str(track_id): value for track_id, value in sorted(report.per_track_stability.items())
        },
    }


def write_summary(result: PipelineResult, path: str | Path):
    """Run summary JSON with the quality report of both evaluation modes."""
    payload = {
        "n_tracks": len(result.tracks),
        "n_labeled_tracks": len(result.verdicts),
        "n_unlabeled_tracks": result.n_unlabeled_tracks,
        "aggregated": _report_dict(result.report_aggregated),
        "frame_wise": _report_dict(result.report_frame_wise),
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class SceneEvaluation:
    """Tracker and label quality measured against simulator ground truth."""

    n_objects: int
    n_tracks: int
    n_unmatched_objects: int
    id_switches: int
    detection_ap: float
    aggregated_binary_accuracy: float
    aggregated_category_accuracy: float
    last_frame_category_accuracy: float
    last_frame_binary_accuracy: float
    estimated_defect_ratio: float | None
    true_defect_ratio: float
    mean_frame_wise_stability: float | None


def evaluate_against_truth(
    frames: list[FrameDetections],
    gt: SceneGroundTruth,
    tracker_config: TrackerConfig | None = None,
    aggregation: AggregationConfig | None = None,
    iou_threshold: float = 0.5,
) -> SceneEvaluation:
    """Run the tracker on a stream and score everything the oracle can check.

    Object-level accuracies treat an object with no covering track (or a
    track without labels) as misclassified, so they are comparable across
    configurations that drop different objects. ``iou_threshold`` must be
    in (0, 1]: at 0, boxes that do not overlap would count as matches. A
    labeled stream must have the truth's number of categories, or
    ``ValueError`` is raised.
    """
    if not 0.0 < iou_threshold <= 1.0:  # nan fails too
        raise ConfigError(f"iou_threshold must be in (0, 1], got {iou_threshold}")
    aggregation = aggregation or AggregationConfig()
    tracks = run_stream(frames, tracker_config)
    labeled, verdicts = _vote(tracks, aggregation)
    # The tracker gives every track of a stream one category count.
    if labeled and labeled[0].num_categories != gt.num_categories:
        raise ValueError(
            f"the stream has {labeled[0].num_categories} categories, "
            f"the truth has {gt.num_categories}"
        )
    ap = detection_map(frames, gt, iou_threshold) if len(gt.frames) else 0.0

    covering = covering_tracks(tracks, gt, iou_threshold)
    assignment = majority_tracks(covering, gt)
    # Each object's voted and last-frame category, looked up by its track's
    # id (ids may skip numbers, so the table spans the largest id), -1 where
    # it has no track or its track no labels. Categories compare as indices,
    # and as binary labels by whether the index is 0 (fresh, normal) or not.
    lookup = np.full((2, max((track.id for track in tracks), default=0) + 1), -1)
    ids = [track.id for track in labeled]
    lookup[0, ids] = [verdict.final_category for verdict in verdicts]
    lookup[1, ids] = [track.labels[-1] for track in labeled]
    found = np.where(assignment >= 0, lookup[:, assignment], -1)
    hits = [found == gt.categories, (found >= 0) & ((found == 0) == (gt.categories == 0))]
    n_objects = len(gt.object_ids)
    # Shares of the objects, 0.0 without objects.
    (agg_cat, last_cat), (agg_bin, last_bin) = (np.sum(hits, axis=2) / max(n_objects, 1)).tolist()
    return SceneEvaluation(
        n_objects=n_objects,
        n_tracks=len(tracks),
        n_unmatched_objects=int(np.count_nonzero(assignment < 0)),
        id_switches=switches_in(covering, gt),
        detection_ap=ap,
        aggregated_binary_accuracy=agg_bin,
        aggregated_category_accuracy=agg_cat,
        last_frame_category_accuracy=last_cat,
        last_frame_binary_accuracy=last_bin,
        estimated_defect_ratio=defect_ratio(verdicts) if verdicts else None,
        true_defect_ratio=int(np.count_nonzero(gt.categories)) / max(n_objects, 1),
        mean_frame_wise_stability=(
            stability_report(
                labeled, granularity=aggregation.stability_granularity
            ).mean_stability
            if labeled
            else None
        ),
    )


def simulate_to_files(
    config: SimConfig, detections_path: str | Path, truth_path: str | Path
) -> tuple[int, int]:
    """Generate a scene and write both stream files; returns (objects, frames)."""
    gt, frames = generate_scene(config)
    write_detections(frames, detections_path)
    write_ground_truth(gt, truth_path)
    return len(gt.object_ids), len(frames)
