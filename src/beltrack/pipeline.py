"""End-to-end orchestration: ingest or simulate a detection stream, track it,
aggregate per-track labels, and emit verdicts plus quality reports.

Aggregation is strictly downstream of tracking: switching between the
frame-wise baseline and majority voting never changes track identities,
only the labels and stability scores derived from them.
"""

from __future__ import annotations

import errno
import json
import logging
import os
from contextlib import closing, contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Literal, get_args, get_origin, get_type_hints

import numpy as np

from .aggregation import TieBreak, VerdictTable, majority_vote
from .errors import ConfigError
from .io import stream_detections, write_columns, write_detections, write_ground_truth
from .metrics import (
    FrameChoice,
    StabilityGranularity,
    covering_tracks,
    defect_ratio,
    detection_map,
    majority_tracks,
    stability_report,
    switches_in,
)
from .model import DEFAULT_NUM_CATEGORIES, DetectionTable, FrameDetections, TrackTable
from .simulate import SceneGroundTruth, SimConfig, generate_scene
from .tracker import ByteTracker, TrackerConfig

logger = logging.getLogger(__name__)

VERDICT_FIELDS = ("track_id", "category", "binary", "k", "votes", "stability_frame_wise")


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
    num_categories: int = DEFAULT_NUM_CATEGORIES

    def __post_init__(self):
        if (self.input_path is None) == (self.sim_config is None):
            raise ConfigError("exactly one of input_path or sim_config must be given")


@dataclass
class PipelineResult:
    """A run's tracks and its verdicts, and beside the verdict rows the
    frame-wise baseline's two columns (``metrics.stability_report``): the
    category of the frame that decides each track without a vote, and the
    track's stability."""

    verdicts: VerdictTable
    tracks: TrackTable
    frame_wise_categories: np.ndarray
    frame_wise_stability: np.ndarray


def run_stream(
    detections: Iterable[FrameDetections],
    tracker_config: TrackerConfig | None = None,
) -> TrackTable:
    """Drive a tracker over frames in frame order, a ``DetectionTable`` or a
    stream such as ``io.stream_detections`` yields, and return the table of
    the finished tracks. A stream is read only as far as the tracker has
    stepped.

    The tracker steps through the frames that produced no detections too,
    so tracks age and coast correctly. After ``max_frames_lost + 1`` empty
    frames every track is removed and further empty frames change nothing,
    so a longer gap is skipped: the run takes time in proportion to the
    frames with rows, not to the span of their indices.
    """
    tracker = ByteTracker(tracker_config)
    empty_steps = tracker.config.max_frames_lost + 1
    previous = None
    for frame in detections:
        gap = range(frame.frame_index if previous is None else previous + 1, frame.frame_index)
        # Gap frames have no rows to check: they take empty read-only slices.
        for empty in gap[:empty_steps]:
            no_rows = frame.boxes[:0], frame.scores[:0], frame.categories[:0]
            tracker.step(FrameDetections._from_columns(empty, *no_rows, frame.num_categories))
        tracker.step(frame)
        previous = frame.frame_index
    return tracker.finalize()


def run_pipeline(run: PipelineRun) -> PipelineResult:
    """Execute the full loop and optionally write verdict/summary files.

    A detection file, JSONL or MOT text (``mot_format``), is tracked while
    it is read, in frame order (``io.stream_detections``), so a bad line
    raises ``InputError`` after the frames before it were tracked. Each
    output file is first made as an empty temporary file beside its path,
    before the first frame is read, so an unusable path raises ``OSError``
    at once (``ConfigError`` if it is the input or the other output); the
    files are renamed to their paths once both are written, and removed if
    the run raises, so a failed run writes no file. Both
    files derive from the one verdict table and the frame-wise columns
    beside it, so they agree under every configuration.
    """
    outputs = run.verdicts_path, run.summary_path
    with staged_outputs(*outputs, inputs=[run.input_path]) as (verdicts_path, summary_path):
        if run.sim_config is not None:
            source = generate_scene(run.sim_config)[1]
        else:
            source = stream_detections(
                run.input_path, skip_malformed=run.skip_malformed,
                num_categories=run.num_categories, mot=run.mot_format,
            )
        # Closed, and a file with it, when a step raises mid-stream.
        with closing(iter(source)) as detections:
            tracks = run_stream(detections, run.tracker_config)
        aggregation = run.aggregation
        verdicts = majority_vote(tracks, aggregation.tie_break, aggregation.collapse_before_vote)
        n_unlabeled = len(tracks) - len(verdicts)
        if n_unlabeled:
            logger.info("%d of %d tracks carry no category predictions", n_unlabeled, len(tracks))
        result = PipelineResult(verdicts, tracks, *stability_report(
            tracks, frame_choice=aggregation.frame_choice,
            granularity=aggregation.stability_granularity,
        ))
        if verdicts_path is not None:
            write_verdicts(result, verdicts_path)
        if summary_path is not None:
            write_summary(result, summary_path)
    return result


@contextmanager
def staged_outputs(
    *paths: str | Path | None, inputs: Iterable[str | Path | None] = ()
) -> Iterator[list[Path | None]]:
    """A new empty file beside each of ``paths`` (None for None), to be
    written in its place: renamed to its path when the block ends, removed
    when it raises. A path that is the same file as another of ``paths`` or
    as one of ``inputs`` raises ``ConfigError`` naming both, before any file
    is made. An ``OSError`` in making one, or a path that is a directory,
    names its path."""
    outputs = [Path(path) for path in paths if path is not None]
    named = [("output", path) for path in outputs]
    named += [("input", Path(path)) for path in inputs if path is not None]
    for i, path in enumerate(outputs):
        for kind, other in named[i + 1 :]:
            if _same_file(path, other):
                raise ConfigError(f"output {path} is the same file as {kind} {other}")
    staged = dict.fromkeys(outputs)
    try:
        for path in staged:
            staged[path] = path.parent / f".{path.name}.{os.urandom(4).hex()}.tmp"
            try:
                staged[path].touch(exist_ok=False)
                if path.is_dir():  # the rename would fail, but only after the run
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            except OSError as exc:
                exc.filename = str(path)
                raise
        yield [None if path is None else staged[Path(path)] for path in paths]
        for path, temporary in staged.items():
            temporary.replace(path)
    finally:
        for temporary in filter(None, staged.values()):
            temporary.unlink(missing_ok=True)  # gone once renamed


def _same_file(a: Path, b: Path) -> bool:
    """Whether two paths name one existing file, or resolve to one path."""
    try:
        return os.path.samefile(a, b)
    except OSError:  # one of them does not exist
        return os.path.realpath(a) == os.path.realpath(b)


def write_verdicts(result: PipelineResult, path: str | Path):
    """Verdict JSONL: one line per labeled track, its votes a row of the
    vote-count table."""
    verdicts, categories = result.verdicts, result.verdicts.categories
    with Path(path).open("w", encoding="utf-8") as handle:
        write_columns(handle, VERDICT_FIELDS, [
            verdicts.track_ids, categories, np.where(categories > 0, '"defect"', '"normal"'),
            verdicts.votes.sum(axis=1), verdicts.votes, result.frame_wise_stability,
        ])


def _report_dict(ids: np.ndarray, categories: np.ndarray, stability: np.ndarray) -> dict:
    """One evaluation mode's block: the tracks ``ids`` decided as
    ``categories``, with their ``stability``; zeros without tracks."""
    n, n_defect = len(ids), int(np.count_nonzero(categories))
    return {
        "defect_ratio": n_defect / n if n else 0.0,
        "mean_stability": float(np.mean(stability)) if n else 0.0,
        "n_total_tracks": n,
        "n_defect_tracks": n_defect,
        "per_track_stability": dict(zip(map(str, ids.tolist()), stability.tolist())),
    }


def write_summary(result: PipelineResult, path: str | Path):
    """Run summary JSON with the quality report of both evaluation modes:
    the vote's, whose stability is 1 (a voted label never changes), and the
    frame-wise baseline's."""
    ids, n_tracks = result.verdicts.track_ids, len(result.tracks)
    payload = {
        "n_tracks": n_tracks,
        "n_labeled_tracks": len(ids),
        "n_unlabeled_tracks": n_tracks - len(ids),
        "aggregated": _report_dict(ids, result.verdicts.categories, np.ones(len(ids))),
        "frame_wise": _report_dict(ids, result.frame_wise_categories, result.frame_wise_stability),
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
    detections: DetectionTable,
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
    tracks = run_stream(detections, tracker_config)
    verdicts = majority_vote(tracks, aggregation.tie_break, aggregation.collapse_before_vote)
    if len(verdicts) and tracks.num_categories != gt.num_categories:
        raise ValueError(
            f"the stream has {tracks.num_categories} categories, "
            f"the truth has {gt.num_categories}"
        )
    ap = detection_map(detections, gt, iou_threshold) if len(gt.frames) else 0.0

    covering = covering_tracks(tracks, gt, iou_threshold)
    assignment = majority_tracks(covering, gt)
    # Each object's voted and last-frame category, looked up by its track's
    # id (ids may skip numbers, so the table spans the largest id), -1 where
    # it has no track or its track no labels. Categories compare as indices,
    # and as binary labels by whether the index is 0 (fresh, normal) or not.
    last, stability = stability_report(tracks, granularity=aggregation.stability_granularity)
    lookup = np.full((2, tracks.ids.max(initial=0) + 1), -1)
    lookup[:, verdicts.track_ids] = verdicts.categories, last
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
        estimated_defect_ratio=defect_ratio(verdicts) if len(verdicts) else None,
        true_defect_ratio=int(np.count_nonzero(gt.categories)) / max(n_objects, 1),
        mean_frame_wise_stability=float(np.mean(stability)) if len(verdicts) else None,
    )


def simulate_to_files(
    config: SimConfig, detections_path: str | Path, truth_path: str | Path
) -> tuple[int, int]:
    """Generate a scene and write both stream files, staged; returns (objects, frames)."""
    with staged_outputs(detections_path, truth_path) as (detections_file, truth_file):
        gt, detections = generate_scene(config)
        write_detections(detections, detections_file)
        write_ground_truth(gt, truth_file)
    return len(gt.object_ids), len(detections)
