"""Two-stage association tracker with track lifecycle management.

Each frame is processed in two matching rounds: confident detections are
matched against all live tracks first, then the leftover low-confidence
detections get a chance to keep unmatched active tracks alive. That second
round is what rides out short detector dips from blur or partial occlusion
without fragmenting identities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assignment import build_cost_matrix, solve_assignment
from .errors import ConfigError
from .kalman import KalmanState, decode_boxes, kf_initiate, kf_predict, kf_update
from .model import DEFAULT_NUM_CATEGORIES, FrameDetections, Track, TrackStatus, corners

#: One row of a tracker's match table: a track matched (or spawned from) a
#: detection on a frame; category -1 where the detection had no label.
MATCH_ROW = np.dtype(
    [("frame", np.int64), ("track", np.int64), ("box", np.float64, (4,)), ("category", np.int64)]
)
#: One row of a tracker's live table: a track not yet removed, its lifecycle
#: (a ``status`` code, the number of frames it matched and the last of them)
#: and its Kalman filter (the ``mean`` and ``blocks`` of a ``KalmanState``).
LIVE_ROW = np.dtype([
    ("id", np.int64), ("status", np.int8), ("hits", np.int64), ("last", np.int64),
    ("mean", np.float64, (8,)), ("blocks", np.float64, (3, 4)),
], align=True)
#: The ``status`` codes: each is the position of its ``TrackStatus``. A row
#: marked REMOVED leaves the table before its frame's step returns.
TENTATIVE, ACTIVE, LOST, REMOVED = range(4)
_STATUSES = tuple(TrackStatus)
#: The status a row moves to when it is not matched, by its status code.
_ON_MISS = np.array([REMOVED, LOST, LOST, REMOVED], np.int8)


@dataclass(frozen=True)
class TrackerConfig:
    """Thresholds for detection splitting, matching, and lifecycle.

    Match thresholds are maximum acceptable costs (1 - IoU): the first-stage
    default 0.8 accepts any overlap with IoU >= 0.2, the second-stage default
    0.5 requires IoU >= 0.5 before trusting a low-confidence detection.
    ``new_track_min_score`` of None means "same as high_score_threshold".
    """

    high_score_threshold: float = 0.6
    low_score_threshold: float = 0.1
    match_threshold_first: float = 0.8
    match_threshold_second: float = 0.5
    new_track_min_score: float | None = None
    max_frames_lost: int = 30
    min_hits_to_activate: int = 1
    min_track_length_report: int = 1

    def __post_init__(self):
        for name in (
            "high_score_threshold",
            "low_score_threshold",
            "match_threshold_first",
            "match_threshold_second",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {value}")
        if self.low_score_threshold > self.high_score_threshold:
            raise ConfigError(
                "low_score_threshold must not exceed high_score_threshold "
                f"({self.low_score_threshold} > {self.high_score_threshold})"
            )
        if self.new_track_min_score is not None and not 0.0 <= self.new_track_min_score <= 1.0:
            raise ConfigError(f"new_track_min_score must be in [0, 1], got {self.new_track_min_score}")
        if self.max_frames_lost < 1:
            raise ConfigError(f"max_frames_lost must be >= 1, got {self.max_frames_lost}")
        if self.min_hits_to_activate < 1:
            raise ConfigError(f"min_hits_to_activate must be >= 1, got {self.min_hits_to_activate}")
        if self.min_track_length_report < 1:
            raise ConfigError(f"min_track_length_report must be >= 1, got {self.min_track_length_report}")

    @property
    def spawn_score(self) -> float:
        return (
            self.high_score_threshold
            if self.new_track_min_score is None
            else self.new_track_min_score
        )


@dataclass(frozen=True)
class TrackerOutput:
    frame_index: int
    active_tracks: tuple[int, ...]  # ids of the tracks active after the frame
    newly_removed_track_ids: tuple[int, ...]  # in ascending id order


class ByteTracker:
    """Stateful per-video tracker. Feed frames in strictly increasing order
    via :meth:`step`, then collect every track with :meth:`finalize`.

    Each live track is one row of a table of ``LIVE_ROW`` rows, in id order,
    so each frame makes one predict call and one update call however many
    tracks are live, and moves every row through the lifecycle with masks.
    A ``Track`` is built for a row when it is removed, and for each live row
    on ``finalize``.

    Each frame appends its matches and spawns to one table of ``MATCH_ROW``
    rows, which ``finalize`` splits into the tracks' columns.

    One instance per video stream; calls must be externally serialized.
    """

    def __init__(self, config: TrackerConfig | None = None):
        self.config = config if config is not None else TrackerConfig()
        self._live = np.zeros(0, LIVE_ROW)
        self._removed: list[Track] = []  # in order of removal
        self._next_id = 1
        self._last_frame: int | None = None
        self._matches = np.zeros(256, MATCH_ROW)
        self._rows = 0  # rows of ``_matches`` in use
        self._num_categories: int | None = None  # of the labeled frames so far

    def step(self, frame: FrameDetections) -> TrackerOutput:
        """Process one frame of detections.

        Stages: split detections by score, predict all live tracks forward,
        match high detections against every live track, match low
        detections against the remaining active tracks, update the matched
        tracks, then demote the unmatched, remove the unmatched tentative,
        long-lost and diverged tracks (in id order), and spawn new ones from
        leftover confident detections.
        """
        if self._last_frame is not None and frame.frame_index <= self._last_frame:
            raise ValueError(
                f"out-of-order frame {frame.frame_index}: "
                f"already processed frame {self._last_frame}"
            )
        if (frame.categories >= 0).any():
            if self._num_categories not in (None, frame.num_categories):
                raise ValueError(
                    f"frame {frame.frame_index} has {frame.num_categories} categories, "
                    f"earlier frames have {self._num_categories}"
                )
            self._num_categories = frame.num_categories
        self._last_frame = frame.frame_index
        t = frame.frame_index
        cfg = self.config

        det_boxes = frame.boxes
        det_corners = corners(det_boxes)
        # A frame holds a few dozen detections: plain lists beat NumPy calls.
        scores = frame.scores.tolist()
        high = [i for i, score in enumerate(scores) if score >= cfg.high_score_threshold]
        low = [
            i
            for i, score in enumerate(scores)
            if cfg.low_score_threshold <= score < cfg.high_score_threshold
        ]

        # The step runs without floating-point warnings: a filter whose box
        # height is too large or too small for its height-scaled variances
        # turns inf or nan, and is removed as diverged below.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            # A filter whose prediction no longer encodes a box is removed on its
            # own; the predicted boxes of the rest feed both association rounds.
            live = self._live
            if len(live):
                predicted = kf_predict(KalmanState(mean=live["mean"], blocks=live["blocks"]))
                live["mean"], live["blocks"] = predicted.mean, predicted.blocks
            boxes, valid = decode_boxes(live["mean"])
            removed_ids = []
            if not valid.all():
                removed_ids, boxes = self._remove(~valid), boxes[valid]
            live = self._live
            status, hits, last = live["status"], live["hits"], live["last"]

            # One cost matrix for both rounds: every live track against the
            # confident detections (its first columns), then the low ones.
            costs = build_cost_matrix(corners(boxes), det_corners[high + low])

            # First round: every live track vs confident detections.
            first = solve_assignment(costs[:, : len(high)], cfg.match_threshold_first)

            # Second round: still-unmatched active tracks vs low-confidence
            # detections. Lost and tentative tracks sit this one out.
            active = (status == ACTIVE).tolist()
            leftover_rows = [i for i in first.unmatched_tracks if active[i]]
            second = solve_assignment(costs[leftover_rows, len(high) :], cfg.match_threshold_second)

            # One update for the matches of both rounds. Round 2 scores only
            # tracks round 1 left unmatched, on their predicted boxes, so
            # deferring round 1's updates to here changes nothing. A filter the
            # update leaves without a box is removed, like one diverged above.
            # The kept matches and the spawns make the frame's block of the match
            # table: a track id, a detection row and a box part for each.
            ids, det_rows, box_parts = [], [], [det_boxes[:0]]
            matched = [(ti, high[di]) for ti, di in first.matches]
            matched += [(leftover_rows[ti], low[di]) for ti, di in second.matches]
            if matched:
                rows, matched_dets = (np.array(column) for column in zip(*matched))
                posterior = kf_update(
                    KalmanState(mean=live["mean"][rows], blocks=live["blocks"][rows]),
                    det_boxes[matched_dets],
                )
                live["mean"][rows], live["blocks"][rows] = posterior.mean, posterior.blocks
                updated, valid = decode_boxes(posterior.mean)
                if not valid.all():
                    status[rows[~valid]] = REMOVED
                    rows, matched_dets, updated = rows[valid], matched_dets[valid], updated[valid]
                hits[rows] += 1
                last[rows] = t
                # Only a tentative track has fewer hits than it takes to activate.
                status[rows[hits[rows] >= cfg.min_hits_to_activate]] = ACTIVE
                ids += live["id"][rows].tolist()
                det_rows += matched_dets.tolist()
                box_parts.append(updated)

            # Every row that found no detection this frame moves on: a tentative
            # one is removed and an active one is lost. A row left unmatched for
            # more than ``max_frames_lost`` frames is removed, whatever its status.
            missed = last < t
            status[missed] = _ON_MISS[status[missed]]
            status[last < t - cfg.max_frames_lost] = REMOVED
            removed = status == REMOVED
            if removed.any():
                removed_ids += self._remove(removed)

            # Spawn new tracks from confident detections nothing claimed.
            spawn = [
                high[di]
                for di in first.unmatched_detections
                if scores[high[di]] >= cfg.spawn_score
            ]
            if spawn:
                ids += range(self._next_id, self._next_id + len(spawn))
                det_rows += spawn
                box_parts.append(det_boxes[spawn])  # a new track starts at the observed box
                self._spawn(det_boxes[spawn], t)
            if ids:
                self._record(t, ids, np.concatenate(box_parts), frame.categories[det_rows])

        live = self._live
        return TrackerOutput(
            frame_index=t,
            active_tracks=tuple(live["id"][live["status"] == ACTIVE].tolist()),
            newly_removed_track_ids=tuple(sorted(removed_ids)),
        )

    def finalize(self) -> list[Track]:
        """All tracks ever created (removed ones included), in id order,
        filtered by the configured minimum length.

        Each track's columns are set to its rows of the match table, in frame
        order, as read-only views of one sorted copy. A removed track is the
        same object on every call; a live track is built anew from its row,
        its ``state`` a snapshot of its filter."""
        tracks = sorted(self._removed + _tracks(self._live.copy()), key=lambda tr: tr.id)
        table = self._matches[: self._rows]
        table = table[np.argsort(table["track"], kind="stable")]
        table.flags.writeable = False
        frames, boxes, categories = table["frame"], table["box"], table["category"]
        # Ids run 1, 2, ... in spawn order, and each track has its spawn row.
        stops = np.cumsum(np.bincount(table["track"])[1:]).tolist()
        for track, start, stop in zip(tracks, [0, *stops], stops):
            track.frames, track.boxes = frames[start:stop], boxes[start:stop]
            track.categories = categories[start:stop]
            track.num_categories = self._num_categories or DEFAULT_NUM_CATEGORIES
        return [tr for tr in tracks if len(tr.frames) >= self.config.min_track_length_report]

    def _remove(self, mask: np.ndarray) -> list[int]:
        """Turn the masked rows into removed ``Track``s, each holding its
        last filter state, drop them from the table and return their ids."""
        gone = self._live[mask]
        gone["status"] = REMOVED
        self._removed += _tracks(gone)
        self._live = self._live[~mask]
        return gone["id"].tolist()

    def _record(self, t: int, ids: list[int], boxes: np.ndarray, categories: np.ndarray):
        """Append one frame's block of rows to the match table, doubling the
        table when it is full (rows past ``_rows`` are never read)."""
        start, stop = self._rows, self._rows + len(ids)
        if stop > len(self._matches):
            self._matches = np.resize(self._matches, max(stop, 2 * len(self._matches)))
        block = self._matches[start:stop]
        block["frame"] = t
        block["track"] = ids
        block["box"] = boxes
        block["category"] = categories
        self._rows = stop

    def _spawn(self, boxes: np.ndarray, t: int):
        """Append one row per detection box, with filters from one initiate
        call."""
        born = kf_initiate(boxes)
        kept = len(self._live)
        table = np.empty(kept + len(boxes), LIVE_ROW)
        table[:kept] = self._live  # faster than concatenating structured arrays
        rows = table[kept:]
        rows["id"] = np.arange(self._next_id, self._next_id + len(boxes))
        rows["status"] = ACTIVE if self.config.min_hits_to_activate <= 1 else TENTATIVE
        rows["hits"], rows["last"] = 1, t
        rows["mean"], rows["blocks"] = born.mean, born.blocks
        self._live = table
        self._next_id += len(boxes)


def _tracks(rows: np.ndarray) -> list[Track]:
    """A ``Track`` for each row of a live table that is no longer written to;
    each ``state`` is a view of its row's filter."""
    return [
        Track(
            id=track_id, state=KalmanState(mean=mean, blocks=blocks), status=_STATUSES[code],
            last_update_frame=last, hit_count=hits,
        )
        for track_id, code, hits, last, mean, blocks in zip(
            rows["id"].tolist(), rows["status"].tolist(), rows["hits"].tolist(),
            rows["last"].tolist(), rows["mean"], rows["blocks"],
        )
    ]
