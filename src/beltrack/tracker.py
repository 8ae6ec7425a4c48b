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
    newly_removed_track_ids: tuple[int, ...]


class ByteTracker:
    """Stateful per-video tracker. Feed frames in strictly increasing order
    via :meth:`step`, then collect every track with :meth:`finalize`.

    The Kalman filters of the live tracks are kept as one batch (row i of
    the state arrays belongs to the i-th live track), so each frame makes
    one predict call and one update call however many tracks are live.

    Each frame appends its matches and spawns to one table of ``MATCH_ROW``
    rows, which ``finalize`` splits into the tracks' columns.

    One instance per video stream; calls must be externally serialized.
    """

    def __init__(self, config: TrackerConfig | None = None):
        self.config = config if config is not None else TrackerConfig()
        self._tracks: list[Track] = []  # every track ever created, in spawn order
        self._live: list[Track] = []  # the tracks not yet removed, in spawn order
        self._state = KalmanState(mean=np.zeros((0, 8)), blocks=np.zeros((0, 3, 4)))
        self._next_id = 1
        self._last_frame: int | None = None
        self._matches = np.zeros(256, MATCH_ROW)
        self._rows = 0  # rows of ``_matches`` in use
        self._num_categories: int | None = None  # of the labeled frames so far

    def step(self, frame: FrameDetections) -> TrackerOutput:
        """Process one frame of detections.

        Stages: split detections by score, predict all live tracks forward,
        match high detections against every non-removed track, match low
        detections against the remaining active tracks, update the matched
        tracks, then demote the unmatched, expire long-lost tracks, and
        spawn new ones from leftover confident detections.
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
        removed_now: list[int] = []

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

        # A filter whose prediction no longer encodes a box is removed on its
        # own; the predicted boxes of the rest feed both association rounds.
        if self._live:
            self._state = kf_predict(self._state)
        pool_boxes, valid = decode_boxes(self._state.mean)
        if not valid.all():
            for row in np.flatnonzero(~valid):
                track = self._live[row]
                track.status = TrackStatus.REMOVED
                removed_now.append(track.id)
            self._drop_removed()
            pool_boxes = pool_boxes[valid]
        pool = self._live
        pool_corners = corners(pool_boxes)

        # One cost matrix for both rounds: every live track against the
        # confident detections (its first columns), then the low ones.
        costs = build_cost_matrix(pool_corners, det_corners[high + low])

        # First round: every live track vs confident detections.
        first = solve_assignment(costs[:, : len(high)], cfg.match_threshold_first)

        # Second round: still-unmatched active tracks vs low-confidence
        # detections. Lost and tentative tracks sit this one out.
        leftover_rows = [
            i for i in first.unmatched_tracks if pool[i].status is TrackStatus.ACTIVE
        ]
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
            rows, matched_dets = (list(column) for column in zip(*matched))
            posterior, valid = self._update(rows, det_boxes[matched_dets])
            for row, di, ok in zip(rows, matched_dets, valid.tolist()):
                track = pool[row]
                if ok:
                    self._apply_match(track, t)
                    ids.append(track.id)
                    det_rows.append(di)
                else:
                    track.status = TrackStatus.REMOVED
                    removed_now.append(track.id)
            box_parts.append(posterior[valid])

        # Lifecycle for everything that found no detection this frame.
        unmatched = [pool[leftover_rows[i]] for i in second.unmatched_tracks]
        unmatched += [
            pool[i] for i in first.unmatched_tracks if pool[i].status is not TrackStatus.ACTIVE
        ]
        for track in unmatched:
            if track.status is TrackStatus.ACTIVE:
                track.status = TrackStatus.LOST
            elif track.status is TrackStatus.TENTATIVE:
                track.status = TrackStatus.REMOVED
                removed_now.append(track.id)
            if (
                track.status is TrackStatus.LOST
                and t - track.last_update_frame > cfg.max_frames_lost
            ):
                track.status = TrackStatus.REMOVED
                removed_now.append(track.id)
        if removed_now:
            self._drop_removed()

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

        return TrackerOutput(
            frame_index=t,
            active_tracks=tuple(tr.id for tr in self._live if tr.status is TrackStatus.ACTIVE),
            newly_removed_track_ids=tuple(removed_now),
        )

    def finalize(self) -> list[Track]:
        """All tracks ever created (removed ones included), longest-lived
        lifecycle state preserved, filtered by the configured minimum length.

        Each track's columns are set to its rows of the match table, in frame
        order, as read-only views of one sorted copy, and each live track's
        ``state`` to a snapshot of its filter."""
        for row, track in enumerate(self._live):
            track.state = self._snapshot(row)
        table = self._matches[: self._rows]
        table = table[np.argsort(table["track"], kind="stable")]
        table.flags.writeable = False
        frames, boxes, categories = table["frame"], table["box"], table["category"]
        # Ids run 1, 2, ... in spawn order, and each track has its spawn row.
        stops = np.cumsum(np.bincount(table["track"])[1:]).tolist()
        for track, start, stop in zip(self._tracks, [0, *stops], stops):
            track.frames, track.boxes = frames[start:stop], boxes[start:stop]
            track.categories = categories[start:stop]
            track.num_categories = self._num_categories or DEFAULT_NUM_CATEGORIES
        return [
            tr for tr in self._tracks if len(tr.frames) >= self.config.min_track_length_report
        ]

    def _snapshot(self, row: int) -> KalmanState:
        return KalmanState(
            mean=self._state.mean[row].copy(), blocks=self._state.blocks[row].copy()
        )

    def _drop_removed(self):
        """Take removed tracks out of the batch, leaving each its last state."""
        keep = [tr.status is not TrackStatus.REMOVED for tr in self._live]
        for row, (track, kept) in enumerate(zip(self._live, keep)):
            if not kept:
                track.state = self._snapshot(row)
        self._live = [tr for tr, kept in zip(self._live, keep) if kept]
        self._state = KalmanState(mean=self._state.mean[keep], blocks=self._state.blocks[keep])

    def _update(self, rows: list[int], observed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Fuse one observed (x, y, w, h) box into each given row's filter and
        return the updated boxes and whether each is valid, in row order."""
        posterior = kf_update(
            KalmanState(mean=self._state.mean[rows], blocks=self._state.blocks[rows]), observed
        )
        self._state.mean[rows] = posterior.mean
        self._state.blocks[rows] = posterior.blocks
        return decode_boxes(posterior.mean)

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

    def _apply_match(self, track: Track, t: int):
        track.hit_count += 1
        if track.status is TrackStatus.TENTATIVE:
            if track.hit_count >= self.config.min_hits_to_activate:
                track.status = TrackStatus.ACTIVE
        else:
            track.status = TrackStatus.ACTIVE
        track.last_update_frame = t

    def _spawn(self, boxes: np.ndarray, t: int):
        """Start one track per detection box, with filters from one initiate
        call."""
        born = kf_initiate(boxes)
        self._state = KalmanState(
            mean=np.concatenate([self._state.mean, born.mean]),
            blocks=np.concatenate([self._state.blocks, born.blocks]),
        )
        status = (
            TrackStatus.ACTIVE
            if self.config.min_hits_to_activate <= 1
            else TrackStatus.TENTATIVE
        )
        for _ in range(len(boxes)):
            track = Track(id=self._next_id, state=None, status=status, last_update_frame=t)
            self._next_id += 1
            self._tracks.append(track)
            self._live.append(track)
