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
from .model import (
    BoundingBox,
    CategoryLabel,
    FrameDetections,
    Track,
    TrackStatus,
    category_labels,
    corners,
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
    active_tracks: tuple[tuple[int, BoundingBox], ...]
    newly_removed_track_ids: tuple[int, ...]


class ByteTracker:
    """Stateful per-video tracker. Feed frames in strictly increasing order
    via :meth:`step`, then collect every track with :meth:`finalize`.

    The Kalman filters of the live tracks are kept as one batch (row i of
    the state arrays belongs to the i-th live track), so each frame makes
    one predict call and one update call however many tracks are live.

    One instance per video stream; calls must be externally serialized.
    """

    def __init__(self, config: TrackerConfig | None = None):
        self.config = config if config is not None else TrackerConfig()
        self._tracks: list[Track] = []  # every track ever created, in spawn order
        self._live: list[Track] = []  # the tracks not yet removed, in spawn order
        self._state = KalmanState(mean=np.zeros((0, 8)), blocks=np.zeros((0, 3, 4)))
        self._next_id = 1
        self._last_frame: int | None = None

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
        self._last_frame = frame.frame_index
        t = frame.frame_index
        cfg = self.config
        removed_now: list[int] = []

        det_boxes = frame.boxes
        det_corners = corners(det_boxes)
        # A frame holds a few dozen detections: plain lists beat NumPy calls.
        scores = frame.scores.tolist()
        table = category_labels(frame.num_categories)
        labels = [None if c < 0 else table[c] for c in frame.categories.tolist()]
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

        # First round: every live track vs confident detections.
        costs = build_cost_matrix(pool_corners, det_corners[high])
        first = solve_assignment(costs, cfg.match_threshold_first)

        # Second round: still-unmatched active tracks vs low-confidence
        # detections. Lost and tentative tracks sit this one out.
        leftover_rows = [
            i for i in first.unmatched_tracks if pool[i].status is TrackStatus.ACTIVE
        ]
        costs = build_cost_matrix(pool_corners[leftover_rows], det_corners[low])
        second = solve_assignment(costs, cfg.match_threshold_second)

        # One update for the matches of both rounds. Round 2 scores only
        # tracks round 1 left unmatched, on their predicted boxes, so
        # deferring round 1's updates to here changes nothing. A filter the
        # update leaves without a box is removed, like one diverged above.
        matched = [(ti, high[di]) for ti, di in first.matches]
        matched += [(leftover_rows[ti], low[di]) for ti, di in second.matches]
        if matched:
            rows, det_rows = (list(column) for column in zip(*matched))
            boxes, valid = self._update(rows, det_boxes[det_rows])
            for row, di, box, ok in zip(rows, det_rows, boxes, valid):
                if ok:
                    self._apply_match(pool[row], labels[di], BoundingBox(*box), t)
                else:
                    pool[row].status = TrackStatus.REMOVED
                    removed_now.append(pool[row].id)

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
            self._spawn([labels[di] for di in spawn], det_boxes[spawn], t)

        active = tuple(
            (tr.id, tr.history[-1][1])
            for tr in self._live
            if tr.status is TrackStatus.ACTIVE
        )
        return TrackerOutput(
            frame_index=t,
            active_tracks=active,
            newly_removed_track_ids=tuple(removed_now),
        )

    def finalize(self) -> list[Track]:
        """All tracks ever created (removed ones included), longest-lived
        lifecycle state preserved, filtered by the configured minimum length.

        Each live track's ``state`` is set to a snapshot of its filter."""
        for row, track in enumerate(self._live):
            track.state = self._snapshot(row)
        return [
            tr for tr in self._tracks if len(tr.history) >= self.config.min_track_length_report
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

    def _update(self, rows: list[int], observed: np.ndarray) -> tuple[list, list[bool]]:
        """Fuse one observed (x, y, w, h) box into each given row's filter and
        return the updated boxes and whether each is valid, in row order."""
        posterior = kf_update(
            KalmanState(mean=self._state.mean[rows], blocks=self._state.blocks[rows]), observed
        )
        self._state.mean[rows] = posterior.mean
        self._state.blocks[rows] = posterior.blocks
        boxes, valid = decode_boxes(posterior.mean)
        return boxes.tolist(), valid.tolist()

    def _apply_match(self, track: Track, label: CategoryLabel | None, box: BoundingBox, t: int):
        track.hit_count += 1
        if track.status is TrackStatus.TENTATIVE:
            if track.hit_count >= self.config.min_hits_to_activate:
                track.status = TrackStatus.ACTIVE
        else:
            track.status = TrackStatus.ACTIVE
        track.history.append((t, box))
        if label is not None:
            track.predictions.append((t, label))
        track.last_update_frame = t

    def _spawn(self, labels: list[CategoryLabel | None], boxes: np.ndarray, t: int):
        """Start one track per detection box, with filters from one initiate
        call; each history starts at the observed box."""
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
        for label, box in zip(labels, boxes.tolist()):
            track = Track(
                id=self._next_id,
                state=None,
                status=status,
                last_update_frame=t,
                hit_count=1,
            )
            track.history.append((t, BoundingBox(*box)))
            if label is not None:
                track.predictions.append((t, label))
            self._next_id += 1
            self._tracks.append(track)
            self._live.append(track)
