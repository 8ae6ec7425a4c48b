"""Two-stage association tracker with track lifecycle management.

Each frame is processed in two matching rounds: confident detections are
matched against all live tracks first, then the leftover low-confidence
detections get a chance to keep unmatched active tracks alive. That second
round is what rides out short detector dips from blur or partial occlusion
without fragmenting identities.
"""

from __future__ import annotations

from dataclasses import dataclass

from .assignment import build_cost_matrix, solve_assignment
from .errors import ConfigError
from .kalman import (
    FilterDiverged,
    kf_initiate,
    kf_predict,
    kf_update,
    state_to_box,
)
from .model import BoundingBox, Detection, FrameDetections, Track, TrackStatus


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

    One instance per video stream; calls must be externally serialized.
    """

    def __init__(self, config: TrackerConfig | None = None):
        self.config = config if config is not None else TrackerConfig()
        self._tracks: list[Track] = []  # every track ever created, in spawn order
        self._live: list[Track] = []  # the tracks not yet removed, in spawn order
        self._next_id = 1
        self._last_frame: int | None = None

    def step(self, frame: FrameDetections) -> TrackerOutput:
        """Process one frame of detections.

        Stages: split detections by score, predict all live tracks forward,
        match high detections against every non-removed track, match low
        detections against the remaining active tracks, then demote the
        unmatched, expire long-lost tracks, and spawn new ones from leftover
        confident detections.
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

        high = [d for d in frame.detections if d.score >= cfg.high_score_threshold]
        low = [
            d
            for d in frame.detections
            if cfg.low_score_threshold <= d.score < cfg.high_score_threshold
        ]

        # Each predicted box is decoded once: the decode that catches a
        # diverged filter also feeds both association rounds.
        pool: list[Track] = []
        pool_boxes: list[BoundingBox] = []
        for track in self._live:
            track.state = kf_predict(track.state)
            try:
                pool_boxes.append(state_to_box(track.state))
            except FilterDiverged:
                track.status = TrackStatus.REMOVED
                removed_now.append(track.id)
                continue
            pool.append(track)

        # First round: every live track vs confident detections.
        costs = build_cost_matrix(pool_boxes, [d.box for d in high])
        first = solve_assignment(costs, cfg.match_threshold_first)
        for ti, di in first.matches:
            self._apply_match(pool[ti], high[di], t)

        # Second round: still-unmatched active tracks vs low-confidence
        # detections. Lost and tentative tracks sit this one out.
        leftover_rows = [
            i for i in first.unmatched_tracks if pool[i].status is TrackStatus.ACTIVE
        ]
        leftovers = [pool[i] for i in leftover_rows]
        costs = build_cost_matrix([pool_boxes[i] for i in leftover_rows], [d.box for d in low])
        second = solve_assignment(costs, cfg.match_threshold_second)
        for ti, di in second.matches:
            self._apply_match(leftovers[ti], low[di], t)

        # Lifecycle for everything that found no detection this frame.
        unmatched = [leftovers[i] for i in second.unmatched_tracks]
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
            self._live = [tr for tr in self._live if tr.status is not TrackStatus.REMOVED]

        # Spawn new tracks from confident detections nothing claimed.
        for di in first.unmatched_detections:
            det = high[di]
            if det.score < cfg.spawn_score:
                continue
            self._spawn(det, t)

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
        lifecycle state preserved, filtered by the configured minimum length."""
        return [
            tr for tr in self._tracks if len(tr.history) >= self.config.min_track_length_report
        ]

    def _apply_match(self, track: Track, det: Detection, t: int):
        track.state = kf_update(track.state, det.box)
        track.hit_count += 1
        if track.status is TrackStatus.TENTATIVE:
            if track.hit_count >= self.config.min_hits_to_activate:
                track.status = TrackStatus.ACTIVE
        else:
            track.status = TrackStatus.ACTIVE
        track.history.append((t, state_to_box(track.state)))
        if det.category_observation is not None:
            track.predictions.append((t, det.category_observation))
        track.last_update_frame = t

    def _spawn(self, det: Detection, t: int):
        status = (
            TrackStatus.ACTIVE
            if self.config.min_hits_to_activate <= 1
            else TrackStatus.TENTATIVE
        )
        track = Track(
            id=self._next_id,
            state=kf_initiate(det.box),
            status=status,
            last_update_frame=t,
            hit_count=1,
        )
        track.history.append((t, state_to_box(track.state)))
        if det.category_observation is not None:
            track.predictions.append((t, det.category_observation))
        self._next_id += 1
        self._tracks.append(track)
        self._live.append(track)
