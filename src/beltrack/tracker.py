"""Two-stage association tracker with track lifecycle management.

Each frame is processed in two matching rounds: confident detections are
matched against all live tracks first, then the leftover low-confidence
detections get a chance to keep unmatched active tracks alive. That second
round is what rides out short detector dips from blur or partial occlusion
without fragmenting identities.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .assignment import build_cost_matrix, solve_assignment
from .errors import ConfigError
from .kalman import (
    STATE_ROWS,
    KalmanState,
    decode_boxes,
    encodes_boxes,
    kf_initiate,
    kf_predict,
    kf_update,
)
from .model import DEFAULT_NUM_CATEGORIES, FrameDetections, TrackTable, corners

#: One row of a tracker's match table: a track matched (or spawned from) a
#: detection on a frame; category -1 where the detection had no label. The
#: box is the observed x, y, w, h on a spawn row and the filter's (cx, cy,
#: a, h) on a match row, which ``finalize`` decodes.
MATCH_ROW = np.dtype(
    [("frame", np.int64), ("track", np.int64), ("box", np.float64, (4,)), ("category", np.int64)]
)
#: The ``status`` codes. A column marked REMOVED leaves the live tables
#: before its step returns.
TENTATIVE, ACTIVE, LOST, REMOVED = range(4)
#: The status a column moves to when it is not matched, by its status code.
_ON_MISS = np.array([REMOVED, LOST, LOST, REMOVED])
#: Rows of the match table that ``finalize`` decodes at once.
_DECODE_ROWS = 4096


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

    Each live track is one column, in id order, of two tables: ``_life``
    (int64 rows id, status code, hit count, last matched frame) and
    ``_filters`` (see ``KalmanState.view``). Each frame makes one in-place
    predict call and one update call however many tracks are live, and
    moves the columns through the lifecycle with whole-row masks. Both
    tables are views of the first columns of buffers whose capacity doubles
    when a spawn fills them: a spawn writes into the free columns, and a
    removal moves the kept columns down, so a removed column leaves both
    tables and nothing else behind.

    Each frame appends its matches and spawns to one table of ``MATCH_ROW``
    rows, which ``finalize`` sorts into the track table, live and removed
    tracks alike, decoding the matched filters' positions to boxes there.

    One instance per video stream; calls must be externally serialized.
    """

    def __init__(self, config: TrackerConfig | None = None):
        self.config = config if config is not None else TrackerConfig()
        self._life_buffer = np.zeros((4, 16), np.int64)
        self._filter_buffer = np.zeros((STATE_ROWS, 16))
        self._live_columns(0)
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
        # Only a labeled frame with another category count can change or
        # contradict the count of the labeled frames so far.
        recount = frame.num_categories != self._num_categories
        if recount and max(frame.categories.tolist(), default=-1) >= 0:  # a labeled detection
            if self._num_categories is not None:
                raise ValueError(
                    f"frame {frame.frame_index} has {frame.num_categories} categories, "
                    f"earlier frames have {self._num_categories}"
                )
            self._num_categories = frame.num_categories
        self._last_frame = frame.frame_index
        t = frame.frame_index
        cfg = self.config

        det_boxes = frame.boxes
        # A frame holds a few dozen detections: plain lists beat NumPy calls.
        scores = frame.scores.tolist()
        low_score, high_score = cfg.low_score_threshold, cfg.high_score_threshold
        high, low = [], []
        for i, score in enumerate(scores):
            if score >= high_score:
                high.append(i)
            elif score >= low_score:
                low.append(i)

        # The step runs without floating-point warnings: a filter whose box
        # height is too large or too small for its height-scaled variances
        # turns inf or nan, and is removed as diverged below.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            # A filter whose prediction no longer encodes a box is removed on its
            # own; the predicted boxes of the rest feed both association rounds.
            boxes, valid = decode_boxes(kf_predict(self._state).mean)
            removed_ids = []
            if not valid.all():
                removed_ids, boxes = self._remove(~valid), boxes[:, valid]
            life = self._life
            track_ids, status, hits, last = life[0], life[1], life[2], life[3]

            # One cost matrix for both rounds: every live track against the
            # confident detections (its first columns), then the low ones.
            costs = build_cost_matrix(boxes[:4], corners(det_boxes.take(high + low, axis=0)))

            # First round: every live track vs confident detections.
            first = solve_assignment(costs[:, : len(high)], cfg.match_threshold_first)
            matched = [(ti, high[di]) for ti, di in first.matches]

            # Second round: still-unmatched active tracks vs low-confidence
            # detections. Lost and tentative tracks sit this one out.
            active = (status == ACTIVE).tolist()
            leftover_rows = [i for i in first.unmatched_tracks if active[i]]
            if leftover_rows and low:
                low_costs = costs.take(leftover_rows, axis=0)[:, len(high) :]
                # The solver runs only if some pair can pass the gate; a nan
                # still reaches it, and its ValueError.
                if not low_costs.min() > cfg.match_threshold_second:
                    second = solve_assignment(low_costs, cfg.match_threshold_second)
                    matched += [(leftover_rows[ti], low[di]) for ti, di in second.matches]

            # One update for the matches of both rounds. Round 2 scores only
            # tracks round 1 left unmatched, on their predicted boxes, so
            # deferring round 1's updates to here changes nothing. A filter
            # the update leaves without a box is removed, like one diverged
            # above, and its match is not recorded; ``decode_boxes`` finds
            # such filters only where the bounds check cannot clear them all.
            # The kept matches go to the match table with their filters'
            # positions, which ``finalize`` decodes to boxes.
            if matched:
                rows, matched_dets = (np.array(column) for column in zip(*matched))
                posterior = self._filters.take(rows, axis=1)
                kf_update(KalmanState.view(posterior), det_boxes.T.take(matched_dets, axis=1))
                self._filters[:, rows] = posterior
                if not encodes_boxes(posterior):
                    valid = decode_boxes(posterior)[1]
                    status[rows[~valid]] = REMOVED
                    rows, matched_dets, posterior = rows[valid], matched_dets[valid], posterior[:, valid]
                hits[rows] += 1
                last[rows] = t
                # Only a tentative track has fewer hits than it takes to activate.
                status[rows[hits[rows] >= cfg.min_hits_to_activate]] = ACTIVE
                self._record(t, track_ids.take(rows), posterior[:4].T, frame.categories.take(matched_dets))

            # Every column that found no detection this frame moves on: a
            # tentative one is removed and an active one is lost. One left
            # unmatched for over ``max_frames_lost`` frames is removed.
            missed = last < t
            status[missed] = _ON_MISS[status[missed]]
            status[last < t - cfg.max_frames_lost] = REMOVED
            removed = status == REMOVED
            if removed.any():
                removed_ids += self._remove(removed)

            # Spawn new tracks from confident detections nothing claimed.
            spawn_score = cfg.spawn_score
            spawn = [high[di] for di in first.unmatched_detections if scores[high[di]] >= spawn_score]
            if spawn:
                born = det_boxes.take(spawn, axis=0)
                # A new track's row holds the observed box itself.
                ids = range(self._next_id, self._next_id + len(spawn))
                self._record(t, ids, born, frame.categories.take(spawn))
                self._spawn(born, t)

        track_ids, status = self._life[0], self._life[1]
        return TrackerOutput(
            frame_index=t,
            active_tracks=tuple(track_ids[status == ACTIVE].tolist()),
            newly_removed_track_ids=tuple(sorted(removed_ids)),
        )

    def finalize(self) -> TrackTable:
        """All tracks ever created (removed ones included) as one table in id
        order, without those shorter than the configured minimum length: a
        read-only sorted copy of the match table's rows, built anew by each
        call, so later steps leave the tables of earlier calls as they were."""
        table = self._matches[: self._rows]
        # Ids run 1, 2, ... in spawn order, and each track has its spawn row.
        counts = np.bincount(table["track"], minlength=self._next_id)[1:]
        kept = counts >= self.config.min_track_length_report
        table = table[np.argsort(table["track"], kind="stable")[np.repeat(kept, counts)]]
        # A track's first row holds its spawn box, each later one a filter's
        # (cx, cy, a, h): decode those, a block of rows at a time.
        counts = counts[kept]
        states = np.ones(len(table), bool)
        states[np.cumsum(counts) - counts] = False
        boxes = table["box"]
        for start in range(0, len(table), _DECODE_ROWS):
            rows = np.flatnonzero(states[start : start + _DECODE_ROWS]) + start
            boxes[rows] = decode_boxes(boxes[rows].T)[0].take([0, 1, 6, 7], axis=0).T
        table.flags.writeable = False
        return TrackTable(
            np.arange(1, self._next_id)[kept], counts, table["frame"], table["box"],
            table["category"], self._num_categories or DEFAULT_NUM_CATEGORIES,
        )

    def _remove(self, mask: np.ndarray) -> list[int]:
        """Drop the masked columns from the live tables, moving the kept ones
        down in order, and return their ids."""
        removed = self._life[0, mask].tolist()
        kept = np.flatnonzero(~mask)
        self._live_columns(len(kept))
        self._life[:] = self._life_buffer.take(kept, axis=1)
        self._filters[:] = self._filter_buffer.take(kept, axis=1)
        return removed

    def _record(self, t: int, ids: Sequence[int], boxes: np.ndarray, categories: np.ndarray):
        """Append a block of one frame's rows to the match table, doubling
        the table when it is full (rows past ``_rows`` are never read)."""
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
        """Append one column per detection box, with filters from one
        initiate call."""
        born = kf_initiate(boxes.T)
        start, n = self._life.shape[1], len(boxes)
        if start + n > self._life_buffer.shape[1]:
            grow = ((0, 0), (0, max(start + n, 2 * self._life_buffer.shape[1]) - start))
            self._life_buffer = np.pad(self._life, grow)
            self._filter_buffer = np.pad(self._filters, grow)
        self._live_columns(start + n)
        life, filters = self._life[:, start:], self._filters[:, start:]
        life[0] = range(self._next_id, self._next_id + n)
        life[1] = ACTIVE if self.config.min_hits_to_activate <= 1 else TENTATIVE
        life[2] = 1
        life[3] = t
        filters[:8] = born.mean
        filters[8:] = born.blocks
        self._next_id += n

    def _live_columns(self, n: int):
        """Make the live tables the first ``n`` columns of their buffers."""
        self._life = self._life_buffer[:, :n]
        self._filters = self._filter_buffer[:, :n]
        self._state = KalmanState.view(self._filters)

