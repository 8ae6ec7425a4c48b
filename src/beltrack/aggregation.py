"""Majority-vote verdicts over each track's category predictions.

A track accumulates one category prediction per matched frame, in the
strictly increasing frame order the tracker enforces; the final track label
is the most frequent category, collapsed to normal/defect for industrial
reporting. Voting happens over the full category set first and is collapsed
afterwards (the reverse order can differ on tracks that mix defect types
and is available via ``collapse_first``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from .model import BinaryQuality, CategoryLabel, Track, to_binary

TieBreak = Literal["prefer_defect", "lowest_index"]


@dataclass(frozen=True)
class TrackVerdict:
    track_id: int
    final_category: CategoryLabel
    final_binary: BinaryQuality
    vote_counts: tuple[int, ...]
    track_length: int


def _count_votes(track: Track) -> list[int]:
    if not track.predictions:
        raise ValueError(f"track {track.id} has no predictions to vote on")
    num_categories = track.predictions[0][1].num_categories
    counts = [0] * num_categories
    for _, label in track.predictions:
        counts[label.index] += 1
    return counts


def _break_tie(tied: list[int], tie_break: TieBreak) -> int:
    if tie_break == "lowest_index":
        return tied[0]
    defects = [c for c in tied if c >= 1]
    return defects[0] if defects else tied[0]


def majority_vote(
    track: Track,
    tie_break: TieBreak = "prefer_defect",
    collapse_first: bool = False,
) -> TrackVerdict:
    """Final track label as the most-voted category.

    The default tie rule prefers any defect category over fresh (a false
    reject is cheaper than shipping a defect), then the lowest defect index;
    ``lowest_index`` picks the smallest tied index instead. With
    ``collapse_first`` the vote is binary normal-vs-defect and the reported
    category is the most frequent one on the winning side.
    """
    counts = _count_votes(track)
    num_categories = len(counts)

    if collapse_first:
        normal_votes = counts[0]
        defect_votes = sum(counts[1:])
        if defect_votes > normal_votes:
            defect_wins = True
        elif defect_votes < normal_votes:
            defect_wins = False
        else:
            defect_wins = tie_break == "prefer_defect"
        if defect_wins:
            best = max(counts[1:])
            winner = next(c for c in range(1, num_categories) if counts[c] == best)
        else:
            winner = 0
    else:
        best = max(counts)
        tied = [c for c in range(num_categories) if counts[c] == best]
        winner = tied[0] if len(tied) == 1 else _break_tie(tied, tie_break)

    final = CategoryLabel(winner, num_categories)
    return TrackVerdict(
        track_id=track.id,
        final_category=final,
        final_binary=to_binary(final),
        vote_counts=tuple(counts),
        track_length=len(track.predictions),
    )


def frame_wise_verdicts(track: Track) -> list[BinaryQuality]:
    """Per-frame binary labels without any aggregation (the no-tracking baseline)."""
    if not track.predictions:
        raise ValueError(f"track {track.id} has no predictions")
    return [to_binary(label) for _, label in track.predictions]
