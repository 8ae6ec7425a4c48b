"""Majority-vote verdicts over each track's category predictions.

A track records one category per labeled matched frame, in the strictly
increasing frame order the tracker enforces; the final track label is the
most frequent category, collapsed to normal/defect for industrial
reporting. Voting happens over the full category set first and is collapsed
afterwards (the reverse order can differ on tracks that mix defect types
and is available via ``collapse_first``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .model import BinaryQuality, CategoryLabel, Track, to_binary

TieBreak = Literal["prefer_defect", "lowest_index"]


@dataclass(frozen=True)
class TrackVerdict:
    track_id: int
    final_category: CategoryLabel
    final_binary: BinaryQuality
    vote_counts: tuple[int, ...]
    track_length: int


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
    labels = track.labels
    if len(labels) == 0:
        raise ValueError(f"track {track.id} has no predictions to vote on")
    counts = np.bincount(labels, minlength=track.num_categories).tolist()
    top_defect = counts.index(max(counts[1:]), 1)  # lowest index among equals
    prefer_defect = tie_break == "prefer_defect"
    if collapse_first:
        normal, defect = counts[0], sum(counts[1:])
        defect_wins = defect > normal or (defect == normal and prefer_defect)
        winner = top_defect if defect_wins else 0
    else:
        winner = counts.index(max(counts))  # lowest index among equals
        if winner == 0 and prefer_defect and counts[top_defect] == counts[0]:
            winner = top_defect

    final = CategoryLabel(winner, track.num_categories)
    return TrackVerdict(
        track_id=track.id,
        final_category=final,
        final_binary=to_binary(final),
        vote_counts=tuple(counts),
        track_length=len(labels),
    )
