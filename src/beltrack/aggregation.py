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

from .model import TrackTable

TieBreak = Literal["prefer_defect", "lowest_index"]


@dataclass(frozen=True, eq=False)
class VerdictTable:
    """One row per labeled track, in id order: ``track_ids`` (n,), ``votes``
    (n, num_categories), the track's label count per category, and the
    winning ``categories`` (n,): index 0 is normal, any other a defect."""

    track_ids: np.ndarray
    votes: np.ndarray
    categories: np.ndarray

    def __len__(self) -> int:
        return len(self.track_ids)


def majority_vote(
    tracks: TrackTable, tie_break: TieBreak = "prefer_defect", collapse_first: bool = False
) -> VerdictTable:
    """Each labeled track's most-voted category (``elected``), from one
    ``bincount`` over the (track, category) pairs of the table's labeled
    rows."""
    labeled = tracks.labeled()
    n, c = len(labeled), labeled.num_categories
    cells = np.repeat(np.arange(n), labeled.counts) * c + labeled.categories
    votes = np.bincount(cells, minlength=n * c).reshape(n, c)
    return VerdictTable(labeled.ids, votes, elected(votes, tie_break, collapse_first))


def elected(votes: np.ndarray, tie_break: TieBreak, collapse_first: bool) -> np.ndarray:
    """The category each row of ``votes``, a track's count per category,
    elects. The default tie rule prefers any defect category over fresh (a
    false reject is cheaper than shipping a defect), then the lowest defect
    index; ``lowest_index`` picks the smallest tied index instead. With
    ``collapse_first`` the vote is binary normal-vs-defect and the reported
    category is the most frequent one on the winning side."""
    top_defect = 1 + votes[:, 1:].argmax(axis=1)  # the lowest index among equals
    # The top defect wins on its own count, or the defects' sum, against fresh's.
    rival = votes[:, 1:].sum(axis=1) if collapse_first else votes[np.arange(len(votes)), top_defect]
    defect_wins = (rival > votes[:, 0]) | ((rival == votes[:, 0]) & (tie_break == "prefer_defect"))
    return np.where(defect_wins, top_defect, 0)
