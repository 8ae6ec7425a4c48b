from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from beltrack import (
    ByteTracker,
    CategoryLabel,
    Track,
    majority_vote,
    stability_report,
)

from oracles import BRUISE, FRESH, ROT, SCAB, frame_of, majority_vote_reference, table_of


def track_of(*labels, track_id=1):
    """A finished track that predicted ``labels`` on frames 0, 1, 2, ...; a
    None label is a matched frame without a label."""
    k = len(labels)
    counts = {label.num_categories for label in labels if label is not None}
    return Track(
        id=track_id,
        frames=np.arange(k, dtype=np.int64),
        boxes=np.tile([0.0, 0.0, 10.0, 10.0], (k, 1)),
        categories=np.array([-1 if c is None else c.index for c in labels], dtype=np.int64),
        num_categories=counts.pop() if counts else 4,
    )


def tracked_frame(t, label):
    """One confident detection of an apple moving 1 px per frame."""
    return frame_of(t, [(float(t), 50.0, 32.0, 32.0, 0.9, label)])


class TestRecordPrediction:
    # the votes read a track's category column, which the tracker fills one
    # row per matched frame; these check the recording the votes rely on

    def test_append_to_empty(self):
        tracker = ByteTracker()
        tracker.step(tracked_frame(0, FRESH))
        (track,) = tracker.finalize()
        assert (track.frames.tolist(), track.categories.tolist()) == ([0], [FRESH.index])

    def test_non_increasing_frame_rejected(self):
        tracker = ByteTracker()
        tracker.step(tracked_frame(0, FRESH))
        tracker.step(tracked_frame(1, FRESH))
        with pytest.raises(ValueError):
            tracker.step(tracked_frame(1, ROT))
        with pytest.raises(ValueError):
            tracker.step(tracked_frame(0, ROT))
        (track,) = tracker.finalize()
        assert (track.frames.tolist(), track.categories.tolist()) == ([0, 1], [FRESH.index] * 2)

    def test_hundred_sequential_records(self):
        tracker = ByteTracker()
        for t in range(100):
            tracker.step(tracked_frame(t, FRESH))
        (track,) = tracker.finalize()
        assert track.frames.tolist() == list(range(100))
        assert track.labels.tolist() == [FRESH.index] * 100
        assert majority_vote(tracker.finalize()).votes.tolist() == [[100, 0, 0, 0]]


#: The tracks each case is voted between, as tracks 1 and 4 of a table whose
#: case is track 3: a count that leaks into a neighbouring track changes a
#: verdict.
NEIGHBOURS = ((SCAB, SCAB, None, SCAB), (FRESH, BRUISE, None, FRESH))


def vote(*labels, tie_break="prefer_defect", collapse_first=False):
    """The vote counts and the winner of a track that predicted ``labels``
    (None: no label), voted in one table between its neighbours, whose
    verdicts must equal the reference's; None if it gets no verdict."""
    before, after = NEIGHBOURS
    tracks = [track_of(*before, track_id=1), track_of(*labels, track_id=3),
              track_of(*after, track_id=4)]
    verdicts = majority_vote(table_of(tracks), tie_break, collapse_first)
    rows = {
        track_id: (tuple(votes), winner)
        for track_id, votes, winner in zip(
            verdicts.track_ids.tolist(), verdicts.votes.tolist(), verdicts.categories.tolist()
        )
    }
    for track_id, neighbour in ((1, before), (4, after)):
        counts, winner = majority_vote_reference(
            [label.index for label in neighbour if label is not None], 4, tie_break, collapse_first
        )
        assert rows.pop(track_id) == (tuple(counts), winner)
    return rows.get(3)


class TestMajorityVote:
    def test_strict_majority(self):
        assert vote(FRESH, FRESH, ROT) == ((2, 0, 1, 0), FRESH.index)

    def test_tie_prefers_defect(self):
        assert vote(FRESH, ROT)[1] == ROT.index

    def test_tie_between_defects_takes_lowest_index(self):
        assert vote(ROT, SCAB, BRUISE, FRESH)[1] == BRUISE.index

    def test_lowest_index_tie_break_mode(self):
        assert vote(FRESH, ROT, tie_break="lowest_index")[1] == FRESH.index

    def test_single_vote(self):
        assert vote(BRUISE) == ((0, 1, 0, 0), BRUISE.index)

    def test_track_without_labels_gets_no_verdict(self):
        assert vote() is None
        assert vote(None, None) is None
        assert vote(None, ROT, None) == ((0, 0, 1, 0), ROT.index)

    def test_collapse_first_differs_on_mixed_defects(self):
        # fresh has the plurality of categories, but defects outnumber it
        mixed = (FRESH, FRESH, FRESH, BRUISE, BRUISE, ROT, ROT)
        assert vote(*mixed)[1] == FRESH.index
        assert vote(*mixed, collapse_first=True)[1] == BRUISE.index

    def test_vote_counts_sum_to_length_and_winner_is_max(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            k = int(rng.integers(1, 40))
            labels = [CategoryLabel(int(rng.integers(4))) for _ in range(k)]
            counts, winner = vote(*labels)
            assert sum(counts) == k
            assert counts[winner] == max(counts)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            k = int(rng.integers(1, 25))
            labels = [CategoryLabel(int(rng.integers(4))) for _ in range(k)]
            baseline = vote(*labels)[1]
            shuffled = list(labels)
            rng.shuffle(shuffled)
            assert vote(*shuffled)[1] == baseline

    def test_appending_current_winner_never_changes_verdict(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            k = int(rng.integers(1, 25))
            labels = [CategoryLabel(int(rng.integers(4))) for _ in range(k)]
            winner = vote(*labels)[1]
            assert vote(*labels, CategoryLabel(winner))[1] == winner

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        num_categories=st.integers(2, 6),
        tie_break=st.sampled_from(["prefer_defect", "lowest_index"]),
        collapse_first=st.booleans(),
    )
    def test_matches_loop_reference(self, data, num_categories, tie_break, collapse_first):
        # unlabeled frames (-1) sit between the labels and cast no vote, and
        # a track with no label gets no verdict
        histories = data.draw(st.lists(
            st.lists(st.integers(-1, num_categories - 1), max_size=30), max_size=6
        ))
        tracks = [
            replace(track_of(*(
                None if c < 0 else CategoryLabel(c, num_categories) for c in categories
            ), track_id=track_id), num_categories=num_categories)
            for track_id, categories in enumerate(histories, start=1)
        ]
        verdicts = majority_vote(table_of(tracks, num_categories), tie_break, collapse_first)
        want = [
            (track.id, *majority_vote_reference(
                track.labels.tolist(), num_categories, tie_break, collapse_first
            ))
            for track in tracks if len(track.labels)
        ]
        assert verdicts.votes.shape == (len(want), num_categories)
        assert list(zip(
            verdicts.track_ids.tolist(), verdicts.votes.tolist(), verdicts.categories.tolist()
        )) == want


class TestFrameWiseLabels:
    # without voting, each labeled frame is collapsed to normal/defect on its
    # own; stability_report reads that sequence off the category column

    def test_sequence_mapping(self):
        categories, stability = stability_report(table_of([track_of(FRESH, ROT, FRESH)]))
        assert stability.tolist() == [1.0 - 2 / 3]
        assert categories.tolist() == [FRESH.index]  # the last frame is fresh

    def test_all_fresh(self):
        categories, stability = stability_report(table_of([track_of(*([FRESH] * 5))]))
        assert stability.tolist() == [1.0]
        assert categories.tolist() == [FRESH.index]

    def test_alternating_has_five_changes(self):
        _, stability = stability_report(table_of([track_of(FRESH, ROT, FRESH, ROT, FRESH, ROT)]))
        assert stability.tolist() == [1.0 - 5 / 6]

    def test_empty_buffer_gives_empty_columns(self):
        for tracks in ([], [track_of()], [track_of(None, None)]):
            categories, stability = stability_report(table_of(tracks))
            assert len(categories) == len(stability) == 0


class TestVoteAccuracyBound:
    def test_matches_binomial_oracle_under_flip_noise(self):
        # i.i.d. flips with probability q < 0.5; a strict majority of correct
        # votes guarantees a correct verdict, so accuracy over many tracks
        # must reach at least P(Binom(k, 1-q) > k//2) minus slack.
        q, k, n_tracks = 0.3, 21, 500
        rng = np.random.default_rng(42)
        tracks, truths = [], []
        for track_id in range(n_tracks):
            true = CategoryLabel(int(rng.integers(4)))
            labels = []
            for _ in range(k):
                if rng.random() < q:
                    others = [c for c in range(4) if c != true.index]
                    labels.append(CategoryLabel(others[int(rng.integers(3))]))
                else:
                    labels.append(true)
            tracks.append(track_of(*labels, track_id=track_id))
            truths.append(true.index)
        verdicts = majority_vote(table_of(tracks))
        correct = int(np.count_nonzero(verdicts.categories == truths))
        bound = stats.binom.sf(k // 2, k, 1 - q)
        assert correct / n_tracks >= bound - 0.03
