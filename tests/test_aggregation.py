from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from beltrack import (
    BinaryQuality,
    ByteTracker,
    CategoryLabel,
    Track,
    majority_vote,
    stability_report,
)

from oracles import BRUISE, FRESH, ROT, SCAB, frame_of, majority_vote_reference


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
        assert majority_vote(track).track_length == 100


class TestMajorityVote:
    def test_strict_majority(self):
        verdict = majority_vote(track_of(FRESH, FRESH, ROT))
        assert verdict.final_category == FRESH.index
        assert verdict.final_binary is BinaryQuality.NORMAL
        assert verdict.vote_counts == (2, 0, 1, 0)
        assert verdict.track_length == 3

    def test_tie_prefers_defect(self):
        verdict = majority_vote(track_of(FRESH, ROT))
        assert verdict.final_category == ROT.index
        assert verdict.final_binary is BinaryQuality.DEFECT

    def test_tie_between_defects_takes_lowest_index(self):
        verdict = majority_vote(track_of(ROT, SCAB, BRUISE, FRESH))
        assert verdict.final_category == BRUISE.index

    def test_lowest_index_tie_break_mode(self):
        verdict = majority_vote(track_of(FRESH, ROT), tie_break="lowest_index")
        assert verdict.final_category == FRESH.index

    def test_single_vote(self):
        verdict = majority_vote(track_of(BRUISE))
        assert verdict.final_category == BRUISE.index
        assert verdict.final_binary is BinaryQuality.DEFECT
        assert verdict.track_length == 1

    def test_empty_buffer_rejected(self):
        with pytest.raises(ValueError):
            majority_vote(track_of())

    def test_collapse_first_differs_on_mixed_defects(self):
        # fresh has the plurality of categories, but defects outnumber it
        mixed = track_of(FRESH, FRESH, FRESH, BRUISE, BRUISE, ROT, ROT)
        assert majority_vote(mixed).final_binary is BinaryQuality.NORMAL
        collapsed = majority_vote(mixed, collapse_first=True)
        assert collapsed.final_binary is BinaryQuality.DEFECT
        assert collapsed.final_category == BRUISE.index

    def test_vote_counts_sum_to_length_and_winner_is_max(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            k = int(rng.integers(1, 40))
            labels = [CategoryLabel(int(rng.integers(4))) for _ in range(k)]
            verdict = majority_vote(track_of(*labels))
            assert sum(verdict.vote_counts) == k
            assert verdict.vote_counts[verdict.final_category] == max(verdict.vote_counts)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            k = int(rng.integers(1, 25))
            labels = [CategoryLabel(int(rng.integers(4))) for _ in range(k)]
            baseline = majority_vote(track_of(*labels)).final_category
            shuffled = list(labels)
            rng.shuffle(shuffled)
            assert majority_vote(track_of(*shuffled)).final_category == baseline

    def test_appending_current_winner_never_changes_verdict(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            k = int(rng.integers(1, 25))
            labels = [CategoryLabel(int(rng.integers(4))) for _ in range(k)]
            winner = majority_vote(track_of(*labels)).final_category
            extended = majority_vote(track_of(*labels, CategoryLabel(winner))).final_category
            assert extended == winner

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        num_categories=st.integers(2, 6),
        tie_break=st.sampled_from(["prefer_defect", "lowest_index"]),
        collapse_first=st.booleans(),
    )
    def test_matches_loop_reference(self, data, num_categories, tie_break, collapse_first):
        # unlabeled frames (-1) sit between the labels and cast no vote
        categories = data.draw(st.lists(st.integers(-1, num_categories - 1), max_size=30))
        labels = [c for c in categories if c >= 0]
        track = replace(track_of(*(
            None if c < 0 else CategoryLabel(c, num_categories) for c in categories
        )), num_categories=num_categories)
        if not labels:
            with pytest.raises(ValueError, match="no predictions"):
                majority_vote(track, tie_break, collapse_first)
            return
        verdict = majority_vote(track, tie_break, collapse_first)
        counts, winner = majority_vote_reference(labels, num_categories, tie_break, collapse_first)
        assert verdict.vote_counts == tuple(counts)
        assert verdict.final_category == winner
        assert verdict.final_binary is (BinaryQuality.NORMAL if winner == 0 else BinaryQuality.DEFECT)
        assert verdict.track_length == len(labels)


class TestFrameWiseLabels:
    # without voting, each labeled frame is collapsed to normal/defect on its
    # own; stability_report reads that sequence off the category column

    def test_sequence_mapping(self):
        report = stability_report([track_of(FRESH, ROT, FRESH)])
        assert report.per_track_stability[1] == 1.0 - 2 / 3
        assert report.n_defect_tracks == 0  # the last frame is fresh

    def test_all_fresh(self):
        report = stability_report([track_of(*([FRESH] * 5))])
        assert report.per_track_stability[1] == 1.0
        assert report.n_defect_tracks == 0

    def test_alternating_has_five_changes(self):
        report = stability_report([track_of(FRESH, ROT, FRESH, ROT, FRESH, ROT)])
        assert report.per_track_stability[1] == 1.0 - 5 / 6

    def test_empty_buffer_rejected(self):
        with pytest.raises(ValueError):
            stability_report([track_of()])


class TestVoteAccuracyBound:
    def test_matches_binomial_oracle_under_flip_noise(self):
        # i.i.d. flips with probability q < 0.5; a strict majority of correct
        # votes guarantees a correct verdict, so accuracy over many tracks
        # must reach at least P(Binom(k, 1-q) > k//2) minus slack.
        q, k, n_tracks = 0.3, 21, 500
        rng = np.random.default_rng(42)
        correct = 0
        for track in range(n_tracks):
            true = CategoryLabel(int(rng.integers(4)))
            labels = []
            for _ in range(k):
                if rng.random() < q:
                    others = [c for c in range(4) if c != true.index]
                    labels.append(CategoryLabel(others[int(rng.integers(3))]))
                else:
                    labels.append(true)
            verdict = majority_vote(track_of(*labels))
            correct += verdict.final_category == true.index
        bound = stats.binom.sf(k // 2, k, 1 - q)
        assert correct / n_tracks >= bound - 0.03
