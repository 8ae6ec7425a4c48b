import numpy as np
import pytest
from scipy import stats

from beltrack import (
    BinaryQuality,
    BoundingBox,
    ByteTracker,
    CategoryLabel,
    Detection,
    FrameDetections,
    Track,
    TrackStatus,
    frame_wise_verdicts,
    majority_vote,
)
from beltrack.model import BRUISE, FRESH, ROT, SCAB


def track_of(*labels, track_id=1):
    """A finished track that predicted ``labels`` on frames 0, 1, 2, ..."""
    return Track(
        id=track_id, state=None, status=TrackStatus.REMOVED,
        last_update_frame=max(len(labels) - 1, 0),
        predictions=list(enumerate(labels)),
    )


def tracked_frame(t, label):
    """One confident detection of an apple moving 1 px per frame."""
    box = BoundingBox(float(t), 50.0, 32.0, 32.0)
    return FrameDetections(t, [Detection(t, box, 0.9, label)])


class TestRecordPrediction:
    # the votes read Track.predictions, which the tracker fills one entry per
    # labelled matched frame; these check the recording the votes rely on

    def test_append_to_empty(self):
        tracker = ByteTracker()
        tracker.step(tracked_frame(0, FRESH))
        (track,) = tracker.finalize()
        assert track.predictions == [(0, FRESH)]

    def test_non_increasing_frame_rejected(self):
        tracker = ByteTracker()
        tracker.step(tracked_frame(0, FRESH))
        tracker.step(tracked_frame(1, FRESH))
        with pytest.raises(ValueError):
            tracker.step(tracked_frame(1, ROT))
        with pytest.raises(ValueError):
            tracker.step(tracked_frame(0, ROT))
        (track,) = tracker.finalize()
        assert track.predictions == [(0, FRESH), (1, FRESH)]

    def test_hundred_sequential_records(self):
        tracker = ByteTracker()
        for t in range(100):
            tracker.step(tracked_frame(t, FRESH))
        (track,) = tracker.finalize()
        assert len(track.predictions) == 100
        assert [f for f, _ in track.predictions] == list(range(100))
        assert majority_vote(track).track_length == 100


class TestMajorityVote:
    def test_strict_majority(self):
        verdict = majority_vote(track_of(FRESH, FRESH, ROT))
        assert verdict.final_category == FRESH
        assert verdict.final_binary is BinaryQuality.NORMAL
        assert verdict.vote_counts == (2, 0, 1, 0)
        assert verdict.track_length == 3

    def test_tie_prefers_defect(self):
        verdict = majority_vote(track_of(FRESH, ROT))
        assert verdict.final_category == ROT
        assert verdict.final_binary is BinaryQuality.DEFECT

    def test_tie_between_defects_takes_lowest_index(self):
        verdict = majority_vote(track_of(ROT, SCAB, BRUISE, FRESH))
        assert verdict.final_category == BRUISE

    def test_lowest_index_tie_break_mode(self):
        verdict = majority_vote(track_of(FRESH, ROT), tie_break="lowest_index")
        assert verdict.final_category == FRESH

    def test_single_vote(self):
        verdict = majority_vote(track_of(BRUISE))
        assert verdict.final_category == BRUISE
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
        assert collapsed.final_category == BRUISE

    def test_vote_counts_sum_to_length_and_winner_is_max(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            k = int(rng.integers(1, 40))
            labels = [CategoryLabel(int(rng.integers(4))) for _ in range(k)]
            verdict = majority_vote(track_of(*labels))
            assert sum(verdict.vote_counts) == k
            assert verdict.vote_counts[verdict.final_category.index] == max(verdict.vote_counts)

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
            extended = majority_vote(track_of(*labels, winner)).final_category
            assert extended == winner


class TestFrameWiseVerdicts:
    def test_sequence_mapping(self):
        labels = frame_wise_verdicts(track_of(FRESH, ROT, FRESH))
        assert labels == [BinaryQuality.NORMAL, BinaryQuality.DEFECT, BinaryQuality.NORMAL]

    def test_all_fresh(self):
        labels = frame_wise_verdicts(track_of(*([FRESH] * 5)))
        assert labels == [BinaryQuality.NORMAL] * 5

    def test_alternating_has_five_changes(self):
        labels = frame_wise_verdicts(track_of(FRESH, ROT, FRESH, ROT, FRESH, ROT))
        changes = sum(1 for a, b in zip(labels, labels[1:]) if a != b)
        assert changes == 5

    def test_empty_buffer_rejected(self):
        with pytest.raises(ValueError):
            frame_wise_verdicts(track_of())


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
            correct += verdict.final_category == true
        bound = stats.binom.sf(k // 2, k, 1 - q)
        assert correct / n_tracks >= bound - 0.03
