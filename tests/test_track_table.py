"""The track table against per-track loops: ``ByteTracker.finalize`` keeps
every track's rows in one table, and the vote, the frame-wise stability and
the covering column read that table whole. Each must equal its per-track
reference in ``oracles`` on tables with unlabeled rows, tracks without a
label, ids that skip numbers and 2-6 categories."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from beltrack import Track, majority_vote, stability_report
from beltrack.metrics import covering_tracks
from beltrack.simulate import SceneGroundTruth

from oracles import (
    covering_tracks_reference,
    majority_vote_reference,
    stability_report_reference,
    table_of,
)

# Boxes on a coarse grid, so equal overlaps and partial overlaps both come up.
grid_boxes = st.tuples(
    st.integers(0, 4).map(lambda v: 5.0 * v),
    st.integers(0, 1).map(lambda v: 5.0 * v),
    st.sampled_from([10.0, 20.0]),
    st.sampled_from([10.0, 20.0]),
)
frame_sets = st.sets(st.integers(0, 5), min_size=1, max_size=6)


@st.composite
def track_tables(draw):
    """The tracks 1, 2, ... of a finished tracker, as ``Track``s and as their
    table: those shorter than the minimum report length are dropped, as
    ``finalize`` drops them, so the kept ids skip numbers. A track may have
    unlabeled rows, or no label at all."""
    num_categories = draw(st.integers(2, 6))
    min_length = draw(st.integers(1, 3))
    tracks = []
    for track_id in range(1, draw(st.integers(0, 7)) + 1):
        frames = sorted(draw(frame_sets))
        labels = st.integers(-1, num_categories - 1) if draw(st.integers(0, 3)) else st.just(-1)
        track = Track(
            track_id,
            np.array(frames, dtype=np.int64),
            np.array([draw(grid_boxes) for _ in frames], dtype=float).reshape(-1, 4),
            np.array([draw(labels) for _ in frames], dtype=np.int64),
            num_categories,
        )
        if len(frames) >= min_length:
            tracks.append(track)
    return tracks, table_of(tracks, num_categories)


@st.composite
def truths(draw):
    """Ground truth of up to four objects on the same grid."""
    objects = [sorted(draw(frame_sets)) for _ in range(draw(st.integers(0, 4)))]
    rows = sum(len(frames) for frames in objects)
    return SceneGroundTruth(
        np.arange(1, len(objects) + 1),
        np.zeros(len(objects)),
        [len(frames) for frames in objects],
        [frame for frames in objects for frame in frames],
        np.array([draw(grid_boxes) for _ in range(rows)], dtype=float).reshape(-1, 4),
    )


class TestTableMatchesPerTrackReferences:
    @settings(max_examples=300, deadline=None)
    @given(tables=track_tables())
    def test_vote(self, tables):
        tracks, table = tables
        for tie_break in ("prefer_defect", "lowest_index"):
            for collapse_first in (False, True):
                verdicts = majority_vote(table, tie_break, collapse_first)
                got = list(zip(
                    verdicts.track_ids.tolist(), verdicts.votes.tolist(),
                    verdicts.categories.tolist(),
                ))
                want = [
                    (track.id, *majority_vote_reference(
                        track.labels.tolist(), table.num_categories, tie_break, collapse_first
                    ))
                    for track in tracks if len(track.labels)
                ]
                assert got == want

    @settings(max_examples=300, deadline=None)
    @given(tables=track_tables())
    def test_stability(self, tables):
        tracks, table = tables
        for frame_choice in ("last", "first", "random"):
            for granularity in ("binary", "category"):
                args = dict(frame_choice=frame_choice, granularity=granularity)
                got = stability_report(table, **args)
                want = stability_report_reference(tracks, **args)
                assert [(c.dtype, c.tolist()) for c in got] == [(c.dtype, c.tolist()) for c in want]

    @settings(max_examples=300, deadline=None)
    @given(tables=track_tables(), gt=truths(), threshold=st.sampled_from([1e-9, 0.3, 0.5, 1.0]))
    def test_covering_column(self, tables, gt, threshold):
        tracks, table = tables
        assert covering_tracks(table, gt, threshold).tolist() == covering_tracks_reference(
            tracks, gt, threshold
        )

    @settings(max_examples=100, deadline=None)
    @given(tables=track_tables())
    def test_iterating_gives_the_tracks(self, tables):
        tracks, table = tables
        assert len(table) == len(tracks)
        for got, want in zip(table, tracks):
            assert (got.id, got.num_categories) == (want.id, want.num_categories)
            for name in ("frames", "boxes", "categories"):
                assert np.array_equal(getattr(got, name), getattr(want, name))

    @settings(max_examples=100, deadline=None)
    @given(tables=track_tables())
    def test_labeled_is_built_once(self, tables):
        tracks, table = tables
        labeled = table.labeled()
        assert table.labeled() is labeled
        assert labeled.ids.tolist() == [track.id for track in tracks if len(track.labels)]
        assert labeled.categories.tolist() == [
            label for track in tracks for label in track.labels.tolist()
        ]
