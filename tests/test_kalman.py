import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beltrack import (
    BoundingBox,
    KalmanState,
    decode_boxes,
    kf_initiate,
    kf_predict,
    kf_update,
)

from oracles import (
    decoded_box,
    dense_covariance,
    kf_predict_reference,
    kf_update_reference,
    stacked,
)


def random_box(rng):
    """An (x, y, w, h) box."""
    return np.concatenate([rng.uniform(0, 200, 2), rng.uniform(5, 80, 2)])


class TestInitiate:
    def test_square_box_encoding(self):
        state = kf_initiate(np.array([0.0, 0.0, 2.0, 2.0]))
        assert np.allclose(state.mean, [1, 1, 1, 2, 0, 0, 0, 0])

    def test_rectangular_box_encoding(self):
        state = kf_initiate(np.array([10.0, 10.0, 4.0, 8.0]))
        assert np.allclose(state.mean, [12, 14, 0.5, 8, 0, 0, 0, 0])

    def test_covariance_is_symmetric_psd(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            state = kf_initiate(random_box(rng))
            covariance = dense_covariance(state.blocks)
            assert np.allclose(covariance, covariance.T)
            assert np.all(np.linalg.eigvalsh(covariance) >= 0)


class TestRoundTrip:
    def test_exact_examples(self):
        for box in ((0, 0, 2, 2), (10, 10, 4, 8)):
            assert decoded_box(kf_initiate(np.array(box))) == pytest.approx(box, abs=1e-9)

    def test_identity_on_random_boxes(self):
        rng = np.random.default_rng(1)
        boxes = np.array([random_box(rng) for _ in range(300)]).T
        back, valid = decode_boxes(kf_initiate(boxes).mean)
        assert valid.all()
        assert np.allclose(back[[0, 1, 6, 7]], boxes, rtol=0.0, atol=1e-9)

    def test_divergent_state_rejected(self):
        # A negative aspect and a zero height encode no box.
        means = np.zeros((8, 2))
        means[2:4] = [[-1.0, 1.0], [5.0, 0.0]]
        with np.errstate(divide="ignore", invalid="ignore"):
            _, valid = decode_boxes(means)
        assert valid.tolist() == [False, False]


class TestPredict:
    def test_zero_velocity_keeps_position(self):
        state = kf_initiate(np.array([0.0, 0.0, 2.0, 2.0]))
        predicted = kf_predict(state)
        assert np.allclose(predicted.mean[:4], [1, 1, 1, 2])

    def test_velocity_moves_position_one_step(self):
        state = kf_initiate(np.array([0.0, 0.0, 2.0, 2.0]))
        mean = state.mean.copy()
        mean[4] = 3.0
        moved = kf_predict(KalmanState(mean=mean, blocks=state.blocks))
        assert moved.mean[0] == pytest.approx(4.0)

    def test_trace_grows_under_process_noise(self):
        # States the filter reaches: started on a random box, then a few
        # predict/update cycles. Predict adds 4 (2 pv + vv + q_p + q_v) to
        # the trace, and an update scales pv by r / (pp + r), so pv never
        # turns negative and predict inflates total uncertainty.
        rng = np.random.default_rng(2)
        for _ in range(200):
            state = kf_initiate(random_box(rng))
            for _ in range(int(rng.integers(0, 6))):
                state = kf_update(kf_predict(state), random_box(rng))
            prior_trace = np.trace(dense_covariance(state.blocks))
            assert np.trace(dense_covariance(kf_predict(state).blocks)) > prior_trace


class TestUpdate:
    def test_zero_innovation_keeps_position(self):
        state = kf_predict(kf_initiate(np.array([0.0, 0.0, 2.0, 2.0])))
        observed = np.array(decoded_box(state))
        prior = state.mean.copy()
        updated = kf_update(state, observed)
        assert np.allclose(updated.mean[:4], prior[:4], atol=1e-9)

    def test_converges_to_fixed_observation(self):
        # Start offset at detection-jitter scale (a couple of px); the decay
        # is geometric and linear in the offset, so this also pins the rate.
        state = kf_initiate(np.array([50.0, 50.0, 20.0, 20.0]))
        target = np.array([52.0, 51.0, 20.0, 20.0])
        target_meas = np.array([62.0, 61.0, 1.0, 20.0])  # cx, cy, w / h, h
        residuals = []
        for _ in range(50):
            state = kf_update(kf_predict(state), target)
            residuals.append(np.max(np.abs(state.mean[:4] - target_meas)))
        assert residuals[-1] < 1e-3
        # genuine convergence, not initial closeness
        assert residuals[-1] < residuals[9] / 50

    def test_update_shrinks_observed_diagonal(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            state = kf_initiate(random_box(rng))
            for _ in range(int(rng.integers(0, 4))):
                state = kf_update(kf_predict(state), random_box(rng))
            prior_diag = np.diag(dense_covariance(kf_predict(state).blocks))[:4]
            post_diag = np.diag(dense_covariance(kf_update(state, random_box(rng)).blocks))[:4]
            assert np.all(post_diag <= prior_diag + 1e-12)

    def test_covariance_stays_symmetric_over_long_runs(self):
        rng = np.random.default_rng(4)
        state = kf_initiate(np.array([50.0, 50.0, 20.0, 20.0]))
        for _ in range(1000):
            covariance = dense_covariance(kf_predict(state).blocks)
            assert np.max(np.abs(covariance - covariance.T)) < 1e-9
            assert np.all(np.diag(covariance) >= 0)
            covariance = dense_covariance(kf_update(state, random_box(rng)).blocks)
            assert np.max(np.abs(covariance - covariance.T)) < 1e-9
            assert np.all(np.diag(covariance) >= 0)


class TestConstantVelocityTracking:
    def test_one_step_ahead_prediction_after_ten_cycles(self):
        velocity = np.array([5.0, 1.0])
        size = 32.0
        start = np.array([10.0, 20.0])

        def box_at(t):
            return np.array([*(start + velocity * t), size, size])

        state = kf_initiate(box_at(0))
        for t in range(1, 11):
            state = kf_update(kf_predict(state), box_at(t))
        predicted = np.array(decoded_box(kf_predict(state)))
        truth = box_at(11)
        centers = predicted[:2] + predicted[2:] / 2, truth[:2] + truth[2:] / 2
        assert np.all(np.abs(centers[0] - centers[1]) < 0.5)


# Filters in realistic states: started on one box, then a few predict/update
# cycles of the dense single-filter reference on the following boxes.
box_tuples = st.tuples(
    st.floats(0, 300), st.floats(0, 300), st.floats(4, 90), st.floats(4, 90)
)
NON_FINITE = (np.nan, np.inf, -np.inf)
non_finite = st.sampled_from(NON_FINITE)
filter_stacks = st.lists(st.lists(box_tuples, min_size=1, max_size=4), min_size=1, max_size=6)


def reference_states(histories):
    states = []
    for boxes in histories:
        state = kf_initiate(np.array(boxes[0]))
        for box in boxes[1:]:
            state = kf_update_reference(kf_predict_reference(state), box)
        states.append(state)
    return states


class TestBatchedFilterMatchesSingleFilterReference:
    @settings(max_examples=200, deadline=None)
    @given(histories=filter_stacks)
    def test_predict_is_exact(self, histories):
        states = reference_states(histories)
        batch = kf_predict(stacked(states))
        for i, state in enumerate(states):
            reference = kf_predict_reference(state)
            assert np.array_equal(batch.mean[:, i], reference.mean)
            assert np.array_equal(batch.blocks[..., i], reference.blocks)

    @settings(max_examples=200, deadline=None)
    @given(histories=filter_stacks, data=st.data())
    def test_update_within_rel_1e_12(self, histories, data):
        priors = [kf_predict_reference(s) for s in reference_states(histories)]
        observed = [data.draw(box_tuples) for _ in priors]
        batch = kf_update(stacked(priors), np.array(observed).T)
        for i, (prior, box) in enumerate(zip(priors, observed)):
            reference = kf_update_reference(prior, box)
            for got, want in ((batch.mean[:, i], reference.mean),
                              (batch.blocks[..., i], reference.blocks)):
                scale = np.max(np.abs(want))
                assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * scale)

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.one_of(st.floats(-50, 50), non_finite),
                st.one_of(st.floats(-50, 50), non_finite),
                st.sampled_from([-1.0, -0.0, 0.0, 1e-6, 0.5, 2.0, *NON_FINITE]),
                st.sampled_from([-3.0, -0.0, 0.0, 1e-6, 1.0, 40.0, *NON_FINITE]),
            ),
            min_size=1, max_size=8,
        )
    )
    def test_decode_flags_exactly_the_rows_without_a_box(self, rows):
        mean = np.zeros((8, len(rows)))
        mean[:4] = np.array(rows).T
        with np.errstate(invalid="ignore"):  # inf - inf and inf * 0 decode to nan
            boxes, valid = decode_boxes(mean)
            for i, (_, _, aspect, height) in enumerate(rows):
                if not (aspect > 0 and height > 0 and np.isfinite(rows[i]).all()):
                    assert not valid[i]
                else:
                    assert valid[i]
                    BoundingBox(*boxes[[0, 1, 6, 7], i].tolist())  # accepted


class TestOneBlockServesFourAxes:
    @settings(max_examples=200, deadline=None)
    @given(start=box_tuples, steps=st.lists(st.one_of(st.none(), box_tuples), max_size=12))
    def test_dense_reference_keeps_the_axis_blocks_equal(self, start, steps):
        # Each step is a predict (None) or an update on a box, in any order;
        # the references' ``shared_block`` asserts after each one that the
        # dense covariance's four axis blocks are still equal.
        state = kf_initiate(np.array(start))
        for box in steps:
            if box is None:
                state = kf_predict_reference(state)
            else:
                state = kf_update_reference(state, box)
