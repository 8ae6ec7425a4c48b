import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beltrack import (
    BoundingBox,
    FilterDiverged,
    KalmanState,
    decode_boxes,
    kf_initiate,
    kf_predict,
    kf_update,
    state_to_box,
)

from oracles import kf_predict_reference, kf_update_reference, stacked


def random_box(rng):
    return BoundingBox(*rng.uniform(0, 200, 2), *rng.uniform(5, 80, 2))


#: Unit variances, no position-velocity covariance: the blocks of np.eye(8).
UNIT_BLOCKS = np.array([[1.0] * 4, [0.0] * 4, [1.0] * 4])


class TestInitiate:
    def test_square_box_encoding(self):
        state = kf_initiate(BoundingBox(0, 0, 2, 2))
        assert np.allclose(state.mean, [1, 1, 1, 2, 0, 0, 0, 0])

    def test_rectangular_box_encoding(self):
        state = kf_initiate(BoundingBox(10, 10, 4, 8))
        assert np.allclose(state.mean, [12, 14, 0.5, 8, 0, 0, 0, 0])

    def test_covariance_is_symmetric_psd(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            state = kf_initiate(random_box(rng))
            assert np.allclose(state.covariance, state.covariance.T)
            assert np.all(np.linalg.eigvalsh(state.covariance) >= 0)


class TestRoundTrip:
    def test_exact_examples(self):
        for box in (BoundingBox(0, 0, 2, 2), BoundingBox(10, 10, 4, 8)):
            back = state_to_box(kf_initiate(box))
            assert back.x == pytest.approx(box.x, abs=1e-9)
            assert back.y == pytest.approx(box.y, abs=1e-9)
            assert back.w == pytest.approx(box.w, abs=1e-9)
            assert back.h == pytest.approx(box.h, abs=1e-9)

    def test_identity_on_random_boxes(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            box = random_box(rng)
            back = state_to_box(kf_initiate(box))
            for field in ("x", "y", "w", "h"):
                assert getattr(back, field) == pytest.approx(getattr(box, field), abs=1e-9)

    def test_divergent_state_rejected(self):
        bad = KalmanState(mean=np.array([0, 0, -1.0, 5, 0, 0, 0, 0]), blocks=UNIT_BLOCKS)
        with pytest.raises(FilterDiverged):
            state_to_box(bad)
        bad = KalmanState(mean=np.array([0, 0, 1.0, 0.0, 0, 0, 0, 0]), blocks=UNIT_BLOCKS)
        with pytest.raises(FilterDiverged):
            state_to_box(bad)


class TestPredict:
    def test_zero_velocity_keeps_position(self):
        state = kf_initiate(BoundingBox(0, 0, 2, 2))
        predicted = kf_predict(state)
        assert np.allclose(predicted.mean[:4], [1, 1, 1, 2])

    def test_velocity_moves_position_one_step(self):
        state = kf_initiate(BoundingBox(0, 0, 2, 2))
        mean = state.mean.copy()
        mean[4] = 3.0
        moved = kf_predict(KalmanState(mean=mean, blocks=state.blocks))
        assert moved.mean[0] == pytest.approx(4.0)

    def test_trace_grows_under_process_noise(self):
        # Moderate-scale random PSD (position, velocity) blocks, one per
        # axis: with the height-scaled process noise added, predict
        # inflates total uncertainty.
        rng = np.random.default_rng(2)
        for _ in range(200):
            factor = rng.normal(0, 0.5, size=(4, 2, 2))
            cov = factor @ factor.swapaxes(1, 2)
            blocks = np.array([cov[:, 0, 0], cov[:, 0, 1], cov[:, 1, 1]])
            mean = np.zeros(8)
            mean[3] = rng.uniform(10, 60)
            state = KalmanState(mean=mean, blocks=blocks)
            assert np.trace(kf_predict(state).covariance) > np.trace(state.covariance)


class TestUpdate:
    def test_zero_innovation_keeps_position(self):
        state = kf_predict(kf_initiate(BoundingBox(0, 0, 2, 2)))
        observed = state_to_box(state)
        updated = kf_update(state, observed)
        assert np.allclose(updated.mean[:4], state.mean[:4], atol=1e-9)

    def test_converges_to_fixed_observation(self):
        # Start offset at detection-jitter scale (a couple of px); the decay
        # is geometric and linear in the offset, so this also pins the rate.
        state = kf_initiate(BoundingBox(50, 50, 20, 20))
        target = BoundingBox(52, 51, 20, 20)
        target_meas = np.array([target.cx, target.cy, target.w / target.h, target.h])
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
            prior = kf_predict(state)
            posterior = kf_update(prior, random_box(rng))
            prior_diag = np.diag(prior.covariance)[:4]
            post_diag = np.diag(posterior.covariance)[:4]
            assert np.all(post_diag <= prior_diag + 1e-12)

    def test_covariance_stays_symmetric_over_long_runs(self):
        rng = np.random.default_rng(4)
        state = kf_initiate(BoundingBox(50, 50, 20, 20))
        for _ in range(1000):
            state = kf_predict(state)
            asym = np.max(np.abs(state.covariance - state.covariance.T))
            assert asym < 1e-9
            assert np.all(np.diag(state.covariance) >= 0)
            state = kf_update(state, random_box(rng))
            asym = np.max(np.abs(state.covariance - state.covariance.T))
            assert asym < 1e-9
            assert np.all(np.diag(state.covariance) >= 0)


class TestConstantVelocityTracking:
    def test_one_step_ahead_prediction_after_ten_cycles(self):
        velocity = np.array([5.0, 1.0])
        size = 32.0
        start = np.array([10.0, 20.0])

        def box_at(t):
            return BoundingBox(start[0] + velocity[0] * t, start[1] + velocity[1] * t, size, size)

        state = kf_initiate(box_at(0))
        for t in range(1, 11):
            state = kf_update(kf_predict(state), box_at(t))
        predicted = state_to_box(kf_predict(state))
        truth = box_at(11)
        assert abs(predicted.cx - truth.cx) < 0.5
        assert abs(predicted.cy - truth.cy) < 0.5


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
        state = kf_initiate(BoundingBox(*boxes[0]))
        for box in boxes[1:]:
            state = kf_update_reference(kf_predict_reference(state), BoundingBox(*box))
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
            assert np.array_equal(batch.mean[i], reference.mean)
            assert np.array_equal(batch.blocks[i], reference.blocks)

    @settings(max_examples=200, deadline=None)
    @given(histories=filter_stacks, data=st.data())
    def test_update_within_rel_1e_12(self, histories, data):
        priors = [kf_predict_reference(s) for s in reference_states(histories)]
        observed = [data.draw(box_tuples) for _ in priors]
        batch = kf_update(stacked(priors), np.array(observed))
        for i, (prior, box) in enumerate(zip(priors, observed)):
            reference = kf_update_reference(prior, BoundingBox(*box))
            for got, want in ((batch.mean[i], reference.mean),
                              (batch.blocks[i], reference.blocks)):
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
        mean = np.zeros((len(rows), 8))
        mean[:, :4] = rows
        with np.errstate(invalid="ignore"):  # inf - inf and inf * 0 decode to nan
            boxes, valid = decode_boxes(mean)
            for i, (_, _, aspect, height) in enumerate(rows):
                state = KalmanState(mean=mean[i], blocks=UNIT_BLOCKS)
                if not (aspect > 0 and height > 0 and np.isfinite(rows[i]).all()):
                    assert not valid[i]
                    with pytest.raises(FilterDiverged):
                        state_to_box(state)
                else:
                    assert valid[i]
                    box = state_to_box(state)
                    assert [box.x, box.y, box.w, box.h] == boxes[i].tolist()
