"""Constant-velocity Kalman filter over box states.

The state is the 8-vector (cx, cy, a, h, vcx, vcy, va, vh): box center,
aspect ratio w/h, height, and their per-frame velocities. All noise scales
are proportional to the current box height, so the filter behaves the same
for near and far objects.

The transition pairs each of (cx, cy, a, h) only with its own velocity, the
noise is diagonal and the measurement selects the positions, so the 8x8
covariance is four independent 2x2 (position, velocity) blocks, and every
other entry is exactly 0. A ``KalmanState`` holds means of shape (..., 8)
and just those blocks, shape (..., 3, 4): rows pp, pv, vv, one column per
axis. Boxes come as (..., 4) arrays of (x, y, w, h) rows; a single filter
is the unbatched case, and a single box may also be a ``BoundingBox``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import BoundingBox, valid_boxes, xywh_array


class FilterDiverged(ValueError):
    """State no longer encodes a valid box (aspect or height dropped to <= 0,
    or the box is not finite)."""


# Per-frame noise scales, each multiplied by the current box height; the
# fixed weights ByteTrack uses.
_POSITION_STD = 1.0 / 20
_VELOCITY_STD = 1.0 / 160
_MEASUREMENT_STD = 1.0 / 20


@dataclass(frozen=True, eq=False)
class KalmanState:
    mean: np.ndarray    # shape (..., 8)
    blocks: np.ndarray  # shape (..., 3, 4): rows pp, pv, vv; one column per axis

    @property
    def covariance(self) -> np.ndarray:
        """The dense (..., 8, 8) covariance the blocks stand for."""
        dense = np.zeros(self.mean.shape + (8,))
        pos, vel = np.arange(4), np.arange(4, 8)
        for row, (i, j) in enumerate([(pos, pos), (pos, vel), (vel, vel)]):
            dense[..., i, j] = dense[..., j, i] = self.blocks[..., row, :]
        return dense


def _measurement(boxes: BoundingBox | np.ndarray) -> np.ndarray:
    """(..., 4) boxes as (cx, cy, aspect, height) measurements."""
    if isinstance(boxes, BoundingBox):
        boxes = xywh_array([boxes])[0]
    measurement = np.array(boxes, dtype=float)
    measurement[..., :2] += measurement[..., 2:] / 2.0
    measurement[..., 2] /= measurement[..., 3]
    return measurement


def kf_initiate(boxes: BoundingBox | np.ndarray) -> KalmanState:
    """Start new filters at the observed boxes with zero velocity.

    The initial prior is deliberately wide (2x position, 10x velocity scale)
    so the velocity estimate can adapt within the first few frames.
    """
    measurement = _measurement(boxes)
    mean = np.concatenate([measurement, np.zeros_like(measurement)], axis=-1)
    h = measurement[..., 3:]
    blocks = np.zeros(measurement.shape[:-1] + (3, 4))
    blocks[..., 0, :] = (2 * _POSITION_STD * h) ** 2
    blocks[..., 2, :] = (10 * _VELOCITY_STD * h) ** 2
    return KalmanState(mean=mean, blocks=blocks)


def kf_predict(state: KalmanState) -> KalmanState:
    """Advance one frame: position += velocity, covariance grows by process noise.

    Per axis F = [[1, 1], [0, 1]], and F P F^T adds the velocity row to the
    position row, then the velocity column to the position column: the same
    sums, in the same order, as the dense product.
    """
    mean = state.mean.copy()
    mean[..., :4] += state.mean[..., 4:]
    pp, pv, vv = (state.blocks[..., row, :] for row in range(3))
    h = state.mean[..., 3:4]
    blocks = np.empty_like(state.blocks)
    blocks[..., 0, :] = (pp + pv) + (pv + vv) + (_POSITION_STD * h) ** 2
    blocks[..., 1, :] = pv + vv
    blocks[..., 2, :] = vv + (_VELOCITY_STD * h) ** 2
    return KalmanState(mean=mean, blocks=blocks)


def kf_update(state: KalmanState, observed: BoundingBox | np.ndarray) -> KalmanState:
    """Fuse observed boxes into the states (measurement update on cx, cy, a, h).

    Each axis sees its position with noise variance r, so the gain is
    (pp, pv) / (pp + r). The blocks take the Joseph form, which stays
    symmetric PSD even after thousands of cycles; where pp + r underflows
    to 0, the state turns nan, which ``decode_boxes`` flags.
    """
    pp, pv, vv = (state.blocks[..., row, :] for row in range(3))
    r = np.square(_MEASUREMENT_STD * state.mean[..., 3:4])
    innovation = _measurement(observed) - state.mean[..., :4]
    s = pp + r
    k_p, k_v = pp / s, pv / s
    mean = state.mean + np.concatenate([k_p * innovation, k_v * innovation], axis=-1)
    keep = 1.0 - k_p
    blocks = np.empty_like(state.blocks)
    blocks[..., 0, :] = keep * keep * pp + k_p * k_p * r
    blocks[..., 1, :] = keep * (pv - k_v * pp) + k_p * k_v * r
    blocks[..., 2, :] = vv - k_v * (2.0 * pv - k_v * pp) + k_v * k_v * r
    return KalmanState(mean=mean, blocks=blocks)


def decode_boxes(mean: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decode states (..., 8) to (x, y, w, h) boxes (..., 4), the inverse of
    the initiate encoding, plus a mask that is False where the row encodes
    no box ``BoundingBox`` accepts (see ``model.valid_boxes``)."""
    boxes = mean[..., :4].copy()
    boxes[..., 2] *= mean[..., 3]
    boxes[..., :2] -= boxes[..., 2:] / 2.0
    return boxes, valid_boxes(boxes)


def state_to_box(state: KalmanState) -> BoundingBox:
    """Decode one filter's state back to a box."""
    box, valid = decode_boxes(state.mean)
    if not valid:
        a, h = state.mean[2:4]
        raise FilterDiverged(f"state does not encode a valid box: aspect={a}, height={h}")
    return BoundingBox(*box.tolist())
