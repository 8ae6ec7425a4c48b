"""Constant-velocity Kalman filter over box states.

The state is the 8-vector (cx, cy, a, h, vcx, vcy, va, vh): box center,
aspect ratio w/h, height, and their per-frame velocities. All noise scales
are proportional to the current box height, so the filter behaves the same
for near and far objects.

Initiate, predict, update and decode work on a stack of filters: a
``KalmanState`` holds means of shape (..., 8) and covariances of shape
(..., 8, 8), and boxes come as (..., 4) arrays of (x, y, w, h) rows. A single
filter is the unbatched case, and a single box may also be given as a
``BoundingBox``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import BoundingBox, xywh_array


class FilterDiverged(ValueError):
    """State no longer encodes a valid box (aspect or height dropped to <= 0,
    or the box is not finite)."""


# Per-frame noise scales, each multiplied by the current box height; the
# fixed weights ByteTrack uses.
_POSITION_STD = 1.0 / 20
_VELOCITY_STD = 1.0 / 160
_MEASUREMENT_STD = 1.0 / 20

_INITIAL_STD = np.array([2 * _POSITION_STD] * 4 + [10 * _VELOCITY_STD] * 4)
_PROCESS_STD = np.array([_POSITION_STD] * 4 + [_VELOCITY_STD] * 4)
_DIAGONAL = np.arange(8)
_EYE4 = np.eye(4)
_EYE8 = np.eye(8)


@dataclass(frozen=True, eq=False)
class KalmanState:
    mean: np.ndarray        # shape (..., 8)
    covariance: np.ndarray  # shape (..., 8, 8), each symmetric PSD


def _measurement(boxes: BoundingBox | np.ndarray) -> np.ndarray:
    """(..., 4) boxes as (cx, cy, aspect, height) measurements."""
    if isinstance(boxes, BoundingBox):
        boxes = xywh_array([boxes])[0]
    measurement = np.array(boxes, dtype=float)
    measurement[..., :2] += measurement[..., 2:] / 2.0
    measurement[..., 2] /= measurement[..., 3]
    return measurement


def _symmetrized(covariance: np.ndarray) -> np.ndarray:
    return 0.5 * (covariance + covariance.swapaxes(-1, -2))


def kf_initiate(boxes: BoundingBox | np.ndarray) -> KalmanState:
    """Start new filters at the observed boxes with zero velocity.

    The initial prior is deliberately wide (2x position, 10x velocity scale)
    so the velocity estimate can adapt within the first few frames.
    """
    measurement = _measurement(boxes)
    mean = np.concatenate([measurement, np.zeros_like(measurement)], axis=-1)
    covariance = np.zeros(mean.shape + (8,))
    covariance[..., _DIAGONAL, _DIAGONAL] = (_INITIAL_STD * measurement[..., 3:]) ** 2
    return KalmanState(mean=mean, covariance=covariance)


def kf_predict(state: KalmanState) -> KalmanState:
    """Advance one frame: position += velocity, covariance grows by process noise.

    The transition F = [[I, I], [0, I]] is applied by blocks: F P F^T adds
    P's velocity rows to its position rows, then the velocity columns to the
    position columns, the same sums a dense product forms.
    """
    mean = state.mean.copy()
    mean[..., :4] += state.mean[..., 4:]
    covariance = state.covariance.copy()
    covariance[..., :4, :] += covariance[..., 4:, :]
    covariance[..., :, :4] += covariance[..., :, 4:]
    q_std = _PROCESS_STD * state.mean[..., 3:4]
    covariance[..., _DIAGONAL, _DIAGONAL] += q_std**2
    return KalmanState(mean=mean, covariance=_symmetrized(covariance))


def kf_update(state: KalmanState, observed: BoundingBox | np.ndarray) -> KalmanState:
    """Fuse observed boxes into the states (measurement update on cx, cy, a, h).

    Uses the Joseph-form covariance update, which stays symmetric PSD even
    after thousands of cycles.
    """
    mean, covariance = state.mean, state.covariance
    r = np.square(_MEASUREMENT_STD * mean[..., 3])[..., None, None]
    innovation = _measurement(observed) - mean[..., :4]
    s = covariance[..., :4, :4] + r * _EYE4
    gain = np.linalg.solve(s.swapaxes(-1, -2), covariance[..., :4, :]).swapaxes(-1, -2)
    mean = mean + (gain @ innovation[..., None])[..., 0]
    i_kh = np.empty_like(covariance)
    i_kh[...] = _EYE8
    i_kh[..., :4] -= gain
    covariance = i_kh @ covariance @ i_kh.swapaxes(-1, -2) + (gain * r) @ gain.swapaxes(-1, -2)
    return KalmanState(mean=mean, covariance=_symmetrized(covariance))


def decode_boxes(mean: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decode states (..., 8) to (x, y, w, h) boxes (..., 4), the inverse of
    the initiate encoding, plus a mask that is False where the row encodes no
    box: the aspect or the height is not > 0, or the box is not finite."""
    boxes = mean[..., :4].copy()
    boxes[..., 2] *= mean[..., 3]
    boxes[..., :2] -= boxes[..., 2:] / 2.0
    valid = np.minimum(mean[..., 2], mean[..., 3]) > 0  # False for nan as well
    return boxes, valid & np.logical_and.reduce(np.isfinite(boxes), axis=-1)


def state_to_box(state: KalmanState) -> BoundingBox:
    """Decode one filter's state back to a box."""
    box, valid = decode_boxes(state.mean)
    if not valid:
        a, h = state.mean[2:4]
        raise FilterDiverged(f"state does not encode a valid box: aspect={a}, height={h}")
    return BoundingBox(*box.tolist())
