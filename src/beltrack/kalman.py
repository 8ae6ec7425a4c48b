"""Constant-velocity Kalman filter over box states.

The state is the 8-vector (cx, cy, a, h, vcx, vcy, va, vh): box center,
aspect ratio w/h, height, and their per-frame velocities. All noise scales
are proportional to the current box height, so the filter behaves the same
for near and far objects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import BoundingBox


class FilterDiverged(ValueError):
    """State no longer encodes a valid box (aspect or height dropped to <= 0)."""


# Per-frame noise scales, each multiplied by the current box height; the
# fixed weights ByteTrack uses.
_POSITION_STD = 1.0 / 20
_VELOCITY_STD = 1.0 / 160
_MEASUREMENT_STD = 1.0 / 20

# Constant-velocity transition (dt = 1 frame) and position-only measurement.
_F = np.eye(8)
_F[:4, 4:] = np.eye(4)
_H = np.eye(4, 8)


@dataclass(frozen=True, eq=False)
class KalmanState:
    mean: np.ndarray        # shape (8,)
    covariance: np.ndarray  # shape (8, 8), symmetric PSD


def _box_to_measurement(box: BoundingBox) -> np.ndarray:
    return np.array([box.cx, box.cy, box.w / box.h, box.h])


def kf_initiate(box: BoundingBox) -> KalmanState:
    """Start a new filter at the observed box with zero velocity.

    The initial prior is deliberately wide (2x position, 10x velocity scale)
    so the velocity estimate can adapt within the first few frames.
    """
    measurement = _box_to_measurement(box)
    mean = np.zeros(8)
    mean[:4] = measurement
    h = box.h
    std = np.array([2 * _POSITION_STD * h] * 4 + [10 * _VELOCITY_STD * h] * 4)
    return KalmanState(mean=mean, covariance=np.diag(std**2))


def kf_predict(state: KalmanState) -> KalmanState:
    """Advance one frame: position += velocity, covariance grows by process noise."""
    h = state.mean[3]
    q_std = np.array([_POSITION_STD * h] * 4 + [_VELOCITY_STD * h] * 4)
    mean = _F @ state.mean
    covariance = _F @ state.covariance @ _F.T + np.diag(q_std**2)
    return KalmanState(mean=mean, covariance=0.5 * (covariance + covariance.T))


def kf_update(state: KalmanState, observed: BoundingBox) -> KalmanState:
    """Fuse an observed box into the state (measurement update on cx, cy, a, h).

    Uses the Joseph-form covariance update, which stays symmetric PSD even
    after thousands of cycles.
    """
    h = state.mean[3]
    r = np.diag(np.full(4, (_MEASUREMENT_STD * h) ** 2))
    innovation = _box_to_measurement(observed) - _H @ state.mean
    s = _H @ state.covariance @ _H.T + r
    gain = np.linalg.solve(s.T, (_H @ state.covariance)).T
    mean = state.mean + gain @ innovation
    i_kh = np.eye(8) - gain @ _H
    covariance = i_kh @ state.covariance @ i_kh.T + gain @ r @ gain.T
    return KalmanState(mean=mean, covariance=0.5 * (covariance + covariance.T))


def state_to_box(state: KalmanState) -> BoundingBox:
    """Decode the state back to a box; the inverse of the initiate encoding."""
    cx, cy, a, h = (float(v) for v in state.mean[:4])
    if a <= 0 or h <= 0:
        raise FilterDiverged(f"state does not encode a valid box: aspect={a}, height={h}")
    w = a * h
    return BoundingBox(x=cx - w / 2.0, y=cy - h / 2.0, w=w, h=h)
