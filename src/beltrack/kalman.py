"""Constant-velocity Kalman filter over box states.

The state is the 8-vector (cx, cy, a, h, vcx, vcy, va, vh): box center,
aspect ratio w/h, height, and their per-frame velocities. All noise scales
are proportional to the current box height, so the filter behaves the same
for near and far objects.

The transition pairs each of (cx, cy, a, h) only with its own velocity, the
noise is diagonal and the measurement selects the positions, so the 8x8
covariance is four independent 2x2 (position, velocity) blocks, and every
other entry is exactly 0. A ``KalmanState`` holds just those blocks. Arrays
put the component axes first, so a batch of n filters holds each component
as one row: means (8, n), blocks (3, 4, n), boxes (4, n) x, y, w, h rows; a
single filter (or ``BoundingBox``) is the unbatched case. Predict and update
write into the state they are given.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import BoundingBox, valid_extents, xywh_array


class FilterDiverged(ValueError):
    """State no longer encodes a valid box (aspect or height dropped to <= 0,
    or the box is not finite)."""


# Per-frame noise scales, each multiplied by the current box height; the
# fixed weights ByteTrack uses.
_POSITION_STD = 1.0 / 20
_VELOCITY_STD = 1.0 / 160
_MEASUREMENT_STD = 1.0 / 20
_PROCESS_STD = np.array([_POSITION_STD, _VELOCITY_STD])
#: Rows of a table of filters: 8 mean components, then 12 block entries.
STATE_ROWS = 20


@dataclass(frozen=True, eq=False)
class KalmanState:
    """Filters as component rows: a mean and per-axis blocks, batch axis last."""
    mean: np.ndarray    # shape (8, ...)
    blocks: np.ndarray  # shape (3, 4, ...): rows pp, pv, vv; one column per axis

    @staticmethod
    def view(table: np.ndarray) -> "KalmanState":
        """Filters whose mean and blocks are views of a (STATE_ROWS, n) table."""
        return KalmanState(mean=table[:8], blocks=table[8:].reshape(3, 4, table.shape[1]))


def _measurement(boxes: BoundingBox | np.ndarray) -> np.ndarray:
    """(4, ...) boxes as (cx, cy, aspect, height) measurements."""
    if isinstance(boxes, BoundingBox):
        boxes = xywh_array([boxes])[0]
    measurement = np.array(boxes, dtype=float)
    measurement[:2] += measurement[2:] / 2.0
    measurement[2] /= measurement[3]
    return measurement


def kf_initiate(boxes: BoundingBox | np.ndarray) -> KalmanState:
    """Start new filters at the observed boxes with zero velocity.

    The initial prior is deliberately wide (2x position, 10x velocity scale)
    so the velocity estimate can adapt within the first few frames.
    """
    measurement = _measurement(boxes)
    mean = np.concatenate([measurement, np.zeros_like(measurement)])
    h = measurement[3]
    blocks = np.zeros((3, 4) + measurement.shape[1:])
    blocks[0] = (2 * _POSITION_STD * h) ** 2
    blocks[2] = (10 * _VELOCITY_STD * h) ** 2
    return KalmanState(mean=mean, blocks=blocks)


def kf_predict(state: KalmanState) -> KalmanState:
    """Advance one frame in place, and return the state: position +=
    velocity, covariance grows by process noise scaled by the prior height.
    Per axis F = [[1, 1], [0, 1]], so F P F^T + Q has blocks
    ((pp + pv) + (pv + vv) + q_p, pv + vv, vv + q_v): the same sums, in the
    same order, as the dense product.
    """
    mean, blocks = state.mean, state.blocks
    noise = np.square(np.multiply.outer(_PROCESS_STD, mean[3]))  # rows q_p, q_v
    mean[:4] += mean[4:]
    blocks[:2] += blocks[1:]  # pp + pv, pv + vv (NumPy buffers the overlap)
    blocks[0] += blocks[1]
    blocks[::2] += noise[:, None]
    return state


def kf_update(state: KalmanState, observed: BoundingBox | np.ndarray) -> KalmanState:
    """Fuse observed boxes into the states in place (measurement update on
    cx, cy, a, h), and return the state. Each axis sees its position with
    noise variance r, so the gain is (pp, pv) / (pp + r). The blocks take
    the Joseph form, which stays symmetric PSD even after thousands of
    cycles; where pp + r underflows to 0, the state turns nan, which
    ``decode_boxes`` flags.
    """
    mean, blocks = state.mean, state.blocks
    pp, pv, vv = blocks[0], blocks[1], blocks[2]
    r = np.square(_MEASUREMENT_STD * mean[3])
    innovation = _measurement(observed)
    innovation -= mean[:4]
    gain = blocks[:2] / (pp + r)  # rows k_p, k_v
    k_p, k_v = gain[0], gain[1]
    mean += (gain * innovation).reshape(mean.shape)
    # Joseph form: each block row is a + b r with b one of k_p k_p, k_v k_p
    # and k_v k_v, written after the last read of the rows it needs.
    noise = np.empty_like(blocks)
    np.multiply(gain, k_p, out=noise[:2])
    np.multiply(k_v, k_v, out=noise[2])
    noise *= r
    keep = 1.0 - k_p
    k_v_pp = k_v * pp
    vv -= k_v * (2.0 * pv - k_v_pp)
    pv -= k_v_pp
    pv *= keep
    pp *= keep * keep
    blocks += noise
    return state


def decode_boxes(mean: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decode (8, n) states to (8, n) boxes (the inverse of the initiate
    encoding) with rows x, y, right, bottom (corners), area, aspect, w, h,
    and a mask, False where the state encodes no box ``BoundingBox`` takes.
    Such states raise floating-point warnings; callers silence them."""
    boxes = np.empty((8,) + mean.shape[1:])
    w, h, size = boxes[6], boxes[7], boxes[6:]
    np.multiply(mean[2], mean[3], out=w)
    h[:] = mean[3]
    np.divide(size, 2.0, out=boxes[2:4])
    np.subtract(mean[:2], boxes[2:4], out=boxes[:2])
    np.add(boxes[:2], size, out=boxes[2:4])
    np.multiply(w, h, out=boxes[4])
    np.divide(w, h, out=boxes[5])
    return boxes, valid_extents(boxes[2:6], h)


def state_to_box(state: KalmanState) -> BoundingBox:
    """Decode one filter's state back to a box."""
    with np.errstate(all="ignore"):
        boxes, valid = decode_boxes(state.mean[:, None])
    if not valid[0]:
        a, h = state.mean[2:4]
        raise FilterDiverged(f"state does not encode a valid box: aspect={a}, height={h}")
    return BoundingBox(*boxes[[0, 1, 6, 7], 0].tolist())  # x, y, w, h
