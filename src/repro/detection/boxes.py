"""Bounding-box geometry.

Boxes are ``float32`` arrays of shape (N, 4) in ``[x1, y1, x2, y2]`` image
coordinates with ``x2 > x1`` and ``y2 > y1``.  All functions are vectorised
over the box dimension.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "box_areas",
    "iou_matrix",
    "encode_boxes",
    "decode_boxes",
    "clip_boxes",
    "clip_boxes_",
    "valid_boxes",
    "scale_boxes",
    "box_centers",
    "divide_or_zero",
]

#: Standard deviations applied to the (dx, dy, dw, dh) regression targets —
#: the same normalisation used by Fast R-CNN derivatives.
BBOX_STD = np.array([0.1, 0.1, 0.2, 0.2], dtype=np.float32)

#: Clamp on predicted log-size deltas to avoid exp() overflow on wild outputs.
MAX_DELTA_WH = 4.0


def _as_boxes(boxes: np.ndarray) -> np.ndarray:
    boxes = np.asarray(boxes, dtype=np.float32)
    if boxes.size == 0:
        return boxes.reshape(0, 4)
    if boxes.ndim != 2 or boxes.shape[1] != 4:
        raise ValueError(f"boxes must have shape (N, 4), got {boxes.shape}")
    return boxes


def box_areas(boxes: np.ndarray) -> np.ndarray:
    """Areas of each box; degenerate boxes have area 0."""
    boxes = _as_boxes(boxes)
    widths = np.maximum(boxes[:, 2] - boxes[:, 0], 0.0)
    heights = np.maximum(boxes[:, 3] - boxes[:, 1], 0.0)
    return widths * heights


def box_centers(boxes: np.ndarray) -> np.ndarray:
    """(N, 2) array of box centre coordinates (cx, cy)."""
    boxes = _as_boxes(boxes)
    return np.stack(
        [(boxes[:, 0] + boxes[:, 2]) / 2.0, (boxes[:, 1] + boxes[:, 3]) / 2.0], axis=1
    )


def iou_matrix(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
    """Pairwise Jaccard overlap (intersection over union).

    Returns an (len(a), len(b)) matrix.  The paper assigns a predicted box to
    foreground when its IoU with some ground-truth box exceeds 0.5 (Sec. 3.1).
    """
    boxes_a = _as_boxes(boxes_a)
    boxes_b = _as_boxes(boxes_b)
    if boxes_a.shape[0] == 0 or boxes_b.shape[0] == 0:
        return np.zeros((boxes_a.shape[0], boxes_b.shape[0]), dtype=np.float32)
    # Contiguous coordinate rows broadcast faster than strided box columns;
    # every later step writes into one of the four corner temporaries.
    a, b = boxes_a.T.copy(), boxes_b.T.copy()
    x1 = np.maximum(a[0, :, None], b[0])
    y1 = np.maximum(a[1, :, None], b[1])
    inter = np.minimum(a[2, :, None], b[2])
    height = np.minimum(a[3, :, None], b[3])
    zero = np.float32(0)
    np.maximum(np.subtract(inter, x1, out=inter), zero, out=inter)
    np.maximum(np.subtract(height, y1, out=height), zero, out=height)
    np.multiply(inter, height, out=inter)
    union = np.add(box_areas(boxes_a)[:, None], box_areas(boxes_b)[None, :], out=x1)
    np.subtract(union, inter, out=union)
    return divide_or_zero(inter, union, out=y1)


def divide_or_zero(numerator: np.ndarray, denominator: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``numerator / denominator`` where the denominator is > 0, else 0, into ``out``.

    The masked divide and the zero fill only run when some denominator is
    not positive; a plain divide of the common all-positive case gives the
    same bytes at a fraction of the cost.
    """
    valid = denominator > 0
    if valid.all():
        return np.divide(numerator, denominator, out=out)
    np.divide(numerator, denominator, out=out, where=valid)
    np.copyto(out, 0, where=~valid)
    return out


def encode_boxes(anchors: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Encode ground-truth boxes relative to anchors as (dx, dy, dw, dh).

    This is the four-dimensional location parameterisation ``t`` of Eq. (1)
    in the paper (from Fast R-CNN).
    """
    anchors = _as_boxes(anchors)
    targets = _as_boxes(targets)
    if anchors.shape != targets.shape:
        raise ValueError(f"anchors {anchors.shape} and targets {targets.shape} must match")
    anchor_w = np.maximum(anchors[:, 2] - anchors[:, 0], 1e-3)
    anchor_h = np.maximum(anchors[:, 3] - anchors[:, 1], 1e-3)
    anchor_cx = anchors[:, 0] + 0.5 * anchor_w
    anchor_cy = anchors[:, 1] + 0.5 * anchor_h
    target_w = np.maximum(targets[:, 2] - targets[:, 0], 1e-3)
    target_h = np.maximum(targets[:, 3] - targets[:, 1], 1e-3)
    target_cx = targets[:, 0] + 0.5 * target_w
    target_cy = targets[:, 1] + 0.5 * target_h

    deltas = np.stack(
        [
            (target_cx - anchor_cx) / anchor_w,
            (target_cy - anchor_cy) / anchor_h,
            np.log(target_w / anchor_w),
            np.log(target_h / anchor_h),
        ],
        axis=1,
    ).astype(np.float32)
    return deltas / BBOX_STD[None, :]


def decode_boxes(anchors: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Apply predicted (dx, dy, dw, dh) deltas to anchors (inverse of encode).

    Fully vectorised over the box dimension and assembled directly into one
    preallocated output array.  Every box is decoded independently, so
    decoding a subset gives the same bytes as decoding all and indexing.
    """
    anchors = _as_boxes(anchors)
    deltas = np.asarray(deltas, dtype=np.float32)
    if deltas.size == 0:
        return np.zeros((0, 4), dtype=np.float32)
    if deltas.shape != anchors.shape:
        raise ValueError(f"anchors {anchors.shape} and deltas {deltas.shape} must match")
    deltas = deltas * BBOX_STD[None, :]
    anchor_w = np.maximum(anchors[:, 2] - anchors[:, 0], 1e-3)
    anchor_h = np.maximum(anchors[:, 3] - anchors[:, 1], 1e-3)
    anchor_cx = anchors[:, 0] + 0.5 * anchor_w
    anchor_cy = anchors[:, 1] + 0.5 * anchor_h

    cx = deltas[:, 0] * anchor_w + anchor_cx
    cy = deltas[:, 1] * anchor_h + anchor_cy
    w = np.exp(np.clip(deltas[:, 2], -MAX_DELTA_WH, MAX_DELTA_WH)) * anchor_w
    h = np.exp(np.clip(deltas[:, 3], -MAX_DELTA_WH, MAX_DELTA_WH)) * anchor_h

    out = np.empty((anchors.shape[0], 4), dtype=np.float32)
    half_w = 0.5 * w
    half_h = 0.5 * h
    np.subtract(cx, half_w, out=out[:, 0])
    np.subtract(cy, half_h, out=out[:, 1])
    np.add(cx, half_w, out=out[:, 2])
    np.add(cy, half_h, out=out[:, 3])
    return out


def clip_boxes(boxes: np.ndarray, image_height: int, image_width: int) -> np.ndarray:
    """Clip boxes to lie inside an ``image_height`` × ``image_width`` frame."""
    boxes = _as_boxes(boxes).copy()
    return clip_boxes_(boxes, image_height, image_width)


def clip_boxes_(boxes: np.ndarray, image_height: int, image_width: int) -> np.ndarray:
    """In-place :func:`clip_boxes` for freshly decoded, caller-owned arrays.

    Clipping in place saves one (N, 4) copy.  Only call this on arrays
    nobody else holds a reference to.
    """
    boxes = _as_boxes(boxes)
    if boxes.size == 0:
        return boxes
    np.clip(boxes[:, 0::2], 0.0, float(image_width), out=boxes[:, 0::2])
    np.clip(boxes[:, 1::2], 0.0, float(image_height), out=boxes[:, 1::2])
    return boxes


def valid_boxes(boxes: np.ndarray, min_size: float = 1.0) -> np.ndarray:
    """Boolean mask of boxes whose width and height are both >= ``min_size``."""
    boxes = _as_boxes(boxes)
    if boxes.size == 0:
        return np.zeros((0,), dtype=bool)
    widths = boxes[:, 2] - boxes[:, 0]
    heights = boxes[:, 3] - boxes[:, 1]
    return (widths >= min_size) & (heights >= min_size)


def scale_boxes(boxes: np.ndarray, scale_factor: float) -> np.ndarray:
    """Uniformly rescale box coordinates (used when the image is resized)."""
    if scale_factor <= 0:
        raise ValueError(f"scale_factor must be positive, got {scale_factor}")
    return _as_boxes(boxes) * np.float32(scale_factor)
