"""Non-maximum suppression.

The paper uses NMS with threshold 0.3 for final detections and keeps the
top-300 most confident boxes per image (Sec. 4.2); the per-class variant is
:func:`batched_nms`.
"""

from __future__ import annotations

import numpy as np

from repro.detection.boxes import iou_matrix

__all__ = ["nms", "batched_nms"]


def nms(
    boxes: np.ndarray,
    scores: np.ndarray,
    iou_threshold: float,
    max_keep: int | None = None,
) -> np.ndarray:
    """Greedy NMS; returns indices of kept boxes, highest score first.

    ``max_keep`` stops the greedy pass once that many boxes are kept — the
    same result as slicing the full output to ``[:max_keep]``.
    """
    boxes = np.asarray(boxes, dtype=np.float32).reshape(-1, 4)
    scores = np.asarray(scores, dtype=np.float32).reshape(-1)
    if boxes.shape[0] != scores.shape[0]:
        raise ValueError(f"{boxes.shape[0]} boxes but {scores.shape[0]} scores")
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must be in [0, 1], got {iou_threshold}")
    if max_keep is not None and max_keep < 0:
        raise ValueError(f"max_keep must be >= 0, got {max_keep}")
    limit = boxes.shape[0] if max_keep is None else min(max_keep, boxes.shape[0])
    if limit == 0:
        return np.zeros((0,), dtype=np.int64)

    order = np.argsort(-scores, kind="stable").tolist()
    overlaps = iou_matrix(boxes, boxes) > iou_threshold
    keep: list[int] = []
    suppressed = np.zeros(boxes.shape[0], dtype=bool)
    for idx in order:
        if suppressed[idx]:
            continue
        keep.append(idx)
        if len(keep) == limit:
            break
        suppressed |= overlaps[idx]
    return np.asarray(keep, dtype=np.int64)


def batched_nms(
    boxes: np.ndarray,
    scores: np.ndarray,
    class_ids: np.ndarray,
    iou_threshold: float,
    max_keep: int | None = None,
) -> np.ndarray:
    """Class-wise NMS: boxes of different classes never suppress each other."""
    boxes = np.asarray(boxes, dtype=np.float32).reshape(-1, 4)
    scores = np.asarray(scores, dtype=np.float32).reshape(-1)
    class_ids = np.asarray(class_ids, dtype=np.int64).reshape(-1)
    if not (boxes.shape[0] == scores.shape[0] == class_ids.shape[0]):
        raise ValueError("boxes, scores and class_ids must have the same length")
    if boxes.shape[0] == 0:
        return np.zeros((0,), dtype=np.int64)

    # Offset boxes per class by more than the coordinate range, so a single
    # NMS pass handles all classes at once (the range starts at 0 at most, so
    # non-negative boxes are offset by max + 1).
    extent = float(boxes.max()) - min(float(boxes.min()), 0.0) + 1.0
    offsets = class_ids.astype(np.float32) * extent
    shifted = boxes + offsets[:, None]
    return nms(shifted, scores, iou_threshold, max_keep)
