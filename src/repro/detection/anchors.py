"""Anchor generation for the Region Proposal Network.

Anchors are the fixed reference boxes the RPN regresses from.  Their sizes
bound the object scales the detector can represent well, which is exactly the
imperfect scale-invariance AdaScale exploits: objects much larger than the
largest anchor are detected *better* after the image is down-sampled.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["generate_base_anchors", "generate_anchors", "clear_anchor_cache"]


def clear_anchor_cache() -> None:
    """Empty the anchor-grid cache (mainly for tests)."""
    _anchor_grid.cache_clear()


def generate_base_anchors(
    sizes: tuple[int, ...] | list[int],
    ratios: tuple[float, ...] | list[float],
) -> np.ndarray:
    """Anchors centred at the origin, one per (size, aspect-ratio) pair.

    ``sizes`` are the square-root areas in pixels; ``ratios`` are height/width
    aspect ratios.  Returns an (len(sizes) * len(ratios), 4) array.
    """
    if not sizes or not ratios:
        raise ValueError("sizes and ratios must be non-empty")
    anchors = []
    for size in sizes:
        if size <= 0:
            raise ValueError(f"anchor size must be positive, got {size}")
        area = float(size) ** 2
        for ratio in ratios:
            if ratio <= 0:
                raise ValueError(f"anchor ratio must be positive, got {ratio}")
            width = np.sqrt(area / ratio)
            height = width * ratio
            anchors.append([-width / 2.0, -height / 2.0, width / 2.0, height / 2.0])
    return np.asarray(anchors, dtype=np.float32)


def generate_anchors(
    feature_height: int,
    feature_width: int,
    feature_stride: int,
    sizes: tuple[int, ...] | list[int],
    ratios: tuple[float, ...] | list[float],
) -> np.ndarray:
    """Tile the base anchors over a feature map of the given size.

    Returns an (feature_height * feature_width * A, 4) array in input-image
    coordinates, ordered so that all A anchors of a spatial position are
    contiguous, positions in row-major order — the layout the RPN head's
    output channels are reshaped to.  The array is cached per shape and
    read-only; copy it before writing.
    """
    if feature_height <= 0 or feature_width <= 0:
        raise ValueError("feature map dimensions must be positive")
    if feature_stride <= 0:
        raise ValueError("feature_stride must be positive")
    return _anchor_grid(
        feature_height, feature_width, feature_stride, tuple(sizes), tuple(ratios)
    )


@lru_cache(maxsize=128)
def _anchor_grid(
    feature_height: int,
    feature_width: int,
    feature_stride: int,
    sizes: tuple[int, ...],
    ratios: tuple[float, ...],
) -> np.ndarray:
    """The tiled grid, memoised per shape and read-only so callers share it.

    A detector revisits the same handful of feature shapes (one per image
    scale) for every frame it serves, and tiling the grid costs more than the
    RPN's per-anchor arithmetic that consumes it.
    """
    base = generate_base_anchors(sizes, ratios)
    shift_x = (np.arange(feature_width, dtype=np.float32) + 0.5) * feature_stride
    shift_y = (np.arange(feature_height, dtype=np.float32) + 0.5) * feature_stride
    grid_x, grid_y = np.meshgrid(shift_x, shift_y)
    shifts = np.stack(
        [grid_x.ravel(), grid_y.ravel(), grid_x.ravel(), grid_y.ravel()], axis=1
    )
    anchors = shifts[:, None, :] + base[None, :, :]
    anchors = anchors.reshape(-1, 4).astype(np.float32)
    anchors.setflags(write=False)
    return anchors
