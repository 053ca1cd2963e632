"""Image resizing and normalisation.

The resizing protocol follows Fast R-CNN (and the paper, Sec. 4.2): the image
is scaled so its *shortest* side equals the target scale, unless that would
push the longest side past ``max_long_side``, in which case the longest side
is capped instead.  Ground-truth boxes are rescaled by the same factor.

Interpolation convention
------------------------
Resizing is separable bilinear interpolation with the *align-corners*
mapping: an axis of ``n_in`` samples becomes ``n_out = int(round(n_in *
factor))`` samples, output index ``o`` reading input coordinate
``o * (n_in - 1) / (n_out - 1)`` (coordinate 0 when either length is 1), so
the first and last samples of every axis are preserved exactly.  Rows are
interpolated first, then columns, in float32, and the result is clipped to
``[0, 1]``.  This is what SciPy's N-d ``zoom(image, (factor, factor, 1),
order=1, mode="nearest")`` computes; SciPy is not a runtime dependency — it is
the test oracle, which the implementation matches to within ``2.5e-7``
absolute on ``[0, 1]`` inputs (a few float32 roundings).

A scale change costs no more than a repeated scale: the per-axis gather
indices and weights depend only on ``(n_in, n_out)`` and are memoised.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "ResizedImage",
    "preprocess_frame",
    "resize_image",
    "resize_with_boxes",
    "normalize_image",
    "image_to_chw",
    "chw_to_image",
]

#: Per-channel mean subtracted before the backbone (synthetic scenes are
#: roughly mid-grey; using a constant keeps eval deterministic).
PIXEL_MEAN = np.array([0.45, 0.45, 0.45], dtype=np.float32)
_PIXEL_MEAN_CHW = PIXEL_MEAN.reshape(3, 1, 1)


@dataclass(frozen=True)
class ResizedImage:
    """Result of resizing an image to a detection scale.

    Attributes
    ----------
    image:
        The resized (H', W', 3) float32 image.
    scale_factor:
        Multiplier applied to the original pixel coordinates; detections on
        ``image`` are divided by this factor to map back to the original frame.
    target_scale:
        The requested shortest-side scale.
    effective_scale:
        The shortest side actually produced (equals ``target_scale`` unless
        the long-side cap kicked in or rounding intervened).
    """

    image: np.ndarray
    scale_factor: float
    target_scale: int
    effective_scale: int


def _as_image(image: np.ndarray) -> np.ndarray:
    image = np.asarray(image, dtype=np.float32)
    if image.ndim != 3 or image.shape[2] != 3:
        raise ValueError(f"expected (H, W, 3) image, got shape {image.shape}")
    return image


def _resize_factor(image: np.ndarray, target_scale: int, max_long_side: int | None) -> float:
    """Fast R-CNN protocol: shortest side to ``target_scale``, longest side capped."""
    if target_scale <= 0:
        raise ValueError(f"target_scale must be positive, got {target_scale}")
    height, width = image.shape[:2]
    short_side = min(height, width)
    long_side = max(height, width)
    factor = float(target_scale) / float(short_side)
    if max_long_side is not None and long_side * factor > max_long_side:
        factor = float(max_long_side) / float(long_side)
    return factor


def _is_identity(factor: float) -> bool:
    return abs(factor - 1.0) < 1e-9


_AxisPlan = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


@lru_cache(maxsize=256)
def _axis_plan(n_in: int, n_out: int) -> _AxisPlan:
    """Interpolation plan ``(i0, i1, w, 1 - w)`` of one axis, read-only.

    Output sample ``o`` is ``src[i0[o]] * (1 - w[o]) + src[i1[o]] * w[o]``.
    Memoised (``lru_cache`` is thread-safe and the arrays are immutable), so
    only the first frame of each ``(n_in, n_out)`` pays for building it.
    """
    step = (n_in - 1) / (n_out - 1) if n_in > 1 and n_out > 1 else 0.0
    coords = np.arange(n_out, dtype=np.float64) * step
    i0 = np.minimum(coords.astype(np.intp), max(n_in - 2, 0))
    i1 = np.minimum(i0 + 1, n_in - 1)
    w = coords - i0
    plan = (i0, i1, w.astype(np.float32), (1.0 - w).astype(np.float32))
    for array in plan:
        array.setflags(write=False)
    return plan


def _resize_plans(image: np.ndarray, factor: float) -> tuple[_AxisPlan, _AxisPlan]:
    """The (row, column) plans taking ``image`` to its ``factor``-scaled shape."""
    height, width = image.shape[:2]
    return (
        _axis_plan(height, int(round(height * factor))),
        _axis_plan(width, int(round(width * factor))),
    )


def _lerp_axis(src: np.ndarray, plan: _AxisPlan, axis: int) -> np.ndarray:
    """Linearly interpolate ``src`` along ``axis`` into a fresh array."""
    i0, i1, w, one_minus_w = plan
    broadcast = [1] * src.ndim
    broadcast[axis] = -1
    low = src.take(i0, axis=axis)
    high = src.take(i1, axis=axis)
    low *= one_minus_w.reshape(broadcast)
    high *= w.reshape(broadcast)
    low += high
    return low


def resize_image(
    image: np.ndarray, target_scale: int, max_long_side: int | None = None
) -> ResizedImage:
    """Resize ``image`` so its shortest side is ``target_scale`` pixels.

    Separable bilinear interpolation (see the module docstring for the
    convention).  ``max_long_side`` caps the longer side (the paper uses 2000
    for 600-pixel scales; our reduced default is set in the configs).
    """
    image = _as_image(image)
    factor = _resize_factor(image, target_scale, max_long_side)
    if _is_identity(factor):
        resized = image.copy()
    else:
        rows, cols = _resize_plans(image, factor)
        resized = _lerp_axis(_lerp_axis(image, rows, 0), cols, 1)
        np.clip(resized, 0.0, 1.0, out=resized)
    effective = int(min(resized.shape[0], resized.shape[1]))
    return ResizedImage(
        image=resized,
        scale_factor=factor,
        target_scale=int(target_scale),
        effective_scale=effective,
    )


def preprocess_frame(
    image: np.ndarray, scale: int | None, max_long_side: int | None = None
) -> tuple[np.ndarray, tuple[int, int], float]:
    """Resize, normalise and lay out one frame for the backbone in one pass.

    Returns ``(tensor, working_shape, scale_factor)``: the ``(1, 3, H', W')``
    backbone input, its ``(H', W')`` and the multiplier applied to pixel
    coordinates.  ``scale=None`` keeps the native size.  Bit-identical to
    ``image_to_chw(normalize_image(resize_image(image, scale,
    max_long_side).image))`` — same arithmetic per element — but the column
    pass already writes planar CHW and clip and mean subtraction happen in
    place in that one output buffer, instead of three further full copies.
    """
    image = _as_image(image)
    factor = 1.0 if scale is None else _resize_factor(image, scale, max_long_side)
    if _is_identity(factor):
        tensor = np.empty((1, 3) + image.shape[:2], dtype=np.float32)
        np.subtract(image.transpose(2, 0, 1), _PIXEL_MEAN_CHW, out=tensor[0])
    else:
        rows, cols = _resize_plans(image, factor)
        planar = np.ascontiguousarray(_lerp_axis(image, rows, 0).transpose(2, 0, 1))
        tensor = _lerp_axis(planar, cols, 2)[None]
        np.clip(tensor, 0.0, 1.0, out=tensor)
        tensor -= _PIXEL_MEAN_CHW
    return tensor, (tensor.shape[2], tensor.shape[3]), factor


def resize_with_boxes(
    image: np.ndarray,
    boxes: np.ndarray,
    target_scale: int,
    max_long_side: int | None = None,
) -> tuple[ResizedImage, np.ndarray]:
    """Resize an image and rescale its ground-truth boxes consistently."""
    resized = resize_image(image, target_scale, max_long_side)
    boxes = np.asarray(boxes, dtype=np.float32).reshape(-1, 4)
    scaled_boxes = boxes * np.float32(resized.scale_factor)
    scaled_boxes[:, 0::2] = np.clip(scaled_boxes[:, 0::2], 0.0, resized.image.shape[1])
    scaled_boxes[:, 1::2] = np.clip(scaled_boxes[:, 1::2], 0.0, resized.image.shape[0])
    return resized, scaled_boxes


def normalize_image(image: np.ndarray) -> np.ndarray:
    """Subtract the per-channel pixel mean (input to the backbone)."""
    return _as_image(image) - PIXEL_MEAN[None, None, :]


def image_to_chw(image: np.ndarray) -> np.ndarray:
    """Convert (H, W, 3) to the framework's (1, 3, H, W) layout."""
    return np.ascontiguousarray(_as_image(image).transpose(2, 0, 1)[None])


def chw_to_image(tensor: np.ndarray) -> np.ndarray:
    """Convert a (1, 3, H, W) or (3, H, W) tensor back to (H, W, 3)."""
    tensor = np.asarray(tensor, dtype=np.float32)
    if tensor.ndim == 4:
        if tensor.shape[0] != 1:
            raise ValueError(f"expected batch size 1, got {tensor.shape[0]}")
        tensor = tensor[0]
    if tensor.ndim != 3 or tensor.shape[0] != 3:
        raise ValueError(f"expected (3, H, W) tensor, got shape {tensor.shape}")
    return np.ascontiguousarray(tensor.transpose(1, 2, 0))
