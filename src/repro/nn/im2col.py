"""Vectorised im2col / col2im used by convolution layers.

``im2col`` unfolds every receptive field of a batched NCHW tensor into a
column so a convolution becomes a single matrix multiplication — the standard
trick for fast CPU convolutions without hand-written C loops.  ``col2im`` is
its adjoint and is used by the convolution backward pass.

The unfold is a window view built from the padded input's strides plus one
contiguous copy, written into a thread-local scratch buffer when the caller
allows it (:func:`repro.nn.runtime.scratch`).  ``col2im`` scatter-adds through
the (channel, row, col) index plans of :func:`im2col_indices`; those depend
only on the input *shape*, so they are memoised per shape and shared
read-only.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.nn import runtime

__all__ = [
    "conv_output_size",
    "im2col_indices",
    "im2col",
    "col2im",
    "plan_cache_stats",
    "clear_plan_cache",
]


def conv_output_size(size: int, field: int, padding: int, stride: int) -> int:
    """Spatial output size of a convolution along one dimension."""
    out = (size + 2 * padding - field) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution output size is non-positive: input={size}, field={field}, "
            f"padding={padding}, stride={stride}"
        )
    return out


@lru_cache(maxsize=64)
def _plan(
    channels: int,
    out_height: int,
    out_width: int,
    field_height: int,
    field_width: int,
    stride: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    i0 = np.repeat(np.arange(field_height), field_width)
    i0 = np.tile(i0, channels)
    i1 = stride * np.repeat(np.arange(out_height), out_width)
    j0 = np.tile(np.arange(field_width), field_height * channels)
    j1 = stride * np.tile(np.arange(out_width), out_height)
    i = i0.reshape(-1, 1) + i1.reshape(1, -1)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    k = np.repeat(np.arange(channels), field_height * field_width).reshape(-1, 1)
    for array in (k, i, j):
        array.setflags(write=False)
    return k, i, j


def plan_cache_stats() -> dict[str, int]:
    """Hit/miss/size counters of the im2col plan cache (for bench telemetry)."""
    info = _plan.cache_info()
    return {"hits": info.hits, "misses": info.misses, "size": info.currsize}


def clear_plan_cache() -> None:
    """Empty the plan cache and reset its counters (mainly for tests)."""
    _plan.cache_clear()


def im2col_indices(
    x_shape: tuple[int, int, int, int],
    field_height: int,
    field_width: int,
    padding: int,
    stride: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (channel, row, col) gather indices of the unfold, into the padded input.

    Plans depend only on the shape, so they are memoised per shape and
    returned read-only; callers gather with them but never write them.
    """
    _, channels, height, width = x_shape
    out_height = conv_output_size(height, field_height, padding, stride)
    out_width = conv_output_size(width, field_width, padding, stride)
    return _plan(channels, out_height, out_width, field_height, field_width, stride)


def _pad_input(x: np.ndarray, padding: int, reuse_buffer: bool) -> np.ndarray:
    """Zero-pad the spatial dims, into a scratch buffer when allowed."""
    if padding <= 0:
        return x
    pad = padding
    batch, channels, height, width = x.shape
    shape = (batch, channels, height + 2 * pad, width + 2 * pad)
    if reuse_buffer:
        padded = runtime.scratch("im2col.pad", shape, x.dtype)
    else:
        padded = np.empty(shape, dtype=x.dtype)
    # Zero only the border frame; the interior is fully overwritten by x.
    padded[:, :, :pad, :] = 0.0
    padded[:, :, height + pad :, :] = 0.0
    padded[:, :, pad : height + pad, :pad] = 0.0
    padded[:, :, pad : height + pad, width + pad :] = 0.0
    padded[:, :, pad : height + pad, pad : width + pad] = x
    return padded


def im2col(
    x: np.ndarray,
    field_height: int,
    field_width: int,
    padding: int,
    stride: int,
    reuse_buffer: bool = False,
) -> np.ndarray:
    """Unfold ``x`` (N, C, H, W) into columns of shape (C*fh*fw, N*OH*OW).

    Columns are batch-major: image ``n``'s positions occupy the contiguous
    block ``[n*OH*OW, (n+1)*OH*OW)``: an inference convolution multiplies
    each block into sample ``n``'s output, and training reshapes one GEMM's
    output to ``(out_channels, N, OH, OW)``.

    ``reuse_buffer=True`` lets the unfold write into a thread-local scratch
    buffer (see :func:`repro.nn.runtime.scratch`); callers must consume the
    result before their next ``reuse_buffer`` unfold and must not retain it —
    inference-mode convolutions qualify, training (which caches the columns
    for backward) must not pass it.
    """
    batch, channels, height, width = x.shape
    x_padded = _pad_input(x, padding, reuse_buffer)
    out_height = conv_output_size(height, field_height, padding, stride)
    out_width = conv_output_size(width, field_width, padding, stride)
    # The (C, fh, fw, N, OH, OW) windows, viewed straight through the padded
    # input's strides — no data movement yet.  The reshape (or the copy into
    # scratch) performs the single contiguous copy.
    step_n, step_c, step_h, step_w = x_padded.strides
    windows = as_strided(
        x_padded,
        shape=(channels, field_height, field_width, batch, out_height, out_width),
        strides=(step_c, step_h, step_w, step_n, step_h * stride, step_w * stride),
        writeable=False,
    )
    shape = (channels * field_height * field_width, batch * out_height * out_width)
    if reuse_buffer:
        cols = runtime.scratch("im2col.cols", shape, x.dtype)
        np.copyto(cols.reshape(windows.shape), windows)
        return cols
    return np.ascontiguousarray(windows.reshape(shape))


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    field_height: int,
    field_width: int,
    padding: int,
    stride: int,
) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add columns back into (N, C, H, W)."""
    batch, channels, height, width = x_shape
    height_padded, width_padded = height + 2 * padding, width + 2 * padding
    x_padded = np.zeros((batch, channels, height_padded, width_padded), dtype=cols.dtype)
    k, i, j = im2col_indices(x_shape, field_height, field_width, padding, stride)
    cols_reshaped = cols.reshape(channels * field_height * field_width, batch, -1)
    cols_reshaped = cols_reshaped.transpose(1, 0, 2)
    np.add.at(x_padded, (slice(None), k, i, j), cols_reshaped)
    if padding == 0:
        return x_padded
    return x_padded[:, :, padding:-padding, padding:-padding]
