"""Position-sensitive RoI pooling (the R-FCN head primitive).

Each RoI is divided into a ``k x k`` grid of bins; bin ``(i, j)`` average-pools
*only* the channel group dedicated to that bin.  A final vote (mean over the
grid) produces the per-RoI output.

The forward pass evaluates every rectangular bin sum through a 2-D integral
image (summed-area table) and one vectorised four-corner gather over all
(RoI, channel, bin) triples; the backward pass scatters the four signed corner
impulses of each bin and recovers the dense gradient with two cumulative sums
— the adjoint of the integral-image lookup.  Both cost
O(batch x channels x H x W + R x k^2 x output_dim) instead of a Python loop
over every (RoI, bin) pair.  At inference, :func:`psroi_votes` pools the
class and box maps of the R-FCN head from one buffer in one such pass and
returns the bin-mean votes directly.

The operator is batch-first: ``score_maps`` may hold several images and each
RoI carries a batch index selecting the image it pools from, so one pass
serves a whole scale-bucketed micro-batch.  Per-image summed-area tables are
independent cumulative sums, which keeps batched pooling bit-identical to
pooling each image alone.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.detection.boxes import divide_or_zero
from repro.nn.layers import is_inference
from repro.profiling import stage

__all__ = ["PSRoIPool", "psroi_votes"]


class PSRoIPool:
    """Position-sensitive RoI pooling operator.

    Parameters
    ----------
    group_size:
        ``k`` — the RoI is pooled over a k x k grid (the paper / R-FCN use 7;
        this reproduction defaults to 3).
    output_dim:
        Number of output channels per bin (``C + 1`` for classification maps,
        4 for class-agnostic box regression maps).
    spatial_scale:
        Ratio between feature-map coordinates and image coordinates
        (``1 / feature_stride``).
    """

    def __init__(self, group_size: int, output_dim: int, spatial_scale: float) -> None:
        if group_size < 1:
            raise ValueError(f"group_size must be >= 1, got {group_size}")
        if output_dim < 1:
            raise ValueError(f"output_dim must be >= 1, got {output_dim}")
        if spatial_scale <= 0:
            raise ValueError(f"spatial_scale must be positive, got {spatial_scale}")
        self.group_size = group_size
        self.output_dim = output_dim
        self.spatial_scale = spatial_scale
        self._cache: dict[str, np.ndarray] | None = None

    @property
    def expected_channels(self) -> int:
        """Number of input channels the score maps must have."""
        return self.group_size * self.group_size * self.output_dim

    # ------------------------------------------------------------------
    def _bin_edges(
        self, rois: np.ndarray, height: int, width: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Integer cell ranges of every (roi, bin): arrays of shape (R, k, k)."""
        k = self.group_size
        x1 = rois[:, 0] * self.spatial_scale
        y1 = rois[:, 1] * self.spatial_scale
        x2 = rois[:, 2] * self.spatial_scale
        y2 = rois[:, 3] * self.spatial_scale
        roi_w = np.maximum(x2 - x1, 1.0)
        roi_h = np.maximum(y2 - y1, 1.0)
        bin_w = roi_w / k
        bin_h = roi_h / k

        rows = np.arange(k, dtype=np.float32)
        # (R, k) edges per axis, then broadcast to (R, k, k).
        y_start = np.floor(y1[:, None] + rows[None, :] * bin_h[:, None])
        y_end = np.ceil(y1[:, None] + (rows[None, :] + 1.0) * bin_h[:, None])
        x_start = np.floor(x1[:, None] + rows[None, :] * bin_w[:, None])
        x_end = np.ceil(x1[:, None] + (rows[None, :] + 1.0) * bin_w[:, None])

        y_start = np.clip(y_start, 0, height).astype(np.int64)
        y_end = np.clip(y_end, 0, height).astype(np.int64)
        x_start = np.clip(x_start, 0, width).astype(np.int64)
        x_end = np.clip(x_end, 0, width).astype(np.int64)

        ys = np.broadcast_to(y_start[:, :, None], (rois.shape[0], k, k))
        ye = np.broadcast_to(y_end[:, :, None], (rois.shape[0], k, k))
        xs = np.broadcast_to(x_start[:, None, :], (rois.shape[0], k, k))
        xe = np.broadcast_to(x_end[:, None, :], (rois.shape[0], k, k))
        return ys, ye, xs, xe

    # ------------------------------------------------------------------
    def forward(
        self,
        score_maps: np.ndarray,
        rois: np.ndarray,
        batch_indices: np.ndarray | None = None,
    ) -> np.ndarray:
        """Pool ``rois`` from ``score_maps``.

        Parameters
        ----------
        score_maps:
            (B, k*k*output_dim, H, W) position-sensitive maps.
        rois:
            (R, 4) boxes in *image* coordinates.
        batch_indices:
            (R,) index of the image each RoI pools from.  May be omitted only
            for single-image maps (B == 1), where it defaults to zeros.

        Returns
        -------
        (R, output_dim, k, k) pooled values (zeros for empty bins).
        """
        score_maps = np.asarray(score_maps, dtype=np.float32)
        rois = np.asarray(rois, dtype=np.float32).reshape(-1, 4)
        if score_maps.ndim != 4:
            raise ValueError(f"score_maps must be (B, C, H, W), got {score_maps.shape}")
        if score_maps.shape[1] != self.expected_channels:
            raise ValueError(
                f"score_maps have {score_maps.shape[1]} channels, expected {self.expected_channels}"
            )
        batch_indices = _batch_column(batch_indices, rois.shape[0], score_maps.shape[0])
        with stage("detect/psroi"):
            output, (ys, ye, xs, xe), counts = _pool_bins([self], score_maps, rois, batch_indices)
        if not is_inference():
            self._cache = {
                "maps_shape": np.asarray(score_maps.shape),
                "batch_indices": batch_indices,
                "ys": ys,
                "ye": ye,
                "xs": xs,
                "xe": xe,
                "counts": counts,
            }
        return output

    # ------------------------------------------------------------------
    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Scatter gradients back onto the score maps.

        Parameters
        ----------
        grad_output:
            (R, output_dim, k, k) gradient w.r.t. the pooled output.

        Returns
        -------
        Gradient with the same (B, C, H, W) shape as the forward ``score_maps``.
        """
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        grad_output = np.asarray(grad_output, dtype=np.float32)
        k = self.group_size
        dim = self.output_dim
        maps_shape = tuple(int(v) for v in self._cache["maps_shape"])
        batch, channels, height, width = maps_shape
        ys, ye = self._cache["ys"], self._cache["ye"]
        xs, xe = self._cache["xs"], self._cache["xe"]
        counts = self._cache["counts"]
        roi_batch = self._cache["batch_indices"]

        # Corner-impulse buffer; the dense gradient is its double cumsum.
        corners = np.zeros((batch, channels, height + 1, width + 1), dtype=np.float64)
        corners_grouped = corners.reshape(batch, k * k, dim, height + 1, width + 1)

        safe_counts = np.where(counts > 0, counts, 1.0)
        per_bin_grad = grad_output / safe_counts[:, None, :, :]
        per_bin_grad = np.where(counts[:, None, :, :] > 0, per_bin_grad, 0.0)

        for bin_row in range(k):
            for bin_col in range(k):
                bin_index = bin_row * k + bin_col
                values = per_bin_grad[:, :, bin_row, bin_col]  # (R, dim)
                y0 = ys[:, bin_row, bin_col]
                y1 = ye[:, bin_row, bin_col]
                x0 = xs[:, bin_row, bin_col]
                x1 = xe[:, bin_row, bin_col]
                block = corners_grouped[:, bin_index]
                np.add.at(block, (roi_batch, slice(None), y0, x0), values)
                np.add.at(block, (roi_batch, slice(None), y0, x1), -values)
                np.add.at(block, (roi_batch, slice(None), y1, x0), -values)
                np.add.at(block, (roi_batch, slice(None), y1, x1), values)

        dense = np.cumsum(np.cumsum(corners, axis=2), axis=3)[:, :, :height, :width]
        return dense.astype(np.float32)


def _batch_column(batch_indices: np.ndarray | None, num_rois: int, batch: int) -> np.ndarray:
    """The (R,) int64 image index of every RoI (zeros when B == 1 and omitted)."""
    if batch_indices is None:
        if batch != 1:
            raise ValueError("batch_indices is required for multi-image score_maps")
        return np.zeros(num_rois, dtype=np.int64)
    batch_indices = np.asarray(batch_indices, dtype=np.int64).reshape(-1)
    if batch_indices.shape[0] != num_rois:
        raise ValueError(f"{num_rois} rois but {batch_indices.shape[0]} batch indices")
    return batch_indices


def _pool_bins(
    pools: Sequence[PSRoIPool],
    score_maps: np.ndarray,
    rois: np.ndarray,
    batch_indices: np.ndarray,
) -> tuple[np.ndarray, tuple[np.ndarray, ...], np.ndarray]:
    """Bin means of the pools' consecutive channel ranges of ``score_maps``.

    Returns the (R, D, k, k) float32 means (``D`` = the pools' summed
    ``output_dim``; zeros for empty bins), the (R, k, k) bin edges and cell
    counts.  One summed-area table covers every channel (see
    :func:`_summed_area_table`); every (RoI, channel, bin) sum is then one
    four-corner gather.
    """
    first = pools[0]
    k = first.group_size
    bins = k * k
    batch, channels, height, width = score_maps.shape
    edges = first._bin_edges(rois, height, width)
    ys, ye, xs, xe = edges
    counts = np.maximum((ye - ys) * (xe - xs), 0).astype(np.float32)

    flat = _summed_area_table(score_maps).reshape(-1)
    channel = _channel_plan(k, tuple(pool.output_dim for pool in pools))
    # Table cell (y, x, b, c) sits at ((y * (W + 1) + x) * B + b) * C + c.
    base = (batch_indices * channels)[:, None, None] + channel
    cell = batch * channels

    def corner(y: np.ndarray, x: np.ndarray) -> np.ndarray:
        return flat[base + ((y * (width + 1) + x) * cell).reshape(-1, 1, bins)]

    sums = corner(ye, xe) - corner(ys, xe) - corner(ye, xs) + corner(ys, xs)
    cells = counts.reshape(-1, 1, bins)
    means = divide_or_zero(sums, cells, out=sums)
    return means.astype(np.float32).reshape(rois.shape[0], len(channel), k, k), edges, counts


def _summed_area_table(score_maps: np.ndarray) -> np.ndarray:
    """``I[y, x, b, c] = sum(maps[b, c, :y, :x])`` in float64, shape (H+1, W+1, B, C).

    The same additions in the same order as ``np.cumsum(np.cumsum(maps,
    axis=2, dtype=np.float64), axis=3)``, so the same bytes: each row slab
    adds the row above it, then each column slab the column left of it.  With
    the spatial axes outermost a slab is one contiguous block (a row) or
    ``H`` blocks of ``B * C`` (a column), so the ``H + W`` slab adds stream
    through memory instead of accumulating along a strided axis.  The sums
    run along the spatial axes only, so each image's table is independent of
    its batch neighbours (batched pooling == per-image pooling, bit for bit).
    """
    batch, channels, height, width = score_maps.shape
    table = np.empty((height + 1, width + 1, batch, channels), dtype=np.float64)
    table[0] = 0.0
    table[1:, 0] = 0.0
    inner = table[1:, 1:]
    inner[...] = score_maps.transpose(2, 3, 0, 1)
    for y in range(1, height):
        np.add(inner[y - 1], inner[y], out=inner[y])
    for x in range(1, width):
        np.add(inner[:, x - 1], inner[:, x], out=inner[:, x])
    return table


@lru_cache(maxsize=16)
def _channel_plan(group_size: int, output_dims: tuple[int, ...]) -> np.ndarray:
    """The (D, k*k) channel of (output j, bin b) in pool p: ``offset_p + b * dim_p + j``.

    C-ordered, so every RoI's k*k bins stay contiguous for the vote's mean (a
    strided layout would reduce in another order).  Read-only: it is shared
    by every caller with the same pool layout.
    """
    bins = group_size * group_size
    offsets = np.cumsum((0,) + tuple(bins * dim for dim in output_dims))
    plan = np.concatenate(
        [
            start + np.arange(bins) * dim + np.arange(dim)[:, None]
            for start, dim in zip(offsets, output_dims)
        ]
    )
    plan.setflags(write=False)
    return plan


def psroi_votes(
    pools: Sequence[PSRoIPool],
    score_maps: np.ndarray,
    rois: np.ndarray,
    batch_indices: np.ndarray | None = None,
) -> list[np.ndarray]:
    """Inference: pool every pool's channel range of ``score_maps`` in one pass.

    ``score_maps`` stacks the pools' position-sensitive maps along the
    channel axis, in ``pools`` order; the pools must share group size and
    spatial scale.  Returns each pool's (R, output_dim) vote: the mean over
    its k x k bins (R-FCN's average voting).
    """
    if score_maps.shape[1] != sum(pool.expected_channels for pool in pools):
        raise ValueError(f"score_maps have {score_maps.shape[1]} channels, expected the pools' sum")
    batch_indices = _batch_column(batch_indices, rois.shape[0], score_maps.shape[0])
    with stage("detect/psroi"):
        pooled = _pool_bins(pools, score_maps, rois, batch_indices)[0]
        bounds = np.cumsum([0] + [pool.output_dim for pool in pools])
        return [pooled[:, start:stop].mean(axis=(2, 3)) for start, stop in zip(bounds, bounds[1:])]
