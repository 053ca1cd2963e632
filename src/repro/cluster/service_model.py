"""Per-scale service-time model of one replica, calibrated on real inference.

The cluster's virtual-time engine (:mod:`repro.cluster.simulation`) needs to
know how long a shard takes to serve a frame at each AdaScale scale, and how
much a stacked micro-batch amortises.  Both are *measured*, not assumed: on a
trained bundle, :func:`calibrate_service_model` times the real detector at
every regressor scale (median of repeats) and fits the batch-marginal factor
from an actual stacked execution.  The resulting :class:`ServiceModel` is a
frozen, serializable dataclass, so a calibration can be saved next to the
``BENCH_*.json`` artefacts and replayed deterministically.

This split — real measurement once, deterministic replay after — is what
makes the scenario suite reproducible: the paper's scale↔speed trade-off
(service time tracks the resized image area) is captured from the machine the
benchmark ran on, while routing, queueing, feedback control and scaling
ratios are evaluated in exact virtual time, independent of host noise and
core count.

For unit tests and quick CLI runs without a trained bundle,
:func:`analytic_service_model` provides the area-proportional analytic
fallback (cost ∝ scale², the same first-order model the paper's FLOP analysis
uses).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from repro.config import AdaScaleConfig, SerializableConfig

__all__ = [
    "ServiceModel",
    "analytic_service_model",
    "calibrate_service_model",
]


@dataclass(frozen=True)
class ServiceModel(SerializableConfig):
    """Measured per-frame service cost as a function of AdaScale scale.

    ``scales`` / ``frame_ms`` are parallel tuples (descending scales, the
    ladder order of :class:`~repro.config.AdaScaleConfig`); unprofiled scales
    interpolate on the area (scale²) axis, matching how convolutional cost
    actually grows.  ``batch_marginal`` is the relative cost of each frame
    beyond the first inside a stacked micro-batch (1.0 = batching buys
    nothing, 0.0 = free); ``overhead_ms`` is the per-dispatch fixed cost.
    """

    scales: tuple[int, ...] = (128, 96, 72, 48, 32)
    frame_ms: tuple[float, ...] = (9.0, 5.1, 2.9, 1.3, 0.6)
    batch_marginal: float = 0.7
    overhead_ms: float = 0.2

    def with_(self, **kwargs: object) -> "ServiceModel":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    def validate(self) -> None:
        """Sanity checks; raises ``ValueError`` on inconsistency."""
        if len(self.scales) != len(self.frame_ms) or not self.scales:
            raise ValueError(
                f"scales and frame_ms must be equal-length and non-empty, got "
                f"{len(self.scales)} scales / {len(self.frame_ms)} times"
            )
        if tuple(self.scales) != tuple(sorted(self.scales, reverse=True)):
            raise ValueError(f"scales must be descending, got {self.scales}")
        if any(ms <= 0 for ms in self.frame_ms):
            raise ValueError(f"frame_ms must be positive, got {self.frame_ms}")
        if not 0.0 <= self.batch_marginal <= 1.5:
            raise ValueError(
                f"batch_marginal must be in [0, 1.5], got {self.batch_marginal}"
            )
        if self.overhead_ms < 0:
            raise ValueError(f"overhead_ms must be >= 0, got {self.overhead_ms}")

    # -- evaluation ----------------------------------------------------------
    def frame_time_s(self, scale: int) -> float:
        """Service seconds of one frame executed alone at ``scale``."""
        return (self.overhead_ms + self._frame_ms(scale)) / 1000.0

    def batch_time_s(self, scale: int, batch_size: int) -> float:
        """Service seconds of one stacked micro-batch of ``batch_size`` frames.

        First frame at full cost, every further frame at the measured marginal
        — the dispatch/weight-reuse amortisation stacked execution buys.
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        per_frame = self._frame_ms(scale)
        total_ms = self.overhead_ms + per_frame * (
            1.0 + self.batch_marginal * (batch_size - 1)
        )
        return total_ms / 1000.0

    def capacity_fps(self, scale: int, num_workers: int, batch_size: int = 1) -> float:
        """Steady-state frames/s of one shard at a fixed scale (sanity metric)."""
        return num_workers * batch_size / self.batch_time_s(scale, batch_size)

    def _frame_ms(self, scale: int) -> float:
        return _interpolate_frame_ms(self.scales, self.frame_ms, int(scale))


@lru_cache(maxsize=4096)
def _interpolate_frame_ms(
    scales: tuple[int, ...], frame_ms: tuple[float, ...], scale: int
) -> float:
    """Area-axis interpolation, memoised — this sits in the simulator's
    innermost loop (every admit/dispatch/completion of a 100k-frame trace),
    where rebuilding the ndarrays per call would dominate the run."""
    areas = np.array([float(s) ** 2 for s in scales])
    times = np.array(frame_ms, dtype=np.float64)
    # np.interp needs ascending x; ladder order is descending.
    return float(np.interp(float(scale) ** 2, areas[::-1], times[::-1]))


def analytic_service_model(
    adascale: AdaScaleConfig,
    base_frame_ms: float = 8.0,
    batch_marginal: float = 0.7,
    overhead_ms: float = 0.2,
) -> ServiceModel:
    """Area-proportional fallback model over the config's regressor ladder.

    ``base_frame_ms`` is the assumed cost at the ladder's top scale; the rest
    scale with image area — the paper's first-order FLOP model.  Use
    :func:`calibrate_service_model` whenever a trained bundle is available.
    """
    scales = tuple(int(s) for s in adascale.regressor_scales)
    top = float(max(scales))
    frame_ms = tuple(base_frame_ms * (s / top) ** 2 for s in scales)
    model = ServiceModel(
        scales=scales,
        frame_ms=frame_ms,
        batch_marginal=batch_marginal,
        overhead_ms=overhead_ms,
    )
    model.validate()
    return model


def calibrate_service_model(
    bundle,
    frames_per_scale: int = 4,
    repeats: int = 3,
    batch_size: int = 4,
) -> ServiceModel:
    """Measure a :class:`ServiceModel` on a trained bundle's real detector.

    For every scale of the bundle's regressor ladder, times
    ``frames_per_scale`` single-frame detections (median over ``repeats``
    interleaved passes, so allocator/cache warmup hits every scale equally).
    The batch marginal comes from timing a ``batch_size`` stacked execution at
    the ladder's top scale right before each pass's single-frame run at the
    same scale (median of the per-pass ratios, so host speed drift between
    the two timings cancels).
    """
    from repro.core.adascale import AdaScaleDetector

    if frames_per_scale < 1:
        raise ValueError(f"frames_per_scale must be >= 1, got {frames_per_scale}")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    adascale = AdaScaleDetector(bundle.ms_detector, bundle.regressor, bundle.config.adascale)
    scales = tuple(int(s) for s in bundle.config.adascale.regressor_scales)
    images = [
        frame.image
        for snippet in list(bundle.val_dataset)[:2]
        for frame in snippet.frames()
    ][: max(frames_per_scale, batch_size)]
    if not images:
        raise ValueError("bundle has no validation frames to calibrate on")

    # Warm every ladder scale, not just the top one: each scale has its own
    # resize / im2col plans and arena high-water mark, and a first-touch cost
    # landing in one scale's timed pass makes the model non-monotone.
    for scale in scales:
        adascale.detect_frame(images[0], scale)
    # Batched marginal at the top scale (largest tensors, the amortisation the
    # scheduler's scale buckets are designed to exploit).
    top = scales[0]
    batch_images = [images[i % len(images)] for i in range(batch_size)]
    sample_ms: dict[int, list[float]] = {scale: [] for scale in scales}
    batch_ratios = []
    for _ in range(repeats):
        start = time.perf_counter()
        adascale.detect_frames(batch_images, [top] * batch_size)
        batch_ms = 1000.0 * (time.perf_counter() - start)
        for scale in scales:
            start = time.perf_counter()
            for index in range(frames_per_scale):
                adascale.detect_frame(images[index % len(images)], scale)
            elapsed = time.perf_counter() - start
            sample_ms[scale].append(1000.0 * elapsed / frames_per_scale)
        batch_ratios.append(batch_ms / sample_ms[top][-1])
    frame_ms = tuple(float(np.median(sample_ms[scale])) for scale in scales)
    if batch_size > 1:
        marginal = (float(np.median(batch_ratios)) - 1.0) / (batch_size - 1)
        marginal = float(np.clip(marginal, 0.05, 1.0))
    else:
        marginal = 1.0

    model = ServiceModel(
        scales=scales,
        frame_ms=frame_ms,
        batch_marginal=marginal,
        overhead_ms=0.0,
    )
    model.validate()
    return model
