"""Percentiles, segment statistics and the run-to-run spread rule."""

from __future__ import annotations

import statistics
from typing import Sequence

import numpy as np

#: Samples are cut into at most MAX_SEGMENTS segments of at least this many
#: samples each (four beyond a segment's 95th percentile); the median over the
#: segments, not any single segment's tail, is what gets reported.
MIN_SEGMENT_SAMPLES = 80
MAX_SEGMENTS = 5


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100])."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def segment_count(num_samples: int) -> int:
    """How many equal consecutive segments a run of samples is cut into."""
    return max(1, min(MAX_SEGMENTS, num_samples // MIN_SEGMENT_SAMPLES))


def segmented_p95(samples: Sequence[float], segments: int | None = None) -> tuple[float, int]:
    """Median of the per-segment 95th percentiles, and the segment count.

    The run is cut into equal consecutive segments so that one external
    stall lands in one segment and cannot move the reported tail.
    """
    count = segment_count(len(samples)) if segments is None else segments
    bounds = np.linspace(0, len(samples), count + 1).astype(int)
    tails = [
        percentile(samples[lo:hi], 95.0) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo
    ]
    return statistics.median(tails), count


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median — the spread the driver holds against a bound."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return float((q3 - q1) / mid) if mid else float("inf")
