"""Shared measuring helpers: CPU/RSS accounting, time segments, result type."""

from __future__ import annotations

import os
import resource
import statistics
from dataclasses import dataclass, field

import numpy as np
from repro.evaluation import DetectionRecord, evaluate_detections

from harness import stats

#: Throughput and CPU per frame are the median over this many equal time
#: segments of the measured window, so one external stall moves neither.
TIME_SEGMENTS = 5
#: Whole set-ups per run; ``setup_s`` reports their median (plus the imports).
SETUP_REPS = 3


def cpu_seconds() -> float:
    """User + system CPU of this process and of its waited-for children."""
    times = os.times()
    return times.user + times.system + times.children_user + times.children_system


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus that of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # Linux reports KiB


class SegmentClock:
    """Samples CPU time at equal wall-time boundaries of the measured window.

    The driving loop calls :meth:`tick` with the current time once per
    iteration; crossing a boundary records one ``(wall, cpu)`` sample.
    """

    def __init__(self, start_s: float, seconds: float) -> None:
        self._step = seconds / TIME_SEGMENTS
        self._next = start_s + self._step
        self.marks: list[tuple[float, float]] = [(start_s, cpu_seconds())]

    def tick(self, now_s: float) -> None:
        if now_s >= self._next:
            self.marks.append((now_s, cpu_seconds()))
            self._next = now_s + self._step

    def close(self, now_s: float) -> None:
        """Final sample at the end of the window (after any drain)."""
        if now_s > self.marks[-1][0]:
            self.marks.append((now_s, cpu_seconds()))

    def per_segment(self, completion_times: np.ndarray) -> tuple[list[float], list[float]]:
        """Per-segment throughput (frames/s) and CPU per frame (ms).

        ``completion_times`` must be sorted and on the clock of ``marks``.
        """
        throughput, cpu_ms = [], []
        for (t_lo, cpu_lo), (t_hi, cpu_hi) in zip(self.marks[:-1], self.marks[1:]):
            done = int(
                np.searchsorted(completion_times, t_hi, side="right")
                - np.searchsorted(completion_times, t_lo, side="right")
            )
            if done == 0 or t_hi <= t_lo:
                continue
            throughput.append(done / (t_hi - t_lo))
            cpu_ms.append(1000.0 * (cpu_hi - cpu_lo) / done)
        return throughput, cpu_ms


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``."""

    attempted: int
    failed: int
    checks: dict[str, bool]
    end_to_end: dict[str, float]
    per_layer: dict[str, float] = field(default_factory=dict)
    #: sample counts and other context printed next to the metrics
    info: dict[str, object] = field(default_factory=dict)


def end_to_end_metrics(
    *,
    setup_s: float,
    latencies_s,
    completion_times,
    clock: SegmentClock,
) -> tuple[dict[str, float], dict[str, object]]:
    """The six end-to-end metrics of a frame-by-frame workload."""
    latencies_ms = 1000.0 * np.asarray(latencies_s, dtype=np.float64)
    throughput, cpu_ms = clock.per_segment(np.sort(np.asarray(completion_times)))
    p95, p95_segments = stats.segmented_p95(latencies_ms)
    metrics = {
        "setup_s": setup_s,
        "throughput_fps": statistics.median(throughput),
        "frame_ms_p50": stats.percentile(latencies_ms, 50.0),
        "frame_ms_p95": p95,
        "cpu_ms_per_frame": statistics.median(cpu_ms),
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {
        "latency_samples": int(latencies_ms.size),
        "p95_segments": p95_segments,
        "segment_fps": [round(value, 1) for value in throughput],
    }
    return metrics, info


def scale_metrics(scale_sequences: list[list[int]], native_scale: int) -> dict[str, float]:
    """Scale-choice metrics of per-video (or per-stream) scale sequences."""
    flat = [scale for sequence in scale_sequences for scale in sequence]
    switches = sum(a != b for seq in scale_sequences for a, b in zip(seq, seq[1:]))
    followers = sum(max(len(sequence) - 1, 0) for sequence in scale_sequences)
    return {
        "data.resized_share": float(np.mean([scale != native_scale for scale in flat])),
        "core.mean_scale": float(np.mean(flat)),
        "core.scale_switch_share": switches / followers if followers else 0.0,
    }


def same_detections(a, b) -> bool:
    """Bit-identical boxes, scores and classes of two detection-like objects."""
    return (
        np.array_equal(a.boxes, b.boxes)
        and np.array_equal(a.scores, b.scores)
        and np.array_equal(a.class_ids, b.class_ids)
    )


def map_pct(records, class_names) -> float:
    """mAP (%) of detection records against their ground truth."""
    return 100.0 * float(evaluate_detections(records, class_names).mean_ap)


def record_of(detection, frame):
    """Pair one frame's detections with that frame's ground truth."""
    return DetectionRecord(
        boxes=detection.boxes,
        scores=detection.scores,
        class_ids=detection.class_ids,
        gt_boxes=frame.boxes,
        gt_labels=frame.labels,
        frame_id=(frame.snippet_id, frame.frame_index),
    )
