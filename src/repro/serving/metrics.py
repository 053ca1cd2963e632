"""Serving telemetry: latency percentiles, queue depth, batch occupancy.

Extends the offline :class:`~repro.evaluation.runtime.RuntimeStats` profiling
to the quantities that matter under load:

* **end-to-end latency** (submission → completion) and its decomposition into
  queue wait and service time, reported as p50/p95/p99 — tail latency is the
  paper's "real-time" claim restated for a loaded server;
* **queue depth** sampled at every admission and dispatch — the backpressure
  signal;
* **batch occupancy** — how full the scale-bucketed micro-batches run, i.e.
  how much cross-stream batching the scale regressor's predictions enable;
* **per-stream throughput** — fairness across concurrent streams.

All hooks are thread-safe; workers and submitters share one instance.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.evaluation.reporting import format_float, format_table, runtime_summary_table
from repro.evaluation.runtime import RuntimeStats

__all__ = ["StreamSnapshot", "TelemetrySnapshot", "ServerMetrics"]


@dataclass(frozen=True)
class StreamSnapshot:
    """Per-stream completion statistics."""

    stream_id: int
    completed: int
    mean_latency_ms: float
    p95_latency_ms: float
    throughput_fps: float


@dataclass(frozen=True)
class TelemetrySnapshot:
    """Point-in-time summary of a serving session."""

    submitted: int
    completed: int
    dropped: int
    expired: int
    rejected: int
    failed: int
    cancelled: int
    #: frames abandoned on a shard because their stream was migrated away
    #: (cluster process mode: crash/drain re-routing) — shed, but distinct
    #: from ``dropped``: the stream itself continued elsewhere
    migrated: int
    latency: RuntimeStats
    queue_wait: RuntimeStats
    service: RuntimeStats
    mean_batch_size: float
    max_batch_size: int
    mean_queue_depth: float
    max_queue_depth: int
    wall_s: float
    throughput_fps: float
    streams: tuple[StreamSnapshot, ...] = ()

    @property
    def shed(self) -> int:
        """Total frames not processed (dropped/expired/rejected/cancelled/migrated)."""
        return self.dropped + self.expired + self.rejected + self.cancelled + self.migrated

    @property
    def shed_by_cause(self) -> dict[str, int]:
        """Shed counts keyed by cause (the cluster report's accounting split)."""
        return {
            "dropped": self.dropped,
            "expired": self.expired,
            "rejected": self.rejected,
            "cancelled": self.cancelled,
            "failed": self.failed,
            "migrated": self.migrated,
        }

    def format(self, title: str = "Serving telemetry") -> str:
        """Render the full telemetry report (the `serve` CLI output)."""
        counter_rows = [
            ["submitted", str(self.submitted)],
            ["completed", str(self.completed)],
            ["dropped", str(self.dropped)],
            ["expired", str(self.expired)],
            ["rejected", str(self.rejected)],
            ["failed", str(self.failed)],
            ["cancelled", str(self.cancelled)],
            ["migrated", str(self.migrated)],
            ["wall time (s)", format_float(self.wall_s, 2)],
            ["throughput (frames/s)", format_float(self.throughput_fps, 2)],
            ["mean batch occupancy", format_float(self.mean_batch_size, 2)],
            ["max batch size", str(self.max_batch_size)],
            ["mean queue depth", format_float(self.mean_queue_depth, 2)],
            ["max queue depth", str(self.max_queue_depth)],
        ]
        sections = [
            format_table(["Counter", "Value"], counter_rows, title=title),
            runtime_summary_table(
                [self.latency, self.queue_wait, self.service],
                title="Latency breakdown",
            ),
        ]
        if self.streams:
            stream_rows = [
                [
                    str(stream.stream_id),
                    str(stream.completed),
                    format_float(stream.mean_latency_ms),
                    format_float(stream.p95_latency_ms),
                    format_float(stream.throughput_fps, 2),
                ]
                for stream in self.streams
            ]
            sections.append(
                format_table(
                    ["Stream", "Frames", "Mean (ms)", "p95 (ms)", "FPS"],
                    stream_rows,
                    title="Per-stream throughput",
                )
            )
        return "\n\n".join(sections)


#: Terminal frame states a :class:`ServerMetrics` counts, in snapshot order.
_FRAME_STATES = (
    "submitted",
    "completed",
    "dropped",
    "expired",
    "rejected",
    "failed",
    "cancelled",
    "migrated",
)


class ServerMetrics:
    """Thread-safe accumulator behind :class:`TelemetrySnapshot`.

    Frame-state counters are plain integers and each latency sample is
    stored once (with its stream id beside it), all under one lock.  This is
    the one metrics stack of the serving/cluster path: the snapshot, the
    cluster report, the governor and the process-mode proxies all read it.
    """

    def __init__(self, clock=time.monotonic) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._counts = dict.fromkeys(_FRAME_STATES, 0)
        self.latency = RuntimeStats(name="end-to-end")
        self.queue_wait = RuntimeStats(name="queue wait")
        self.service = RuntimeStats(name="service")
        #: stream id of each ``latency`` sample, index for index
        self._latency_streams: list[int] = []
        self._stream_last_completion: dict[int, float] = {}
        self._batch_sizes: list[int] = []
        self._queue_depths: list[int] = []
        self._first_submit = float("inf")
        self._last_completion = float("-inf")

    @property
    def submitted(self) -> int:
        return self._counts["submitted"]

    @property
    def completed(self) -> int:
        return self._counts["completed"]

    @property
    def dropped(self) -> int:
        return self._counts["dropped"]

    @property
    def expired(self) -> int:
        return self._counts["expired"]

    @property
    def rejected(self) -> int:
        return self._counts["rejected"]

    @property
    def failed(self) -> int:
        return self._counts["failed"]

    @property
    def cancelled(self) -> int:
        return self._counts["cancelled"]

    @property
    def migrated(self) -> int:
        return self._counts["migrated"]

    # -- hooks --------------------------------------------------------------
    def on_submitted(self) -> None:
        """Record one admission attempt."""
        with self._lock:
            self._counts["submitted"] += 1
            self._first_submit = min(self._first_submit, self._clock())

    def on_shed(self, kind: str) -> None:
        """Record one shed frame; ``kind`` matches a RequestStatus value."""
        if kind not in _FRAME_STATES or kind in ("submitted", "completed"):
            raise ValueError(f"unknown shed kind {kind!r}")
        with self._lock:
            self._counts[kind] += 1

    def observe_queue_depth(self, depth: int) -> None:
        """Sample the scheduler's queue depth (called on admit and dispatch)."""
        with self._lock:
            self._queue_depths.append(int(depth))

    def observe_batch(self, size: int) -> None:
        """Record the occupancy of one dispatched micro-batch."""
        with self._lock:
            self._batch_sizes.append(int(size))

    def on_completed(
        self,
        stream_id: int,
        queue_wait_s: float,
        service_s: float,
        latency_s: float,
    ) -> None:
        """Record one successfully served frame."""
        now = self._clock()
        with self._lock:
            self._counts["completed"] += 1
            self.latency.add(latency_s)
            self.queue_wait.add(queue_wait_s)
            self.service.add(service_s)
            self._latency_streams.append(stream_id)
            self._stream_last_completion[stream_id] = max(
                self._stream_last_completion.get(stream_id, now), now
            )
            self._last_completion = max(self._last_completion, now)

    def recent_latency(self, window: int) -> RuntimeStats:
        """End-to-end latency over the last ``window`` completions.

        The rolling view a feedback controller needs: cumulative percentiles
        smear out load transients, but the tail of the last few dozen frames
        tracks the *current* pressure.  Returns an empty ``RuntimeStats`` when
        nothing completed yet — callers must treat ``count == 0`` as "no
        signal", not "no load".
        """
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        with self._lock:
            return RuntimeStats(
                samples_s=list(self.latency.samples_s[-window:]), name="recent"
            )

    # -- incremental views (cluster process-mode IPC) ------------------------
    def batch_sizes_since(self, index: int) -> tuple[int, list[int]]:
        """Batch-occupancy observations recorded at or after ``index``.

        Returns ``(next_index, new_samples)`` — the watermark pattern a
        process-mode replica uses to stream *deltas* of these observations to
        its parent proxy instead of re-sending the whole history every
        telemetry period.
        """
        with self._lock:
            return len(self._batch_sizes), list(self._batch_sizes[index:])

    def queue_depths_since(self, index: int) -> tuple[int, list[int]]:
        """Queue-depth samples recorded at or after ``index`` (see above)."""
        with self._lock:
            return len(self._queue_depths), list(self._queue_depths[index:])

    # -- reporting ----------------------------------------------------------
    def snapshot(self) -> TelemetrySnapshot:
        """Consistent copy of all counters and distributions.

        Safe on a zero-traffic instance (a cluster shard that never received a
        stream): rate/occupancy aggregates report 0.0 instead of NaN, so the
        snapshot formats and serializes cleanly.  Latency distributions stay
        empty (``count == 0``); their percentile properties return NaN, which
        renders as ``nan`` in tables — callers aggregating across shards
        should check ``count`` first.
        """
        with self._lock:
            wall = self._last_completion - self._first_submit
            wall = wall if np.isfinite(wall) and wall > 0 else 0.0
            throughput = self.completed / wall if wall > 0 else 0.0
            by_stream: dict[int, list[float]] = {}
            for stream_id, latency_s in zip(self._latency_streams, self.latency.samples_s):
                by_stream.setdefault(stream_id, []).append(latency_s)
            streams = []
            for stream_id in sorted(by_stream):
                latency = RuntimeStats(samples_s=by_stream[stream_id])
                span = self._stream_last_completion[stream_id] - self._first_submit
                fps = latency.count / span if np.isfinite(span) and span > 0 else 0.0
                streams.append(
                    StreamSnapshot(
                        stream_id=stream_id,
                        completed=latency.count,
                        mean_latency_ms=latency.mean_ms,
                        p95_latency_ms=latency.p95_ms,
                        throughput_fps=fps,
                    )
                )
            return TelemetrySnapshot(
                submitted=self.submitted,
                completed=self.completed,
                dropped=self.dropped,
                expired=self.expired,
                rejected=self.rejected,
                failed=self.failed,
                cancelled=self.cancelled,
                migrated=self.migrated,
                latency=RuntimeStats(samples_s=list(self.latency.samples_s), name="end-to-end"),
                queue_wait=RuntimeStats(
                    samples_s=list(self.queue_wait.samples_s), name="queue wait"
                ),
                service=RuntimeStats(samples_s=list(self.service.samples_s), name="service"),
                mean_batch_size=(
                    float(np.mean(self._batch_sizes)) if self._batch_sizes else 0.0
                ),
                max_batch_size=max(self._batch_sizes, default=0),
                mean_queue_depth=(
                    float(np.mean(self._queue_depths)) if self._queue_depths else 0.0
                ),
                max_queue_depth=max(self._queue_depths, default=0),
                wall_s=wall,
                throughput_fps=throughput,
                streams=tuple(streams),
            )
