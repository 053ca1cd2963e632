"""End-to-end observability for the serving/cluster stack.

Two pieces, designed to cost nothing when off:

* **Tracing** (:mod:`~repro.observability.trace`) — a
  :class:`TraceContext` minted per admitted frame rides on the request
  through scheduler → micro-batch → worker → session (and, in the cluster,
  router → shard), collecting typed spans plus governor/autoscaler
  **decision events**.  Activation mirrors the stage profiler: one
  module-level active tracer, read without locking, so disabled
  instrumentation is a null check.
* **Sinks & exporters** (:mod:`~repro.observability.sinks` /
  :mod:`~repro.observability.export`) — bounded ring buffer, JSONL span
  log, Chrome trace-event export (``chrome://tracing`` / Perfetto),
  Prometheus text exposition of a span log, per-stage/per-shard rollups,
  and SLO burn-rate series.

Live serving metrics are not kept here: each server's
:class:`~repro.serving.metrics.ServerMetrics` is the one accumulator behind
its telemetry snapshot, the cluster report and the governor.

Everything is configured by :class:`repro.config.TelemetryConfig`
(re-exported here), which is a field of ``ExperimentConfig`` — so
``--set telemetry.sample_rate=0.1`` works like any other config override.
"""

from repro.config import TelemetryConfig
from repro.observability.export import (
    burn_rate_series,
    events_to_metrics,
    shard_rollup,
    stage_rollup,
    to_chrome_trace,
    to_prometheus_text,
    validate_chrome_trace,
    validate_prometheus_text,
    write_chrome_trace,
)
from repro.observability.sinks import (
    JsonlSpanSink,
    RingBufferSink,
    SpanExportBuffer,
    load_span_log,
)
from repro.observability.trace import SpanEvent, TraceContext, Tracer, active_tracer

__all__ = [
    "JsonlSpanSink",
    "RingBufferSink",
    "SpanEvent",
    "SpanExportBuffer",
    "TelemetryConfig",
    "TraceContext",
    "Tracer",
    "active_tracer",
    "burn_rate_series",
    "events_to_metrics",
    "load_span_log",
    "shard_rollup",
    "stage_rollup",
    "to_chrome_trace",
    "to_prometheus_text",
    "validate_chrome_trace",
    "validate_prometheus_text",
    "write_chrome_trace",
]
