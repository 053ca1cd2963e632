"""Exporters and read-time aggregations over recorded telemetry.

Everything here consumes a flat sequence of
:class:`~repro.observability.trace.SpanEvent` records (from a tracer's ring
buffer or a JSONL span log) and produces either an interchange format or a
rollup:

* :func:`to_chrome_trace` / :func:`write_chrome_trace` — the Chrome
  trace-event JSON format, loadable in ``chrome://tracing`` and Perfetto.
  Shards map to processes, streams to threads, so a multi-shard run renders
  as parallel swimlanes with governor decisions as instant markers.
* :func:`to_prometheus_text` — Prometheus text exposition of the metrics
  snapshot :func:`events_to_metrics` builds from recorded events, so the
  ``repro obs`` CLI can expose a span log.
* :func:`stage_rollup` — per-stage ``{name: {count, total_s, mean_ms}}`` in
  exactly the shape of :meth:`repro.profiling.StageProfiler.stages` (the
  profiler bridge: the trace's stage spans and the profiler's stage scopes
  share names, so the two views are directly comparable).
* :func:`shard_rollup` — per-shard traffic/decision summary.
* :func:`burn_rate_series` — per-stream / per-shard SLO burn-rate buckets
  (fraction of completions over the latency target per time bucket), the
  series a future governor can consume as its error signal.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro.evaluation.runtime import RuntimeStats
from repro.observability.trace import SpanEvent

__all__ = [
    "burn_rate_series",
    "events_to_metrics",
    "shard_rollup",
    "stage_rollup",
    "to_chrome_trace",
    "to_prometheus_text",
    "validate_chrome_trace",
    "validate_prometheus_text",
    "write_chrome_trace",
]

#: Event name carrying the end-to-end completion of one frame.
COMPLETION_EVENT = "serving/complete_frame"
#: Event name carrying a shed (dropped / expired / rejected) frame.
SHED_EVENT = "serving/shed"

#: ``(name, type, help)`` of every family :func:`events_to_metrics` reports.
_TRACE_FAMILIES = (
    ("repro_trace_frames_completed_total", "counter", "Completed frames seen in the trace"),
    ("repro_trace_frames_shed_total", "counter", "Shed frames seen in the trace"),
    ("repro_trace_decisions_total", "counter", "Control-plane decisions in the trace"),
    ("repro_trace_spans_total", "counter", "Duration spans in the trace"),
    ("repro_trace_frame_latency_seconds", "histogram", "End-to-end frame latency"),
)
#: Percentiles (0-100) reported for each histogram sample.
_QUANTILES = (50, 95, 99)


# ---------------------------------------------------------------------------
# Chrome trace-event format
# ---------------------------------------------------------------------------
def to_chrome_trace(events: Sequence[SpanEvent]) -> dict[str, Any]:
    """Render events as a Chrome trace-event JSON object.

    Spans become ``"X"`` (complete) events with microsecond ``ts``/``dur``;
    instants and decisions become ``"i"`` events.  ``pid`` is the shard id
    and ``tid`` the stream id, which gives Perfetto one swimlane per stream
    grouped under its shard; decisions are process-scoped markers.

    Process-mode fleet traces carry the real worker OS pid in each rebased
    child event's ``os_pid`` attr — those events use it as the Chrome ``pid``
    so the viewer shows one true process per replica (respawned generations
    included), and ``"M"`` metadata records name every process lane
    (``shard N worker (pid P, gen G)`` / ``control plane``) plus the
    supervisor/governor thread.  Single-process traces keep the plain
    shard-as-pid mapping with no metadata.
    """
    trace_events: list[dict[str, Any]] = []
    worker_labels: dict[int, str] = {}
    control_pids: set[int] = set()
    for event in events:
        args: dict[str, Any] = dict(event.attrs)
        args["trace_id"] = event.trace_id
        if event.frame_index >= 0:
            args["frame_index"] = event.frame_index
        os_pid = event.attrs.get("os_pid")
        if isinstance(os_pid, int) and os_pid > 0:
            pid = os_pid
            worker_labels.setdefault(
                os_pid,
                f"shard {event.shard_id} worker "
                f"(pid {os_pid}, gen {event.attrs.get('generation', 0)})",
            )
        else:
            pid = event.shard_id if event.shard_id >= 0 else 0
            control_pids.add(pid)
        record: dict[str, Any] = {
            "name": event.name,
            "cat": event.kind,
            "pid": pid,
            "tid": event.stream_id if event.stream_id >= 0 else 0,
            "ts": event.start_s * 1e6,
            "args": args,
        }
        if event.kind == "span":
            record["ph"] = "X"
            record["dur"] = event.duration_s * 1e6
        else:
            record["ph"] = "i"
            # Decisions mark the whole process (shard); frame instants mark
            # their own thread (stream) lane.
            record["s"] = "p" if event.kind == "decision" else "t"
        trace_events.append(record)
    if worker_labels:
        metadata: list[dict[str, Any]] = []
        for pid in sorted(control_pids):
            label = "control plane" if pid <= 0 else f"control plane (shard {pid})"
            metadata.append(_metadata("process_name", pid, name=label))
            metadata.append(_metadata("thread_name", pid, name="supervisor/governor"))
        for pid, label in sorted(worker_labels.items()):
            metadata.append(_metadata("process_name", pid, name=label))
        trace_events = metadata + trace_events
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def _metadata(kind: str, pid: int, **args: Any) -> dict[str, Any]:
    """One Chrome ``"M"`` metadata record (process/thread naming)."""
    return {"name": kind, "ph": "M", "ts": 0, "pid": pid, "tid": 0, "args": args}


def write_chrome_trace(path: str | Path, events: Sequence[SpanEvent]) -> Path:
    """Write :func:`to_chrome_trace` output as strict JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(to_chrome_trace(events), allow_nan=False))
    return path


def validate_chrome_trace(payload: Mapping[str, Any]) -> list[str]:
    """Schema check of a Chrome trace object; returns problems (empty = ok)."""
    problems: list[str] = []
    trace_events = payload.get("traceEvents")
    if not isinstance(trace_events, list):
        return ["traceEvents missing or not a list"]
    for index, record in enumerate(trace_events):
        if not isinstance(record, dict):
            problems.append(f"event {index} is not an object")
            continue
        for key in ("name", "ph", "ts", "pid", "tid"):
            if key not in record:
                problems.append(f"event {index} ({record.get('name')!r}) missing {key!r}")
        if record.get("ph") == "X" and "dur" not in record:
            problems.append(f"event {index} ({record.get('name')!r}) is 'X' without dur")
    return problems


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------
def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


def _format_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{key}="{_escape_label(str(value))}"' for key, value in sorted(labels.items())
    )
    return "{" + body + "}"


def to_prometheus_text(snapshot: Mapping[str, Mapping[str, Any]]) -> str:
    """Render an :func:`events_to_metrics` snapshot dict as Prometheus text.

    Histograms are exposed summary-style: ``_count`` and ``_sum`` series plus
    one ``{quantile="..."}`` series per reported percentile.
    """
    lines: list[str] = []
    for name in sorted(snapshot):
        family = snapshot[name]
        kind = family.get("type", "counter")
        exposed_type = "summary" if kind == "histogram" else kind
        if family.get("help"):
            lines.append(f"# HELP {name} {family['help']}")
        lines.append(f"# TYPE {name} {exposed_type}")
        for sample in family.get("samples", ()):
            labels = dict(sample.get("labels", {}))
            if kind == "histogram":
                lines.append(f"{name}_count{_format_labels(labels)} {sample['count']:.6g}")
                lines.append(f"{name}_sum{_format_labels(labels)} {sample['sum']:.6g}")
                for key, value in sample.items():
                    if key.startswith("p") and key[1:].isdigit():
                        quantile = int(key[1:]) / 100.0
                        q_labels = {**labels, "quantile": f"{quantile:g}"}
                        lines.append(f"{name}{_format_labels(q_labels)} {value:.6g}")
            else:
                lines.append(f"{name}{_format_labels(labels)} {sample['value']:.6g}")
    return "\n".join(lines) + "\n"


def validate_prometheus_text(text: str) -> list[str]:
    """Line-level check of Prometheus exposition text (empty list = ok)."""
    import re

    sample_re = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$")
    problems: list[str] = []
    for number, line in enumerate(text.splitlines(), start=1):
        if not line or line.startswith("#"):
            continue
        match = sample_re.match(line)
        if not match:
            problems.append(f"line {number} is not a valid sample: {line!r}")
            continue
        try:
            float(match.group(3))
        except ValueError:
            problems.append(f"line {number} has a non-numeric value: {line!r}")
    return problems


def events_to_metrics(events: Sequence[SpanEvent]) -> dict[str, dict[str, Any]]:
    """Summarise recorded events as the snapshot :func:`to_prometheus_text` renders.

    Lets ``repro obs export --format prometheus`` expose a span log:
    completions, sheds, decisions and spans become counters and completion
    latency a summary, all labeled by shard.  Returns
    ``{name: {"type", "help", "samples": [...]}}`` where a counter sample is
    ``{"labels", "value"}`` and a histogram sample ``{"labels", "count",
    "sum", "p50", "p95", "p99"}``; quantiles come from
    :meth:`~repro.evaluation.runtime.RuntimeStats.percentile` (linear
    interpolation), the percentile rule of every other latency report.
    """
    counts: dict[str, Counter] = {
        name: Counter() for name, kind, _ in _TRACE_FAMILIES if kind == "counter"
    }
    latencies: dict[tuple, list[float]] = defaultdict(list)
    for event in events:
        shard = (("shard", str(event.shard_id)),)
        if event.kind == "decision":
            counts["repro_trace_decisions_total"][(("action", event.name),) + shard] += 1
        elif event.kind == "span":
            counts["repro_trace_spans_total"][(("name", event.name),) + shard] += 1
        if event.name == COMPLETION_EVENT:
            counts["repro_trace_frames_completed_total"][shard] += 1
            latency_ms = event.attrs.get("latency_ms")
            if latency_ms is not None:
                latencies[shard].append(float(latency_ms) / 1000.0)
        elif event.name == SHED_EVENT:
            status = str(event.attrs.get("status", ""))
            counts["repro_trace_frames_shed_total"][shard + (("status", status),)] += 1
    snapshot: dict[str, dict[str, Any]] = {}
    for name, kind, help in _TRACE_FAMILIES:
        if kind == "counter":
            samples = [
                {"labels": dict(key), "value": float(value)}
                for key, value in sorted(counts[name].items())
            ]
        else:
            samples = [_summary(key, values) for key, values in sorted(latencies.items())]
        snapshot[name] = {"type": kind, "help": help, "samples": samples}
    return snapshot


def _summary(key: tuple, values: list[float]) -> dict[str, Any]:
    """One histogram sample: count, sum and quantiles (seconds) of ``values``."""
    stats = RuntimeStats(samples_s=values)
    sample: dict[str, Any] = {
        "labels": dict(key),
        "count": float(stats.count),
        "sum": float(sum(values)),
    }
    for q in _QUANTILES:
        sample[f"p{q}"] = stats.percentile(q) / 1000.0
    return sample


# ---------------------------------------------------------------------------
# Rollups
# ---------------------------------------------------------------------------
def stage_rollup(events: Iterable[SpanEvent]) -> dict[str, dict[str, float]]:
    """Per-stage span totals in :meth:`StageProfiler.stages` shape.

    Returns ``{name: {"count", "total_s", "mean_ms"}}`` sorted by descending
    total time — directly comparable with a profiler run over the same
    workload because the worker emits trace stage spans under the same names
    as its profiler scopes.
    """
    totals: dict[str, list[float]] = defaultdict(lambda: [0, 0.0])
    for event in events:
        if event.kind != "span":
            continue
        bucket = totals[event.name]
        bucket[0] += 1
        bucket[1] += event.duration_s
    result = {
        name: {
            "count": int(count),
            "total_s": float(total),
            "mean_ms": 1000.0 * total / count if count else 0.0,
        }
        for name, (count, total) in totals.items()
    }
    return dict(sorted(result.items(), key=lambda item: -item[1]["total_s"]))


def shard_rollup(events: Iterable[SpanEvent]) -> dict[int, dict[str, float]]:
    """Per-shard traffic summary: admissions, completions, sheds, decisions."""
    shards: dict[int, dict[str, float]] = defaultdict(
        lambda: {
            "admitted": 0,
            "completed": 0,
            "shed": 0,
            "decisions": 0,
            "busy_s": 0.0,
        }
    )
    for event in events:
        bucket = shards[event.shard_id]
        if event.kind == "decision":
            bucket["decisions"] += 1
        elif event.name == "serving/admit":
            bucket["admitted"] += 1
        elif event.name == COMPLETION_EVENT:
            bucket["completed"] += 1
        elif event.name == SHED_EVENT:
            bucket["shed"] += 1
        if event.kind == "span" and event.name == "serving/service":
            bucket["busy_s"] += event.duration_s
    return dict(sorted(shards.items()))


def burn_rate_series(
    events: Iterable[SpanEvent],
    target_ms: float,
    bucket_s: float = 1.0,
    key: str = "stream",
) -> dict[int, list[tuple[float, float, int]]]:
    """SLO burn-rate buckets keyed by stream or shard.

    For every completion event, the frame either met or burned the latency
    target; per ``bucket_s`` time bucket this returns
    ``(bucket_start_s, burn_rate, completions)`` where ``burn_rate`` is the
    fraction of completions over ``target_ms``.  This is the error series an
    SLO controller integrates — per stream for fairness decisions, per shard
    for capacity decisions.
    """
    if key not in ("stream", "shard"):
        raise ValueError(f"key must be 'stream' or 'shard', got {key!r}")
    if bucket_s <= 0:
        raise ValueError(f"bucket_s must be positive, got {bucket_s}")
    counts: dict[int, dict[int, list[int]]] = defaultdict(dict)
    for event in events:
        if event.name != COMPLETION_EVENT:
            continue
        latency_ms = event.attrs.get("latency_ms")
        if latency_ms is None:
            continue
        entity = event.stream_id if key == "stream" else event.shard_id
        bucket_index = int(event.start_s // bucket_s)
        bucket = counts[entity].setdefault(bucket_index, [0, 0])
        bucket[0] += 1
        if float(latency_ms) > target_ms:
            bucket[1] += 1
    series: dict[int, list[tuple[float, float, int]]] = {}
    for entity, buckets in counts.items():
        series[entity] = [
            (index * bucket_s, burned / total, total)
            for index, (total, burned) in sorted(buckets.items())
        ]
    return dict(sorted(series.items()))
