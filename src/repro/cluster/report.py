"""Typed result of a cluster scenario run.

One :class:`ClusterReport` tells the whole story of a run, whichever backend
produced it: per-shard and aggregate latency percentiles (aggregates are
computed over the *merged* latency samples of every shard, not averaged
percentiles — averaging percentiles is wrong and flatters the tail), shed
accounting split by cause, router admission counters, and the control plane's
scale-degradation timeline.  ``to_dict()`` is strict-JSON-clean (no NaN/Inf),
so reports embed directly in ``BENCH_*.json`` artefacts and CI logs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.cluster.governor import GovernorAction
from repro.evaluation.reporting import format_float, format_table
from repro.evaluation.runtime import RuntimeStats
from repro.observability.trace import SpanEvent
from repro.serving.metrics import TelemetrySnapshot

__all__ = ["ShardReport", "ClusterReport"]


def _clean(value: float) -> float:
    """NaN/Inf → 0.0 so reports serialize as strict JSON."""
    value = float(value)
    return value if value == value and abs(value) != float("inf") else 0.0


@dataclass(frozen=True)
class ShardReport:
    """One shard's outcome."""

    shard_id: int
    completed: int
    shed: int
    submitted: int
    p50_ms: float
    p95_ms: float
    p99_ms: float
    throughput_fps: float
    mean_batch: float
    mean_queue_depth: float
    max_queue_depth: int
    final_scale_cap: int  # 0 = uncapped (full quality)
    #: frames abandoned on this shard because their stream was re-homed
    #: (process mode: crash/drain migration)
    migrated: int = 0

    @classmethod
    def from_snapshot(
        cls,
        shard_id: int,
        snapshot: TelemetrySnapshot,
        final_scale_cap: int | None,
    ) -> "ShardReport":
        """Build from a shard's :class:`TelemetrySnapshot` (zero-traffic safe)."""
        empty = snapshot.latency.count == 0
        return cls(
            shard_id=shard_id,
            completed=int(snapshot.completed),
            shed=int(snapshot.shed),
            submitted=int(snapshot.submitted),
            p50_ms=0.0 if empty else _clean(snapshot.latency.p50_ms),
            p95_ms=0.0 if empty else _clean(snapshot.latency.p95_ms),
            p99_ms=0.0 if empty else _clean(snapshot.latency.p99_ms),
            throughput_fps=_clean(snapshot.throughput_fps),
            mean_batch=_clean(snapshot.mean_batch_size),
            mean_queue_depth=_clean(snapshot.mean_queue_depth),
            max_queue_depth=int(snapshot.max_queue_depth),
            final_scale_cap=int(final_scale_cap) if final_scale_cap is not None else 0,
            migrated=int(snapshot.migrated),
        )


@dataclass(frozen=True)
class ClusterReport:
    """Typed result of one cluster scenario run."""

    scenario: str
    mode: str  # "simulate" | "process"
    num_shards: int
    shards: tuple[ShardReport, ...]
    completed: int
    shed: int
    submitted: int
    shed_rate: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    throughput_fps: float
    duration_s: float
    streams_opened: int
    streams_rejected: int
    frames_unrouted: int
    #: shed frames keyed by cause — ``migrated`` vs ``dropped`` is the
    #: resilience distinction: a migrated frame's stream continued elsewhere
    shed_by_cause: dict = field(default_factory=dict)
    #: process-mode resilience counters (zero in simulate runs)
    streams_migrated: int = 0
    streams_stranded: int = 0
    crashes: int = 0
    respawns: int = 0
    #: child span events shed at the process boundary (export buffer full);
    #: zero means the merged trace is complete
    span_drops: int = 0
    timeline: tuple[GovernorAction, ...] = ()
    #: Telemetry span/instant events captured when the run was traced
    #: (attached by the api facade via ``dataclasses.replace``); empty when
    #: telemetry was off.
    trace_events: tuple[SpanEvent, ...] = ()

    @classmethod
    def build(
        cls,
        scenario: str,
        mode: str,
        snapshots: dict[int, TelemetrySnapshot],
        scale_caps: dict[int, int | None],
        streams_opened: int,
        streams_rejected: int,
        frames_unrouted: int,
        timeline: tuple[GovernorAction, ...] = (),
        streams_migrated: int = 0,
        streams_stranded: int = 0,
        crashes: int = 0,
        respawns: int = 0,
        span_drops: int = 0,
    ) -> "ClusterReport":
        """Aggregate shard snapshots into the cluster-level view."""
        shed_by_cause: dict[str, int] = {}
        for snapshot in snapshots.values():
            for cause, count in snapshot.shed_by_cause.items():
                shed_by_cause[cause] = shed_by_cause.get(cause, 0) + int(count)
        if frames_unrouted:
            shed_by_cause["unrouted"] = int(frames_unrouted)
        shards = tuple(
            ShardReport.from_snapshot(shard_id, snapshots[shard_id], scale_caps.get(shard_id))
            for shard_id in sorted(snapshots)
        )
        merged = RuntimeStats(name="cluster")
        for snapshot in snapshots.values():
            merged.samples_s.extend(snapshot.latency.samples_s)
        completed = sum(shard.completed for shard in shards)
        shed = sum(shard.shed for shard in shards) + frames_unrouted
        submitted = sum(shard.submitted for shard in shards) + frames_unrouted
        # The cluster served frames over the union of its shards' activity
        # windows; with concurrent shards that is max(wall), not sum(wall).
        duration = max((snap.wall_s for snap in snapshots.values()), default=0.0)
        duration = _clean(duration)
        empty = merged.count == 0
        return cls(
            scenario=scenario,
            mode=mode,
            num_shards=len(shards),
            shards=shards,
            completed=completed,
            shed=shed,
            submitted=submitted,
            shed_rate=shed / submitted if submitted else 0.0,
            p50_ms=0.0 if empty else _clean(merged.p50_ms),
            p95_ms=0.0 if empty else _clean(merged.p95_ms),
            p99_ms=0.0 if empty else _clean(merged.p99_ms),
            throughput_fps=completed / duration if duration > 0 else 0.0,
            duration_s=duration,
            streams_opened=streams_opened,
            streams_rejected=streams_rejected,
            frames_unrouted=frames_unrouted,
            shed_by_cause=shed_by_cause,
            streams_migrated=int(streams_migrated),
            streams_stranded=int(streams_stranded),
            crashes=int(crashes),
            respawns=int(respawns),
            span_drops=int(span_drops),
            timeline=timeline,
        )

    # -- serialization ---------------------------------------------------------
    def to_dict(self) -> dict:
        """Strict-JSON-clean nested dict (for ``BENCH_*.json`` embedding)."""
        return {
            "scenario": self.scenario,
            "mode": self.mode,
            "num_shards": self.num_shards,
            "completed": self.completed,
            "shed": self.shed,
            "submitted": self.submitted,
            "shed_rate": _clean(self.shed_rate),
            "p50_ms": _clean(self.p50_ms),
            "p95_ms": _clean(self.p95_ms),
            "p99_ms": _clean(self.p99_ms),
            "throughput_fps": _clean(self.throughput_fps),
            "duration_s": _clean(self.duration_s),
            "streams_opened": self.streams_opened,
            "streams_rejected": self.streams_rejected,
            "frames_unrouted": self.frames_unrouted,
            "shed_by_cause": {key: int(value) for key, value in self.shed_by_cause.items()},
            "streams_migrated": self.streams_migrated,
            "streams_stranded": self.streams_stranded,
            "crashes": self.crashes,
            "respawns": self.respawns,
            "span_drops": self.span_drops,
            "shards": [
                {key: _clean(value) if isinstance(value, float) else value
                 for key, value in asdict(shard).items()}
                for shard in self.shards
            ],
            "timeline": [asdict(action) for action in self.timeline],
            "trace_event_count": len(self.trace_events),
        }

    # -- rendering --------------------------------------------------------------
    def format(self, title: str | None = None) -> str:
        """Human-readable report: aggregate, per-shard table, timeline."""
        title = title if title is not None else (
            f"Cluster report — {self.scenario} ({self.mode}, {self.num_shards} shards)"
        )
        aggregate_rows = [
            ["streams opened / rejected", f"{self.streams_opened} / {self.streams_rejected}"],
            ["frames submitted", str(self.submitted)],
            ["frames completed", str(self.completed)],
            ["frames shed", f"{self.shed} ({100.0 * self.shed_rate:.1f}%)"],
            ["aggregate throughput (fps)", format_float(self.throughput_fps, 1)],
            ["p50 / p95 / p99 (ms)",
             f"{format_float(self.p50_ms)} / {format_float(self.p95_ms)} / "
             f"{format_float(self.p99_ms)}"],
            ["duration (s)", format_float(self.duration_s, 2)],
        ]
        if self.shed_by_cause:
            causes = ", ".join(
                f"{cause}={count}"
                for cause, count in sorted(self.shed_by_cause.items())
                if count
            )
            aggregate_rows.append(["shed by cause", causes or "none"])
        if self.crashes or self.respawns or self.streams_migrated or self.streams_stranded:
            aggregate_rows.append(
                ["crashes / respawns", f"{self.crashes} / {self.respawns}"]
            )
            aggregate_rows.append(
                [
                    "streams migrated / stranded",
                    f"{self.streams_migrated} / {self.streams_stranded}",
                ]
            )
        if self.span_drops:
            aggregate_rows.append(["trace spans dropped", str(self.span_drops)])
        shard_rows = [
            [
                str(shard.shard_id),
                str(shard.completed),
                str(shard.shed),
                format_float(shard.throughput_fps, 1),
                format_float(shard.p50_ms),
                format_float(shard.p95_ms),
                format_float(shard.p99_ms),
                format_float(shard.mean_batch, 2),
                format_float(shard.mean_queue_depth, 1),
                str(shard.final_scale_cap) if shard.final_scale_cap else "full",
            ]
            for shard in self.shards
        ]
        sections = [
            format_table(["Aggregate", "Value"], aggregate_rows, title=title),
            format_table(
                [
                    "Shard", "Served", "Shed", "FPS", "p50 (ms)", "p95 (ms)",
                    "p99 (ms)", "Batch", "Depth", "Scale cap",
                ],
                shard_rows,
                title="Per-shard telemetry",
            ),
        ]
        if self.timeline:
            lines = [action.format() for action in self.timeline]
            sections.append(
                "Scale-degradation timeline:\n" + "\n".join(f"  {line}" for line in lines)
            )
        return "\n\n".join(sections)
