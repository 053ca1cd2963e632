"""Frame-level tracing: trace contexts, typed span events, and the tracer.

A :class:`TraceContext` is minted once per admitted frame (server ``submit``
for in-process serving, shard ``admit`` for the virtual-time cluster engine)
and rides on the :class:`~repro.serving.request.FrameRequest` through
scheduler → micro-batch → worker → session, so every stage can attach spans
to the same trace without any global correlation state.

The activation discipline mirrors :class:`repro.profiling.StageProfiler`:
one module-level ``_ACTIVE`` tracer read *without locking* on the hot path,
so the disabled path costs a single global load and an ``is None`` check.
Instrumentation sites therefore follow the pattern::

    tracer = active_tracer()
    if tracer is not None and request.trace is not None:
        tracer.emit_span("serving/queue_wait", request.trace, start_s, dur_s)

Timestamps are caller-suppliable on every emission API because the cluster's
simulated shards run on *virtual* time — their spans carry simulation
seconds, while the real serving path anchors spans on ``time.monotonic()``
(the scheduler's clock) and measures durations with ``time.perf_counter()``.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping, NamedTuple, TYPE_CHECKING

from repro.config import TelemetryConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.governor import GovernorAction

__all__ = [
    "SpanEvent",
    "TraceContext",
    "Tracer",
    "active_tracer",
]

#: The currently-activated tracer.  Read without locking on the hot path —
#: instrumentation must stay free when tracing is off (same rule as the
#: profiler's ``_ACTIVE``).
_ACTIVE: "Tracer | None" = None
_ACTIVATION_LOCK = threading.Lock()


def active_tracer() -> "Tracer | None":
    """The tracer currently activated via ``with Tracer(...):`` (or None)."""
    return _ACTIVE


@dataclass(frozen=True)
class TraceContext:
    """Identity of one frame's trace, threaded through the serving stack.

    ``span_id`` is the root (admission) span; every span the tracer emits for
    this frame gets a fresh span id with this root as its parent.
    """

    trace_id: int
    span_id: int
    parent_id: int | None = None
    stream_id: int = -1
    frame_index: int = -1
    shard_id: int = -1


class _NoAttrs(Mapping[str, Any]):
    """The empty ``attrs`` default: immutable, so every event may share it."""

    def __getitem__(self, key: str) -> Any:
        raise KeyError(key)

    def __iter__(self) -> Iterator[str]:
        return iter(())

    def __len__(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "{}"


class SpanEvent(NamedTuple):
    """One typed telemetry event (immutable).

    ``kind`` is ``"span"`` (has a duration), ``"instant"`` (a point event on
    a frame's trace), or ``"decision"`` (a control-plane action — governor /
    autoscaler — that is not tied to a single frame; its trace_id is 0).

    A named tuple rather than a frozen dataclass: a fleet frame builds about
    ten of these in the child and ten more in the parent's merge, and a
    tuple is built about 3x faster than a frozen dataclass.
    """

    name: str
    kind: str
    trace_id: int
    span_id: int
    parent_id: int | None
    start_s: float
    duration_s: float
    stream_id: int = -1
    frame_index: int = -1
    shard_id: int = -1
    attrs: Mapping[str, Any] = _NoAttrs()

    def to_dict(self) -> dict[str, Any]:
        """Strict-JSON form (what the JSONL sink writes, one event per line)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": float(self.start_s),
            "duration_s": float(self.duration_s),
            "stream_id": self.stream_id,
            "frame_index": self.frame_index,
            "shard_id": self.shard_id,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SpanEvent":
        """Rebuild an event from :meth:`to_dict` output (JSONL loading)."""
        return cls(
            name=str(data["name"]),
            kind=str(data["kind"]),
            trace_id=int(data["trace_id"]),
            span_id=int(data["span_id"]),
            parent_id=None if data.get("parent_id") is None else int(data["parent_id"]),
            start_s=float(data["start_s"]),
            duration_s=float(data["duration_s"]),
            stream_id=int(data.get("stream_id", -1)),
            frame_index=int(data.get("frame_index", -1)),
            shard_id=int(data.get("shard_id", -1)),
            attrs=dict(data.get("attrs", {})),
        )


#: Knuth's multiplicative hash constant — spreads sequential trace ids
#: uniformly over [0, 2^32) so ``sample_rate`` keeps an unbiased fraction.
_HASH_MULTIPLIER = 2654435761
_HASH_SPACE = float(1 << 32)


class Tracer:
    """Collects :class:`SpanEvent` records from the serving/cluster stack.

    Use as a context manager, like the profiler::

        with Tracer(TelemetryConfig(enabled=True)) as tracer:
            server.submit(...)
        events = tracer.events()

    A tracer built from a config with ``enabled=False`` activates as a no-op:
    ``__enter__`` leaves the module-level ``_ACTIVE`` untouched, so every
    instrumentation site still sees ``active_tracer() is None``.
    """

    def __init__(
        self,
        config: TelemetryConfig | None = None,
        clock=time.monotonic,
        **overrides: object,
    ) -> None:
        base = config if config is not None else TelemetryConfig(enabled=True)
        self.config = base.with_(**overrides) if overrides else base
        self.config.validate()
        self.clock = clock
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)
        # Sinks come from the registry so declarative code can list them.
        from repro.observability.sinks import build_sinks

        self._ring, self._sinks = build_sinks(self.config)

    # -- activation ---------------------------------------------------------
    def __enter__(self) -> "Tracer":
        global _ACTIVE
        if not self.config.enabled:
            return self
        with _ACTIVATION_LOCK:
            if _ACTIVE is not None:
                raise RuntimeError("another Tracer is already active")
            _ACTIVE = self
        return self

    def __exit__(self, *exc_info: object) -> None:
        global _ACTIVE
        with _ACTIVATION_LOCK:
            if _ACTIVE is self:
                _ACTIVE = None
        for sink in self._sinks:
            sink.close()

    # -- trace creation -----------------------------------------------------
    def begin_trace(
        self,
        stream_id: int,
        frame_index: int,
        shard_id: int = -1,
        now: float | None = None,
    ) -> TraceContext | None:
        """Mint a frame's trace context at admission (or None if sampled out).

        Sampling hashes the sequential trace id, so it is deterministic for a
        given admission order and keeps an unbiased ``sample_rate`` fraction.
        Emits the root ``serving/admit`` instant for sampled frames.
        """
        trace_id = next(self._trace_ids)
        rate = self.config.sample_rate
        if rate <= 0.0:
            return None
        if rate < 1.0:
            bucket = ((trace_id * _HASH_MULTIPLIER) & 0xFFFFFFFF) / _HASH_SPACE
            if bucket >= rate:
                return None
        context = TraceContext(
            trace_id=trace_id,
            span_id=next(self._span_ids),
            parent_id=None,
            stream_id=stream_id,
            frame_index=frame_index,
            shard_id=shard_id,
        )
        self._emit(
            SpanEvent(
                name="serving/admit",
                kind="instant",
                trace_id=context.trace_id,
                span_id=context.span_id,
                parent_id=None,
                start_s=self.clock() if now is None else now,
                duration_s=0.0,
                stream_id=stream_id,
                frame_index=frame_index,
                shard_id=shard_id,
            )
        )
        return context

    # -- emission -----------------------------------------------------------
    def emit_span(
        self,
        name: str,
        context: TraceContext,
        start_s: float,
        duration_s: float,
        **attrs: Any,
    ) -> None:
        """Record a duration span under ``context`` with explicit times."""
        self._emit(
            SpanEvent(
                name=name,
                kind="span",
                trace_id=context.trace_id,
                span_id=next(self._span_ids),
                parent_id=context.span_id,
                start_s=start_s,
                duration_s=max(float(duration_s), 0.0),
                stream_id=context.stream_id,
                frame_index=context.frame_index,
                shard_id=context.shard_id,
                attrs=attrs,
            )
        )

    def emit_batch_span(
        self,
        name: str,
        contexts: Iterable[TraceContext],
        start_s: float,
        duration_s: float,
        **attrs: Any,
    ) -> None:
        """Record the same stage span under every traced frame of a batch."""
        for context in contexts:
            self.emit_span(name, context, start_s, duration_s, **attrs)

    def instant(
        self,
        name: str,
        context: TraceContext,
        now: float | None = None,
        **attrs: Any,
    ) -> None:
        """Record a point event on a frame's trace (completion, shed, ...)."""
        self._emit(
            SpanEvent(
                name=name,
                kind="instant",
                trace_id=context.trace_id,
                span_id=next(self._span_ids),
                parent_id=context.span_id,
                start_s=self.clock() if now is None else now,
                duration_s=0.0,
                stream_id=context.stream_id,
                frame_index=context.frame_index,
                shard_id=context.shard_id,
                attrs=attrs,
            )
        )

    def span(
        self,
        name: str,
        start_s: float,
        duration_s: float,
        *,
        trace_id: int = 0,
        stream_id: int = -1,
        frame_index: int = -1,
        shard_id: int = -1,
        **attrs: Any,
    ) -> None:
        """Record a duration span not tied to a frame's trace context.

        Control-plane work — the supervisor's crash→migrate→respawn window,
        the controller's run envelope — has real durations but no admitted
        frame to hang them on; these spans share ``trace_id`` 0 with decision
        events unless the caller supplies one.
        """
        self._emit(
            SpanEvent(
                name=name,
                kind="span",
                trace_id=trace_id,
                span_id=next(self._span_ids),
                parent_id=None,
                start_s=float(start_s),
                duration_s=max(float(duration_s), 0.0),
                stream_id=stream_id,
                frame_index=frame_index,
                shard_id=shard_id,
                attrs=attrs,
            )
        )

    def decision(self, action: "GovernorAction") -> None:
        """Record a control-plane decision (governor/autoscaler action).

        The action's own fields — cause, inputs, old → new value — become the
        event attrs, so an exported trace explains *why* a cap moved, not just
        that it did.
        """
        self._emit(
            SpanEvent(
                name=f"cluster/{action.action}",
                kind="decision",
                trace_id=0,
                span_id=next(self._span_ids),
                parent_id=None,
                start_s=float(action.time_s),
                duration_s=0.0,
                shard_id=action.shard_id,
                attrs={
                    "knob": action.knob,
                    "old": action.old,
                    "new": action.new,
                    "p95_ms": float(action.p95_ms),
                    "queue_depth": int(action.queue_depth),
                    "reason": action.reason,
                },
            )
        )

    def ingest(self, event: SpanEvent) -> None:
        """Feed an already-built event into this tracer's sinks verbatim.

        The cross-process merge path: a parent-side
        :class:`~repro.cluster.procpool.ProcessReplica` rebases a child
        replica's shipped events (clock offset, id namespace) and ingests
        them here, so ``events()`` / the JSONL log / every exporter see one
        fleet-wide timeline.  No sampling or gating is applied — the side
        that *produced* the event already applied its own config.
        """
        self._emit(event)

    def add_sink(self, sink) -> None:
        """Attach an extra sink (e.g. a process-boundary export buffer)."""
        self._sinks.append(sink)

    def _emit(self, event: SpanEvent) -> None:
        for sink in self._sinks:
            sink.emit(event)

    # -- reading ------------------------------------------------------------
    def events(self) -> tuple[SpanEvent, ...]:
        """Snapshot of the ring buffer (oldest surviving event first)."""
        return self._ring.events()
