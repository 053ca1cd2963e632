"""Deterministic virtual-time execution of cluster scenarios.

Real wall-clock scaling experiments need as many cores as shards; a CI runner
(or this container) has one.  The simulation engine solves that honestly: the
*costs* are real — a :class:`~repro.cluster.service_model.ServiceModel`
calibrated by timing the actual detector at every AdaScale scale — while
queueing, routing, batching, feedback control and time itself are evaluated
in an exact discrete-event loop.  Everything downstream of the calibration is
bit-reproducible: same trace + same model + same seeds ⇒ the same report, on
any machine.

:class:`SimulatedShard` models one replica exactly the way
:class:`~repro.serving.InferenceServer` behaves: a bounded queue with the
same backpressure policies (``block`` admits losslessly — open-loop traces
cannot be stalled, so blocking manifests as queue growth, which is what a
blocked upstream looks like from inside), per-stream one-in-flight ordering,
scale-bucketed micro-batches capped by ``max_batch_size``, deadline shedding,
and a :class:`~repro.serving.metrics.ServerMetrics` driven by the virtual
clock — so shard telemetry comes out of the *same* accumulation code the real
server uses.

Per-stream scale dynamics are a seeded random walk over the AdaScale ladder
(the content-driven signal the regressor would produce), clamped by the
shard's control-plane ``scale_cap`` — which is how the governor's quality
degradation genuinely buys capacity here: smaller scale, smaller measured
service time.

:class:`ClusterSimulation` runs the event loop: trace events, batch
completions, governor and autoscaler ticks, shard add/drain.  It shares the
:class:`~repro.cluster.router.Router` and the governor/autoscaler *instances*
with the process-shard path — the control plane cannot tell which world it is
steering.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.config import ClusterConfig
from repro.cluster.governor import Autoscaler, GovernorAction, ScaleGovernor
from repro.cluster.router import Router
from repro.cluster.scenarios import WorkloadTrace
from repro.cluster.service_model import ServiceModel
from repro.config import ServingConfig
from repro.observability.trace import active_tracer
from repro.serving.metrics import ServerMetrics

if TYPE_CHECKING:
    from repro.observability.trace import TraceContext

__all__ = ["SimulatedShard", "ClusterSimulation"]


@dataclass
class _SimFrame:
    """One queued frame inside a simulated shard."""

    stream_id: int
    frame_index: int
    arrival_s: float
    deadline_s: float | None
    scale: int
    trace: "TraceContext | None" = None


class _ScaleWalk:
    """Seeded random walk over the AdaScale ladder — one stream's content signal."""

    def __init__(self, ladder: tuple[int, ...], seed: int) -> None:
        self._ladder = ladder
        self._rng = np.random.default_rng(seed)
        self._index = 0  # streams open at full scale, like real sessions

    def next_scale(self) -> int:
        step = self._rng.choice((-1, 0, 0, 1))  # sticky walk, mildly mobile
        self._index = int(np.clip(self._index + step, 0, len(self._ladder) - 1))
        return self._ladder[self._index]


class SimulatedShard:
    """One replica in virtual time, telemetry-compatible with the real server."""

    def __init__(
        self,
        shard_id: int,
        serving: ServingConfig,
        model: ServiceModel,
        ladder: tuple[int, ...],
        clock,
        seed: int = 0,
    ) -> None:
        serving.validate()
        model.validate()
        self.shard_id = shard_id
        self.serving = serving
        self.model = model
        self.ladder = tuple(int(s) for s in ladder)
        self._clock = clock
        self._seed = seed
        self.metrics = ServerMetrics(clock=clock)
        self._queue: deque[_SimFrame] = deque()
        self._busy_streams: set[int] = set()
        self._idle_workers = serving.num_workers
        self._walks: dict[int, _ScaleWalk] = {}
        self.accepting = True
        self.scale_cap: int | None = None
        self.max_batch_size = serving.max_batch_size
        self.baseline_batch_size = serving.max_batch_size

    # -- control-plane view ---------------------------------------------------
    @property
    def active_streams(self) -> int:
        """Streams currently open on this shard."""
        return len(self._walks)

    @property
    def queue_depth(self) -> int:
        """Frames admitted but not yet dispatched."""
        return len(self._queue)

    @property
    def occupancy(self) -> float:
        """Offered work per unit of worker capacity (>1 ⇒ queue building)."""
        busy = self.serving.num_workers - self._idle_workers
        return (busy + len(self._queue)) / self.serving.num_workers

    def recent_latency(self, window: int):
        """Rolling latency view (same code path as the real server's)."""
        return self.metrics.recent_latency(window)

    def set_scale_cap(self, scale_cap: int | None) -> None:
        """Clamp every stream's scale to at most ``scale_cap`` (None = uncapped)."""
        self.scale_cap = int(scale_cap) if scale_cap is not None else None

    def set_max_batch_size(self, max_batch_size: int) -> None:
        """Adjust the micro-batch bound for batches formed from now on."""
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        self.max_batch_size = int(max_batch_size)

    # -- stream lifecycle ------------------------------------------------------
    def open_stream(self, stream_id: int) -> None:
        """Register a stream (its scale walk is seeded deterministically)."""
        self._walks[stream_id] = _ScaleWalk(self.ladder, seed=(self._seed, stream_id))

    def close_stream(self, stream_id: int) -> None:
        """Deregister a closed stream (queued frames still drain normally)."""
        self._walks.pop(stream_id, None)

    # -- admission -------------------------------------------------------------
    def admit(self, stream_id: int, frame_index: int, now: float) -> bool:
        """Apply the serving backpressure policy; returns False when refused.

        ``block`` admits losslessly (an open-loop trace cannot be paused, so
        the pressure shows up as queue depth — exactly what a blocked
        submitter produces); ``drop-oldest`` shed the stalest queued frame;
        ``reject`` refuses the newcomer at capacity.
        """
        self.metrics.on_submitted()
        walk = self._walks.get(stream_id)
        if walk is None:  # frame for a stream this shard never opened
            self.metrics.on_shed("rejected")
            return False
        scale = self._effective_scale(walk.next_scale())
        tracer = active_tracer()
        trace = (
            tracer.begin_trace(
                stream_id=stream_id,
                frame_index=frame_index,
                shard_id=self.shard_id,
                now=now,
            )
            if tracer is not None
            else None
        )
        policy = self.serving.backpressure
        if policy != "block" and len(self._queue) >= self.serving.queue_capacity:
            if policy == "drop-oldest":
                victim = self._queue.popleft()  # victims are queued, never in flight
                self.metrics.on_shed("dropped")
                if tracer is not None and victim.trace is not None:
                    tracer.instant(
                        "serving/shed", victim.trace, now=now, status="dropped"
                    )
            else:  # reject (and any custom policy degrades to reject here)
                self.metrics.on_shed("rejected")
                if tracer is not None and trace is not None:
                    tracer.instant("serving/shed", trace, now=now, status="rejected")
                return False
        deadline = (
            now + self.serving.deadline_ms / 1000.0
            if self.serving.deadline_ms is not None
            else None
        )
        self._queue.append(
            _SimFrame(
                stream_id=stream_id,
                frame_index=frame_index,
                arrival_s=now,
                deadline_s=deadline,
                scale=scale,
                trace=trace,
            )
        )
        self.metrics.observe_queue_depth(len(self._queue))
        return True

    # -- dispatch ---------------------------------------------------------------
    def start_batches(self, now: float) -> list[tuple[float, list[_SimFrame]]]:
        """Pull ready micro-batches onto idle workers; returns (finish, batch).

        Mirrors the real scheduler: expire overdue frames, bucket by the
        frame's resolved scale (head-of-line frame picks the bucket), honour
        per-stream one-in-flight ordering, cap at ``max_batch_size``.
        """
        started: list[tuple[float, list[_SimFrame]]] = []
        self._expire_overdue(now)
        tracer = active_tracer()
        while self._idle_workers > 0:
            batch = self._form_batch()
            if not batch:
                break
            self._idle_workers -= 1
            for frame in batch:
                self._busy_streams.add(frame.stream_id)
            self.metrics.observe_batch(len(batch))
            self.metrics.observe_queue_depth(len(self._queue))
            if tracer is not None:
                contexts = [frame.trace for frame in batch if frame.trace is not None]
                if contexts:
                    arrived = max(frame.arrival_s for frame in batch)
                    tracer.emit_batch_span(
                        "serving/batch_assembly",
                        contexts,
                        start_s=arrived,
                        duration_s=max(now - arrived, 0.0),
                        batch_size=len(batch),
                    )
            service_s = self.model.batch_time_s(batch[0].scale, len(batch))
            started.append((now + service_s, batch))
        return started

    def finish_batch(self, batch: list[_SimFrame], now: float) -> None:
        """Record completions and free the worker and the batch's streams."""
        self._idle_workers += 1
        # One scale per batch (the bucket invariant): compute the amortised
        # per-frame share once, not once per frame.
        batch_s = self.model.batch_time_s(batch[0].scale, len(batch))
        service_s = batch_s / len(batch)
        dispatch_s = now - batch_s
        tracer = active_tracer()
        for frame in batch:
            self._busy_streams.discard(frame.stream_id)
            latency_s = now - frame.arrival_s
            self.metrics.on_completed(
                stream_id=frame.stream_id,
                queue_wait_s=max(latency_s - service_s, 0.0),
                service_s=service_s,
                latency_s=latency_s,
            )
            if tracer is not None and frame.trace is not None:
                tracer.emit_span(
                    "serving/queue_wait",
                    frame.trace,
                    start_s=frame.arrival_s,
                    duration_s=max(dispatch_s - frame.arrival_s, 0.0),
                )
                tracer.emit_span(
                    "serving/service",
                    frame.trace,
                    start_s=dispatch_s,
                    duration_s=batch_s,
                    service_s=service_s,
                )
                tracer.instant(
                    "serving/complete_frame",
                    frame.trace,
                    now=now,
                    latency_ms=1000.0 * latency_s,
                    scale_used=frame.scale,
                )

    @property
    def idle(self) -> bool:
        """True when nothing is queued or in flight."""
        return not self._queue and self._idle_workers == self.serving.num_workers

    # -- internals ---------------------------------------------------------------
    def _effective_scale(self, intrinsic: int) -> int:
        if self.scale_cap is None:
            return intrinsic
        return min(intrinsic, max(self.scale_cap, min(self.ladder)))

    def _form_batch(self) -> list[_SimFrame]:
        # Single pass that partitions the queue into the batch and the
        # survivors (rebuilt once) — per-frame deque.remove() would make
        # dispatch quadratic in exactly the deep-backlog scenarios the
        # scaling and slo_surge traces create on purpose.  ``seen`` marks
        # every stream encountered this pass, batched or not: only a stream's
        # *oldest* queued frame is ever batch-eligible, preserving the
        # per-stream temporal ordering the real scheduler guarantees (a later
        # frame must never overtake an earlier one left behind by a scale
        # mismatch).
        bucket_scale: int | None = None
        batch: list[_SimFrame] = []
        kept: deque[_SimFrame] = deque()
        seen: set[int] = set()
        for frame in self._queue:
            if (
                len(batch) < self.max_batch_size
                and frame.stream_id not in self._busy_streams
                and frame.stream_id not in seen
            ):
                scale = self._effective_scale(frame.scale)
                if bucket_scale is None:
                    bucket_scale = scale
                if scale == bucket_scale:
                    frame.scale = scale  # the cap in force at dispatch executes
                    batch.append(frame)
                    seen.add(frame.stream_id)
                    continue
            seen.add(frame.stream_id)
            kept.append(frame)
        self._queue = kept
        return batch

    def _expire_overdue(self, now: float) -> None:
        if self.serving.deadline_ms is None:
            return
        tracer = active_tracer()
        kept = deque()
        for frame in self._queue:
            if frame.deadline_s is not None and frame.deadline_s < now:
                self.metrics.on_shed("expired")
                if tracer is not None and frame.trace is not None:
                    tracer.instant(
                        "serving/shed", frame.trace, now=now, status="expired"
                    )
            else:
                kept.append(frame)
        self._queue = kept


#: Event-kind dispatch order at equal timestamps: finish work before admitting
#: more, and admit before control decisions read the state.
_FINISH, _TRACE, _GOVERNOR, _AUTOSCALER = 0, 1, 2, 3


class ClusterSimulation:
    """Discrete-event loop driving shards, router, governor and autoscaler."""

    def __init__(
        self,
        cluster: ClusterConfig,
        serving: ServingConfig,
        model: ServiceModel,
        ladder: tuple[int, ...],
        governor: ScaleGovernor | None = None,
        autoscaler: Autoscaler | None = None,
        seed: int = 0,
    ) -> None:
        cluster.validate()
        self.cluster = cluster
        self.serving = serving
        self.model = model
        self.ladder = tuple(int(s) for s in ladder)
        self.router = Router(cluster.router)
        self.governor = governor
        self.autoscaler = autoscaler
        self.seed = seed
        self.now = 0.0
        self.shards: list[SimulatedShard] = []
        self.timeline: list[GovernorAction] = []
        self._next_shard_id = 0
        self._events: list = []
        self._seq = itertools.count()
        self._outstanding_batches = 0
        self._pending_trace_events = 0
        for _ in range(cluster.num_shards):
            self._add_shard()

    # -- shard fleet -----------------------------------------------------------
    def _add_shard(self) -> SimulatedShard:
        shard = SimulatedShard(
            shard_id=self._next_shard_id,
            serving=self.serving,
            model=self.model,
            ladder=self.ladder,
            clock=lambda: self.now,
            seed=self.seed + 1000 * self._next_shard_id,
        )
        self._next_shard_id += 1
        self.shards.append(shard)
        return shard

    @property
    def live_shards(self) -> list[SimulatedShard]:
        """Shards accepting new streams."""
        return [shard for shard in self.shards if shard.accepting]

    # -- run --------------------------------------------------------------------
    def run(self, trace: WorkloadTrace) -> None:
        """Replay ``trace`` to completion (all admitted frames served or shed)."""
        self._events = []
        for event in trace:
            self._push(event.time_s, _TRACE, event)
        self._pending_trace_events = len(trace)
        if self.governor is not None and self.cluster.governor.enabled:
            self._push(self.cluster.governor.interval_s, _GOVERNOR, None)
        if self.autoscaler is not None and self.cluster.autoscaler.enabled:
            self._push(self.cluster.autoscaler.interval_s, _AUTOSCALER, None)

        while self._events:
            time_s, kind, _, payload = heapq.heappop(self._events)
            self.now = max(self.now, time_s)
            if kind == _TRACE:
                self._pending_trace_events -= 1
                self._handle_trace(payload)
            elif kind == _FINISH:
                shard, batch = payload
                self._outstanding_batches -= 1
                shard.finish_batch(batch, self.now)
                self._start_work(shard)
            elif kind == _GOVERNOR:
                actions = self.governor.step(self.shards, self.now)
                self.timeline.extend(actions)
                # Capped streams may have become batchable; poke the shards.
                for shard in self.shards:
                    self._start_work(shard)
                if self._work_remains():
                    self._push(self.now + self.cluster.governor.interval_s, _GOVERNOR, None)
            elif kind == _AUTOSCALER:
                self._autoscale_step()
                if self._work_remains():
                    self._push(
                        self.now + self.cluster.autoscaler.interval_s, _AUTOSCALER, None
                    )

    # -- event handlers ----------------------------------------------------------
    def _push(self, time_s: float, kind: int, payload) -> None:
        heapq.heappush(self._events, (time_s, kind, next(self._seq), payload))

    def _work_remains(self) -> bool:
        if self._outstanding_batches > 0 or self._pending_trace_events > 0:
            return True
        return any(not shard.idle for shard in self.shards)

    def _handle_trace(self, event) -> None:
        if event.kind == "open":
            shard = self.router.assign(event.stream_id, self.shards)
            if shard is not None:
                shard.open_stream(event.stream_id)
        elif event.kind == "frame":
            shard = self.router.lookup(event.stream_id)
            if shard is not None:
                if shard.admit(event.stream_id, event.frame_index, self.now):
                    self._start_work(shard)
        elif event.kind == "close":
            shard = self.router.release(event.stream_id)
            if shard is not None:
                shard.close_stream(event.stream_id)

    def _start_work(self, shard: SimulatedShard) -> None:
        for finish_s, batch in shard.start_batches(self.now):
            self._outstanding_batches += 1
            self._push(finish_s, _FINISH, (shard, batch))

    def _autoscale_step(self) -> None:
        desired = self.autoscaler.desired_shards(self.live_shards, self.now)
        current = len(self.live_shards)
        action: GovernorAction | None = None
        if desired > current:
            shard = self._add_shard()
            action = GovernorAction(
                time_s=self.now,
                shard_id=shard.shard_id,
                action="scale-up",
                knob="shards",
                old=current,
                new=desired,
                p95_ms=0.0,
                queue_depth=0,
                reason="mean occupancy over scale_up_at",
            )
        elif desired < current:
            # Drain the youngest accepting shard: stop placements, let its
            # residual streams finish naturally.
            victim = max(self.live_shards, key=lambda shard: shard.shard_id)
            victim.accepting = False
            action = GovernorAction(
                time_s=self.now,
                shard_id=victim.shard_id,
                action="scale-down",
                knob="shards",
                old=current,
                new=desired,
                p95_ms=0.0,
                queue_depth=victim.queue_depth,
                reason="mean occupancy under scale_down_at",
            )
        if action is not None:
            self.timeline.append(action)
            tracer = active_tracer()
            if tracer is not None:
                tracer.decision(action)
