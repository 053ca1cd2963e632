"""Deterministic virtual-time execution of cluster scenarios.

Real wall-clock scaling experiments need as many cores as shards; a CI runner
(or this container) has one.  The simulation engine solves that honestly: the
*costs* are real — a :class:`~repro.cluster.service_model.ServiceModel`
calibrated by timing the actual detector at every AdaScale scale — while
queueing, routing, batching, feedback control and time itself are evaluated
in an exact discrete-event loop.  Everything downstream of the calibration is
bit-reproducible: same trace + same model + same seeds ⇒ the same report, on
any machine.

:class:`SimulatedShard` *is* one replica's scheduling, not a model of it: it
holds the real :class:`~repro.serving.scheduler.FrameScheduler` on the
virtual clock — the same admission and backpressure policies, per-stream
one-in-flight ordering, urgency-ordered scale buckets capped by
``max_batch_size``, the work-conserving fill wait and deadline shedding —
with :class:`~repro.cluster.service_model.ServiceModel` times standing in for
the detector, and a :class:`~repro.serving.metrics.ServerMetrics` driven by
the virtual clock, so shard telemetry comes out of the *same* accumulation
code the real server uses.  An open-loop trace cannot stall, so a ``block``
submitter's frames wait in a shard-side backlog once the scheduler holds
``queue_capacity``: they keep their arrival time, and the backlog counts as
queue depth — what a blocked upstream looks like to the control plane.

Per-stream scale dynamics are a seeded random walk over the AdaScale ladder
(the content-driven signal the regressor would produce), advanced once per
completed frame and clamped by the shard's control-plane ``scale_cap`` at
dispatch — which is how the governor's quality degradation genuinely buys
capacity here: smaller scale, smaller measured service time.

:class:`ClusterSimulation` runs the event loop: trace events, batch
completions, fill-wait wake-ups, governor and autoscaler ticks, shard
add/drain.  It shares the :class:`~repro.cluster.router.Router` and the
governor/autoscaler *instances* with the process-shard path — the control
plane cannot tell which world it is steering.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque

import numpy as np

from repro.config import ClusterConfig
from repro.cluster.governor import Autoscaler, GovernorAction, ScaleGovernor
from repro.cluster.router import Router
from repro.cluster.scenarios import WorkloadTrace
from repro.cluster.service_model import ServiceModel
from repro.config import ServingConfig
from repro.observability.trace import active_tracer
from repro.serving.metrics import ServerMetrics
from repro.serving.request import FrameRequest, RequestStatus
from repro.serving.scheduler import FrameScheduler

__all__ = ["SimulatedShard", "ClusterSimulation"]

_WALK_STEPS = (-1, 0, 0, 1)  # sticky walk, mildly mobile


class _SimStream:
    """A stream session's stand-in: a seeded walk over the AdaScale ladder.

    :meth:`FrameRequest.resolve_scale` reads :attr:`current_scale` at
    dispatch — the walk's rung clamped by the shard's control-plane cap — and
    the walk advances once per completed frame, the way a real session's
    regressor feedback does.
    """

    def __init__(self, shard: "SimulatedShard", seed) -> None:
        self._shard = shard
        self._rng = np.random.default_rng(seed)
        self._index = 0  # streams open at full scale, like real sessions

    @property
    def current_scale(self) -> int:
        ladder, cap = self._shard.ladder, self._shard.scale_cap
        scale = ladder[self._index]
        return scale if cap is None else min(scale, max(cap, min(ladder)))

    def advance(self) -> None:
        step = _WALK_STEPS[self._rng.integers(len(_WALK_STEPS))]
        self._index = min(max(self._index + step, 0), len(self._shard.ladder) - 1)


class SimulatedShard:
    """One replica in virtual time: the real scheduler, modelled service times."""

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
        self.scheduler = FrameScheduler.from_config(
            serving,
            on_shed=self._on_shed,
            on_depth=lambda depth: self.metrics.observe_queue_depth(
                depth + len(self._backlog)
            ),
            on_batch=self.metrics.observe_batch,
            clock=clock,
        )
        #: frames of a ``block`` submitter stalled at ``queue_capacity``
        self._backlog: deque[FrameRequest] = deque()
        self._streams: dict[int, _SimStream] = {}
        self._idle_workers = serving.num_workers
        self._fill_deadline: float | None = None  # of the batch waiting to fill
        self.accepting = True
        self.scale_cap: int | None = None
        self.baseline_batch_size = serving.max_batch_size

    # -- control-plane view ---------------------------------------------------
    @property
    def active_streams(self) -> int:
        """Streams currently open on this shard."""
        return len(self._streams)

    @property
    def queue_depth(self) -> int:
        """Frames admitted but not yet dispatched (blocked submissions included)."""
        return self.scheduler.depth + len(self._backlog)

    @property
    def occupancy(self) -> float:
        """Offered work per unit of worker capacity (>1 ⇒ queue building)."""
        busy = self.serving.num_workers - self._idle_workers
        return (busy + self.queue_depth) / self.serving.num_workers

    @property
    def max_batch_size(self) -> int:
        """The micro-batch bound in force."""
        return self.scheduler.max_batch_size

    def recent_latency(self, window: int):
        """Rolling latency view (same code path as the real server's)."""
        return self.metrics.recent_latency(window)

    def set_scale_cap(self, scale_cap: int | None) -> None:
        """Clamp every stream's scale to at most ``scale_cap`` (None = uncapped)."""
        self.scale_cap = int(scale_cap) if scale_cap is not None else None

    def set_max_batch_size(self, max_batch_size: int) -> None:
        """Adjust the micro-batch bound for batches formed from now on."""
        self.scheduler.set_max_batch_size(max_batch_size)

    # -- stream lifecycle ------------------------------------------------------
    def open_stream(self, stream_id: int) -> None:
        """Register a stream (its scale walk is seeded deterministically)."""
        self._streams[stream_id] = _SimStream(self, seed=(self._seed, stream_id))

    def close_stream(self, stream_id: int) -> None:
        """Deregister a closed stream (queued frames still drain normally)."""
        self._streams.pop(stream_id, None)

    # -- admission -------------------------------------------------------------
    def admit(self, stream_id: int, frame_index: int, now: float) -> bool:
        """Submit one frame to the shard's scheduler; False when refused.

        The scheduler's backpressure policy decides, as on a real server.  A
        ``block`` submitter cannot stall an open-loop trace, so its frames
        wait in arrival order in the shard's backlog until the scheduler has
        room: latency still counts from arrival, and the control plane sees
        the backlog as queue depth.
        """
        self.metrics.on_submitted()
        stream = self._streams.get(stream_id)
        if stream is None:  # frame for a stream this shard never opened
            self.metrics.on_shed("rejected")
            return False
        request = FrameRequest(
            stream_id=stream_id,
            frame_index=frame_index,
            image=None,
            enqueue_time=now,
            session=stream,
        )
        tracer = active_tracer()
        if tracer is not None:
            request.trace = tracer.begin_trace(
                stream_id=stream_id,
                frame_index=frame_index,
                shard_id=self.shard_id,
                now=now,
            )
        if self.serving.backpressure == "block" and (
            self._backlog or self.scheduler.depth >= self.scheduler.queue_capacity
        ):
            self._backlog.append(request)
            self.metrics.observe_queue_depth(self.queue_depth)
            return True
        return self.scheduler.submit(request)

    # -- dispatch ---------------------------------------------------------------
    def start_batches(
        self, now: float
    ) -> tuple[list[tuple[float, list[FrameRequest]]], float | None]:
        """Dispatch due micro-batches onto idle workers.

        Returns the ``(finish time, batch)`` pairs started and, when this call
        began a fill wait, its deadline: the time to call again.
        """
        started: list[tuple[float, list[FrameRequest]]] = []
        waiting_since = self._fill_deadline
        while self._idle_workers > 0:
            self._unblock()
            batch, self._fill_deadline = self.scheduler.form_batch(self._fill_deadline)
            if not batch:
                if self._backlog and self.scheduler.depth < self.scheduler.queue_capacity:
                    continue  # expiry made room: the blocked submitter resumes
                break
            self._idle_workers -= 1
            scale = batch[0].resolve_scale()
            for request in batch:
                request.scale = scale  # the cap in force at dispatch executes
            started.append((now + self.model.batch_time_s(scale, len(batch)), batch))
        self._unblock()  # dispatch freed queue room
        new_wait = self._fill_deadline if self._fill_deadline != waiting_since else None
        return started, new_wait

    def finish_batch(self, batch: list[FrameRequest], now: float) -> None:
        """Record completions and free the worker and the batch's streams."""
        self._idle_workers += 1
        # One scale per batch (the bucket invariant): compute the amortised
        # per-frame share once, not once per frame.
        batch_s = self.model.batch_time_s(batch[0].scale, len(batch))
        service_s = batch_s / len(batch)
        for request in batch:
            self.scheduler.task_done(request.stream_id)
            request.session.advance()
            latency_s = now - request.enqueue_time
            self.metrics.on_completed(
                stream_id=request.stream_id,
                queue_wait_s=max(latency_s - service_s, 0.0),
                service_s=service_s,
                latency_s=latency_s,
            )
            request.trace_completion(now, service_s, scale_used=request.scale)

    @property
    def idle(self) -> bool:
        """True when nothing is queued or in flight."""
        return self.queue_depth == 0 and self._idle_workers == self.serving.num_workers

    # -- internals ---------------------------------------------------------------
    def _unblock(self) -> None:
        # A blocked submitter resumes as soon as the scheduler has room.
        while self._backlog and self.scheduler.depth < self.scheduler.queue_capacity:
            self.scheduler.submit(self._backlog.popleft())

    def _on_shed(self, request: FrameRequest, status: RequestStatus) -> None:
        self.metrics.on_shed(status.value)
        request.trace_shed(status, now=self._clock())


#: Event-kind dispatch order at equal timestamps: finish work before admitting
#: more, admit before a fill wait expires (a frame arriving at the deadline
#: joins the batch), and all of it before control decisions read the state.
_FINISH, _TRACE, _WAKE, _GOVERNOR, _AUTOSCALER = 0, 1, 2, 3, 4


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
            elif kind == _WAKE:
                self._start_work(payload)
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
        started, wake_at = shard.start_batches(self.now)
        for finish_s, batch in started:
            self._outstanding_batches += 1
            self._push(finish_s, _FINISH, (shard, batch))
        if wake_at is not None:
            self._push(wake_at, _WAKE, shard)

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
