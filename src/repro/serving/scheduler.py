"""Bounded frame scheduler with scale-bucketed micro-batching.

The scheduler is the seam between asynchronous frame arrivals and the worker
pool:

* **Bounded queue + backpressure.**  Admission is capped at
  ``queue_capacity`` outstanding frames.  When full, the configured policy
  decides: ``block`` stalls the submitter (lossless, load-generator friendly),
  ``drop-oldest`` sheds the stalest queued frame to admit the new one (video
  semantics — a late frame is worth less than a fresh one), ``reject`` refuses
  the new frame.
* **Per-stream ordering.**  AdaScale's feedback loop is sequential within a
  stream — frame ``k``'s regressor output decides frame ``k+1``'s scale — so
  at most one frame per stream is ever dispatched at a time, and a stream's
  next frame only becomes *ready* once :meth:`FrameScheduler.task_done` is
  called for the previous one.
* **Scale-bucketed micro-batching.**  Ready frames are grouped by the scale
  their stream's regressor predicted; one batch contains only same-scale
  frames (of distinct streams), mirroring how a GPU server would pad and stack
  them into one detector launch.  In this NumPy reproduction the win is
  dispatch amortisation and cache-warm weights rather than SIMD, but the
  scheduling semantics are the same.
* **Work-conserving fill wait.**  A batch that is not full waits up to
  ``batch_wait_s`` for more same-scale heads, but only while it would take
  every ready head and some stream is busy (only a busy stream can release a
  new head).  When another bucket has a ready head the batch goes at once:
  a worker never idles in a fill wait beside dispatchable work.
* **Deadline-aware ordering + shedding.**  Batches are formed from the bucket
  whose head is closest to its deadline (enqueue order when no deadlines are
  configured); frames whose deadline already passed are shed at dispatch time
  instead of wasting detector work.

One policy, two clocks: :meth:`FrameScheduler.form_batch` is the
non-blocking core, returning a batch or the time to retry;
:meth:`FrameScheduler.next_batch` is the condition-variable wrapper the
worker threads call on the wall clock, and the cluster simulator
(:class:`~repro.cluster.simulation.SimulatedShard`) drives the same core on
its virtual clock.  All state is guarded by one condition variable;
submitters and workers may call concurrently from any thread.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.observability.trace import active_tracer
from repro.registries import SCHEDULER_POLICIES
from repro.serving.request import FrameRequest, RequestStatus

if TYPE_CHECKING:
    from repro.config import ServingConfig

__all__ = [
    "SchedulerClosedError",
    "FrameScheduler",
    "BlockPolicy",
    "DropOldestPolicy",
    "RejectPolicy",
]


class SchedulerClosedError(RuntimeError):
    """Raised when submitting to a scheduler that has been closed."""


@SCHEDULER_POLICIES.register("block")
class BlockPolicy:
    """Stall the submitter until the queue has room (lossless backpressure)."""

    def admit(self, scheduler: "FrameScheduler", request: FrameRequest) -> bool:
        # Called with the scheduler condition variable held.
        while scheduler._size >= scheduler.queue_capacity and not scheduler._closed:
            scheduler._cond.wait()
        if scheduler._closed:
            raise SchedulerClosedError("scheduler closed while blocked on submit")
        return True


@SCHEDULER_POLICIES.register("drop-oldest")
class DropOldestPolicy:
    """Shed the stalest queued frame to admit the new one (video semantics)."""

    def admit(self, scheduler: "FrameScheduler", request: FrameRequest) -> bool:
        if scheduler._size >= scheduler.queue_capacity:
            victim = scheduler._oldest_queued()
            if victim is not None:
                scheduler._remove(victim)
                scheduler._shed(victim, RequestStatus.DROPPED)
        return True


@SCHEDULER_POLICIES.register("reject")
class RejectPolicy:
    """Refuse the new frame when the queue is at capacity."""

    def admit(self, scheduler: "FrameScheduler", request: FrameRequest) -> bool:
        if scheduler._size >= scheduler.queue_capacity:
            scheduler._shed(request, RequestStatus.REJECTED)
            return False
        return True


@dataclass
class _StreamState:
    """Per-stream FIFO plus the one-in-flight dispatch guard."""

    pending: deque[FrameRequest] = field(default_factory=deque)
    busy: bool = False


class FrameScheduler:
    """Thread-safe bounded queue producing scale-bucketed micro-batches."""

    def __init__(
        self,
        queue_capacity: int = 64,
        backpressure: str = "block",
        max_batch_size: int = 4,
        batch_wait_s: float = 0.002,
        deadline_s: float | None = None,
        on_shed: Callable[[FrameRequest, RequestStatus], None] | None = None,
        on_depth: Callable[[int], None] | None = None,
        on_batch: Callable[[int], None] | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if queue_capacity < 1:
            raise ValueError(f"queue_capacity must be >= 1, got {queue_capacity}")
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if backpressure not in SCHEDULER_POLICIES:
            raise ValueError(
                f"unknown backpressure policy {backpressure!r}; "
                f"registered policies: {', '.join(SCHEDULER_POLICIES.names())}"
            )
        self.queue_capacity = queue_capacity
        self.backpressure = backpressure
        self._policy = SCHEDULER_POLICIES.build(backpressure)
        self.max_batch_size = max_batch_size
        self.batch_wait_s = batch_wait_s
        self.deadline_s = deadline_s
        self._on_shed = on_shed
        self._on_depth = on_depth
        self._on_batch = on_batch
        self._clock = clock
        self._cond = threading.Condition()
        self._streams: dict[int, _StreamState] = {}
        self._size = 0  # queued (admitted, not yet dispatched) frames
        self._closed = False

    @classmethod
    def from_config(cls, serving: "ServingConfig", **hooks) -> "FrameScheduler":
        """The scheduler ``serving`` describes; ``hooks`` are the callbacks and clock."""
        return cls(
            queue_capacity=serving.queue_capacity,
            backpressure=serving.backpressure,
            max_batch_size=serving.max_batch_size,
            batch_wait_s=serving.batch_wait_ms / 1000.0,
            deadline_s=(
                serving.deadline_ms / 1000.0 if serving.deadline_ms is not None else None
            ),
            **hooks,
        )

    # -- introspection ------------------------------------------------------
    @property
    def depth(self) -> int:
        """Number of queued (not yet dispatched) frames."""
        with self._cond:
            return self._size

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        with self._cond:
            return self._closed

    # -- runtime control -----------------------------------------------------
    def set_max_batch_size(self, max_batch_size: int) -> None:
        """Adjust the micro-batch bound at runtime (control-plane knob).

        Takes effect at the next batch formation; in-flight batches are
        unaffected.  The cluster's :class:`~repro.cluster.governor.ScaleGovernor`
        steps this down under latency pressure and back up with headroom.
        """
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        with self._cond:
            self.max_batch_size = int(max_batch_size)
            self._cond.notify_all()

    # -- submission ---------------------------------------------------------
    def submit(self, request: FrameRequest) -> bool:
        """Admit one frame; returns False if it was rejected.

        Applies the backpressure policy when the queue is at capacity.  Shed
        victims (drop-oldest) and rejected requests have their futures
        resolved here, so submitters never observe a hang.
        """
        with self._cond:
            if self._closed:
                raise SchedulerClosedError("scheduler is closed")
            if not self._policy.admit(self, request):
                return False
            if self.deadline_s is not None and request.deadline is None:
                request.deadline = request.enqueue_time + self.deadline_s
            state = self._streams.setdefault(request.stream_id, _StreamState())
            state.pending.append(request)
            self._size += 1
            if self._on_depth is not None:
                self._on_depth(self._size)
            self._cond.notify_all()
            return True

    # -- dispatch -----------------------------------------------------------
    def form_batch(
        self, fill_deadline: float | None = None
    ) -> tuple[list[FrameRequest], float | None]:
        """Dispatch the next micro-batch if one is due; never blocks.

        Returns ``(batch, None)`` on dispatch, ``([], None)`` when no frame
        is ready, and ``([], retry_at)`` while the batch waits to fill: the
        caller retries at ``retry_at`` (or earlier, when a stream frees up)
        and passes it back as ``fill_deadline``, so the wait runs from the
        first look.  The wait is work-conserving: it applies only while some
        stream is busy (only a busy stream can release a new head) and the
        batch would take every ready head without filling up.  A ready head
        in another bucket is dispatchable work, so the batch goes at once.
        Dispatched streams are marked busy until :meth:`task_done`.
        """
        with self._cond:
            batch, retry_at = self._form_locked(fill_deadline)
        self._trace_assembly(batch)
        return batch, retry_at

    def next_batch(self, timeout: float | None = 0.05) -> list[FrameRequest] | None:
        """Form the next micro-batch, waiting up to ``timeout`` for work.

        The blocking wrapper the worker threads call: sleeps on the condition
        variable between :meth:`form_batch` attempts.  Returns ``None`` when
        the scheduler is closed and fully drained (the worker-exit signal)
        and ``[]`` on a timeout with no ready work.
        """
        wait_deadline = None if timeout is None else self._clock() + timeout
        fill_deadline: float | None = None
        with self._cond:
            while True:
                batch, fill_deadline = self._form_locked(fill_deadline)
                if batch:
                    break
                if fill_deadline is not None:
                    self._cond.wait(fill_deadline - self._clock())
                    continue
                if self._closed and self._size == 0:
                    return None
                remaining = None if wait_deadline is None else wait_deadline - self._clock()
                if remaining is not None and remaining <= 0:
                    return []
                self._cond.wait(remaining)
        self._trace_assembly(batch)
        return batch

    def task_done(self, stream_id: int) -> None:
        """Mark a dispatched frame finished; the stream's next frame is ready."""
        with self._cond:
            state = self._streams.get(stream_id)
            if state is None or not state.busy:
                raise RuntimeError(f"task_done for stream {stream_id} with no frame in flight")
            state.busy = False
            self._cond.notify_all()

    # -- shutdown -----------------------------------------------------------
    def close(self, cancel_pending: bool = False) -> None:
        """Stop admissions; optionally cancel everything still queued."""
        with self._cond:
            self._closed = True
            if cancel_pending:
                for state in self._streams.values():
                    while state.pending:
                        self._shed(state.pending.popleft(), RequestStatus.CANCELLED)
                        self._size -= 1
            self._cond.notify_all()

    # -- internals (call with the lock held) --------------------------------
    def _form_locked(
        self, fill_deadline: float | None
    ) -> tuple[list[FrameRequest], float | None]:
        self._expire_overdue()
        ready = self._ready_heads()
        if not ready:
            return [], None
        # Deadline-aware bucket choice: serve the scale bucket whose head
        # is most urgent (earliest deadline, enqueue order as tie-break).
        ready.sort(key=self._urgency)
        bucket_scale = ready[0].resolve_scale()
        batch = [r for r in ready if r.resolve_scale() == bucket_scale]
        batch = batch[: self.max_batch_size]
        now = self._clock()
        if (
            self.batch_wait_s > 0
            and not self._closed
            and len(batch) == len(ready) < self.max_batch_size
            and any(state.busy for state in self._streams.values())
        ):
            if fill_deadline is None:
                fill_deadline = now + self.batch_wait_s
            if now < fill_deadline:
                return [], fill_deadline
        for request in batch:
            state = self._streams[request.stream_id]
            state.pending.popleft()
            state.busy = True
            self._size -= 1
            request.dispatch_time = now
        if self._on_depth is not None:
            self._on_depth(self._size)
        if self._on_batch is not None:
            self._on_batch(len(batch))
        self._cond.notify_all()
        return batch, None

    def _trace_assembly(self, batch: list[FrameRequest]) -> None:
        # Called after the lock is released: a span sink may write to disk.
        tracer = active_tracer()
        traced = [] if tracer is None else [r.trace for r in batch if r.trace is not None]
        if not traced:
            return
        # Assembly window: the batch cannot form before its last member
        # arrives; what follows until dispatch is the fill wait.
        dispatch = batch[0].dispatch_time
        arrived = max(r.enqueue_time for r in batch)
        tracer.emit_batch_span(
            "serving/batch_assembly",
            traced,
            start_s=min(arrived, dispatch),
            duration_s=max(dispatch - arrived, 0.0),
            batch_size=len(batch),
        )

    # -- internals (call with the lock held) --------------------------------
    def _ready_heads(self) -> list[FrameRequest]:
        return [
            state.pending[0]
            for state in self._streams.values()
            if state.pending and not state.busy
        ]

    def _urgency(self, request: FrameRequest) -> tuple[float, int]:
        key = request.deadline if request.deadline is not None else request.enqueue_time
        return (key, request.request_id)

    def _oldest_queued(self) -> FrameRequest | None:
        oldest: FrameRequest | None = None
        for state in self._streams.values():
            if state.pending:
                head = state.pending[0]
                if oldest is None or self._urgency(head) < self._urgency(oldest):
                    oldest = head
        return oldest

    def _remove(self, request: FrameRequest) -> None:
        state = self._streams[request.stream_id]
        state.pending.remove(request)
        self._size -= 1
        self._cond.notify_all()

    def _expire_overdue(self) -> None:
        if self.deadline_s is None:
            return
        now = self._clock()
        for state in self._streams.values():
            while state.pending and (
                state.pending[0].deadline is not None and state.pending[0].deadline < now
            ):
                expired = state.pending.popleft()
                self._size -= 1
                self._shed(expired, RequestStatus.EXPIRED)
        self._cond.notify_all()

    def _shed(self, request: FrameRequest, status: RequestStatus) -> None:
        request.resolve_shed(status)
        if self._on_shed is not None:
            self._on_shed(request, status)
