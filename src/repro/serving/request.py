"""Request and result types flowing through the inference server.

A :class:`FrameRequest` is one frame of one stream.  Its lifecycle is:

``submitted`` → (queued in the :class:`~repro.serving.scheduler.FrameScheduler`)
→ dispatched in a scale-bucketed micro-batch → ``COMPLETED``; or shed along the
way (``DROPPED`` by drop-oldest backpressure, ``EXPIRED`` past its deadline,
``REJECTED`` at admission, ``CANCELLED`` at shutdown).  The submitter holds a
``concurrent.futures.Future`` that resolves to a :class:`FrameResult` in every
case — shedding produces a result with ``detection=None``, never a hang.
"""

from __future__ import annotations

import itertools
import time
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from repro.detection.rfcn import DetectionResult
from repro.observability.trace import active_tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (session → request)
    from repro.observability.trace import TraceContext
    from repro.serving.session import StreamSession

__all__ = ["RequestStatus", "FrameResult", "FrameRequest"]

_REQUEST_IDS = itertools.count()


class RequestStatus(Enum):
    """Terminal state of a frame request."""

    COMPLETED = "completed"
    DROPPED = "dropped"  # shed by drop-oldest backpressure
    EXPIRED = "expired"  # deadline passed while queued
    REJECTED = "rejected"  # refused at admission (reject policy)
    CANCELLED = "cancelled"  # server stopped before execution
    FAILED = "failed"  # worker raised while executing
    MIGRATED = "migrated"  # stream re-routed to another shard before execution


@dataclass(frozen=True)
class FrameResult:
    """Outcome of one frame request.

    ``detection`` is ``None`` unless ``status is RequestStatus.COMPLETED``.
    Latency fields are wall-clock seconds; ``queue_wait_s`` covers submission →
    dispatch, ``service_s`` covers dispatch → completion.
    """

    stream_id: int
    frame_index: int
    status: RequestStatus
    detection: DetectionResult | None = None
    scale_used: int | None = None
    next_scale: int | None = None
    is_key_frame: bool = True
    queue_wait_s: float = float("nan")
    service_s: float = float("nan")
    latency_s: float = float("nan")

    @property
    def ok(self) -> bool:
        """Whether the frame was actually processed."""
        return self.status is RequestStatus.COMPLETED


@dataclass
class FrameRequest:
    """One in-flight frame of one stream.

    ``session`` links the request to its stream's sequential state; the
    scheduler resolves the processing scale from it at *dispatch* time (the
    scale depends on the previous frame's regressor output, which is unknown
    at submission).  Scheduler unit tests bypass sessions by presetting
    ``scale``.
    """

    stream_id: int
    frame_index: int
    image: np.ndarray
    enqueue_time: float = field(default_factory=time.monotonic)
    deadline: float | None = None  # absolute monotonic time, None = no deadline
    scale: int | None = None
    session: "StreamSession | None" = None
    request_id: int = field(default_factory=lambda: next(_REQUEST_IDS))
    future: "Future[FrameResult]" = field(default_factory=Future)
    #: trace context minted at admission when a tracer is active and the
    #: frame was sampled; None otherwise (the no-tracing fast path)
    trace: "TraceContext | None" = None
    #: monotonic time the scheduler dispatched the frame into a micro-batch
    #: (set in ``form_batch``); splits latency into queue wait vs service
    dispatch_time: float | None = None

    def resolve_scale(self) -> int:
        """Processing scale for this frame, read at dispatch time."""
        if self.session is not None:
            return self.session.current_scale
        if self.scale is None:
            raise ValueError("request has neither a session nor a preset scale")
        return int(self.scale)

    def trace_completion(self, now: float, service_s: float, **attrs) -> None:
        """Emit the frame's queue-wait/service spans and completion instant.

        No-op unless the frame is traced.  The queue-wait span runs from
        enqueue to the scheduler's dispatch stamp; the service span covers
        dispatch → completion, i.e. the frame's whole residence in the worker
        including intra-batch wait.
        """
        tracer = active_tracer()
        if tracer is None or self.trace is None:
            return
        dispatch = self.dispatch_time
        if dispatch is None:  # a test bypassed the scheduler
            dispatch = max(now - service_s, self.enqueue_time)
        tracer.emit_span(
            "serving/queue_wait",
            self.trace,
            start_s=self.enqueue_time,
            duration_s=dispatch - self.enqueue_time,
        )
        tracer.emit_span(
            "serving/service",
            self.trace,
            start_s=dispatch,
            duration_s=now - dispatch,
            service_s=service_s,
        )
        tracer.instant(
            "serving/complete_frame",
            self.trace,
            now=now,
            latency_ms=1000.0 * (now - self.enqueue_time),
            **attrs,
        )

    def trace_shed(self, status: RequestStatus, now: float | None = None) -> None:
        """Emit the frame's shed instant; no-op unless the frame is traced."""
        tracer = active_tracer()
        if tracer is not None and self.trace is not None:
            tracer.instant("serving/shed", self.trace, now=now, status=status.value)

    def resolve(self, result: FrameResult) -> None:
        """Resolve the future, tolerating an externally cancelled request."""
        try:
            self.future.set_result(result)
        except InvalidStateError:
            pass  # the caller cancelled the future; the outcome is discarded

    def resolve_error(self, error: BaseException) -> None:
        """Fail the future, tolerating an externally cancelled request."""
        try:
            self.future.set_exception(error)
        except InvalidStateError:
            pass

    def resolve_shed(self, status: RequestStatus) -> None:
        """Terminate the request without running it (shed / cancelled)."""
        self.resolve(
            FrameResult(
                stream_id=self.stream_id,
                frame_index=self.frame_index,
                status=status,
            )
        )

    def result(self, timeout: float | None = None) -> FrameResult:
        """Block until the request reaches a terminal state."""
        return self.future.result(timeout=timeout)
