"""The multi-stream adaptive-scale inference server.

:class:`InferenceServer` turns a trained :class:`~repro.core.pipeline.ExperimentBundle`
into a concurrent video-inference service:

* callers open streams and submit frames (``submit`` returns a future);
* the :class:`~repro.serving.scheduler.FrameScheduler` applies admission
  control and groups same-predicted-scale frames of different streams into
  micro-batches;
* the :class:`~repro.serving.worker.WorkerPool` executes each micro-batch as
  one stacked tensor on a shared detector (inference mode makes forwards
  thread-safe and batch-invariant), with per-stream sequential bookkeeping
  handled by each frame's :class:`~repro.serving.session.StreamSession`
  (AdaScale feedback loop, optional DFF key-frame caching, optional Seq-NMS
  history);
* :class:`~repro.serving.metrics.ServerMetrics` records tail latency, queue
  depth, batch occupancy and per-stream throughput.

Typical use::

    with InferenceServer(bundle) as server:
        requests = [server.submit(stream_id=0, image=frame.image) for frame in frames]
        server.drain()
        results = [request.result() for request in requests]
    print(server.telemetry().format())

The server is the architectural seam for future scaling work: sharded worker
pools, cross-request feature caching, and non-NumPy detector backends all slot
in behind ``submit`` without touching the stream/session semantics.
"""

from __future__ import annotations

import threading
import time

from repro.acceleration.seqnms import SeqNMSConfig
from repro.config import ServingConfig
from repro.core.pipeline import ExperimentBundle
from repro.observability.trace import active_tracer
from repro.serving.metrics import ServerMetrics, TelemetrySnapshot
from repro.serving.request import FrameRequest, FrameResult, RequestStatus
from repro.serving.scheduler import FrameScheduler
from repro.serving.session import FrameExecution, StreamResult, StreamSession
from repro.serving.worker import WorkerContext, WorkerPool
from repro.utils.logging import get_logger

import numpy as np

__all__ = ["InferenceServer"]

_LOGGER = get_logger("serving.server")


class InferenceServer:
    """Concurrent multi-stream wrapper around a trained bundle."""

    def __init__(
        self,
        bundle: ExperimentBundle,
        serving: ServingConfig | None = None,
        seqnms_config: SeqNMSConfig | None = None,
        metrics: ServerMetrics | None = None,
        shard_id: int = -1,
    ) -> None:
        self.bundle = bundle
        self.serving = serving if serving is not None else bundle.config.serving
        self.serving.validate()
        self.seqnms_config = seqnms_config
        self.metrics = metrics if metrics is not None else ServerMetrics()
        #: cluster shard this server backs (-1 for standalone); labels every
        #: trace span this server emits
        self.shard_id = int(shard_id)
        self._scale_cap: int | None = None
        self._sessions: dict[int, StreamSession] = {}
        self._lock = threading.Lock()
        self._outstanding = 0
        self._drained = threading.Condition(self._lock)
        self._started = False
        self._stopped = False
        self.scheduler = FrameScheduler.from_config(
            self.serving,
            on_shed=self._on_shed,
            on_depth=self.metrics.observe_queue_depth,
            on_batch=self.metrics.observe_batch,
        )
        self.pool = WorkerPool(
            scheduler=self.scheduler,
            context=WorkerContext.shared(
                self.bundle.ms_detector, self.bundle.regressor, self.bundle.config.adascale
            ),
            complete=self._on_worker_done,
            num_workers=self.serving.num_workers,
        )

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> "InferenceServer":
        """Spawn the worker pool (idempotent)."""
        if not self._started:
            self._started = True
            _LOGGER.info(
                "serving with %d workers, batch<=%d, queue<=%d, policy=%s",
                self.serving.num_workers,
                self.serving.max_batch_size,
                self.serving.queue_capacity,
                self.serving.backpressure,
            )
            self.pool.start()
        return self

    def stop(self, cancel_pending: bool = True, timeout: float | None = 10.0) -> None:
        """Close the scheduler and join the workers (idempotent).

        Safe to call any number of times, from signal handlers and ``atexit``
        hooks included, and safe on a server that was never started — the
        shutdown path a spawned replica process takes on SIGTERM must never
        raise or hang on a second invocation.
        """
        if self._stopped:
            return
        self._stopped = True
        self.scheduler.close(cancel_pending=cancel_pending)
        if self._started:
            self.pool.join(timeout=timeout)

    def close(self) -> None:
        """Idempotent alias of :meth:`stop` (cancels anything still queued)."""
        self.stop(cancel_pending=True)

    def __enter__(self) -> "InferenceServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- streams ------------------------------------------------------------
    def open_stream(
        self, stream_id: int | None = None, initial_scale: int | None = None
    ) -> StreamSession:
        """Register a new video stream and return its session.

        ``initial_scale`` seeds the AdaScale feedback loop for the stream's
        first frame — a cluster migration passes the last committed frame's
        regressor output here so the re-homed stream continues the scale
        chain instead of restarting at the configured default.
        """
        with self._lock:
            if stream_id is None:
                stream_id = max(self._sessions, default=-1) + 1
            if stream_id in self._sessions:
                raise ValueError(f"stream {stream_id} is already open")
            session = StreamSession(
                stream_id=stream_id,
                adascale_config=self.bundle.config.adascale,
                serving_config=self.serving,
                num_classes=self.bundle.config.detector.num_classes,
                seqnms_config=self.seqnms_config,
                initial_scale=initial_scale,
            )
            session.scale_cap = self._scale_cap
            self._sessions[stream_id] = session
            return session

    def session(self, stream_id: int) -> StreamSession:
        """Look up an open stream's session."""
        with self._lock:
            return self._sessions[stream_id]

    # -- submission ---------------------------------------------------------
    def submit(
        self,
        stream_id: int,
        image: np.ndarray,
        frame_index: int | None = None,
    ) -> FrameRequest:
        """Enqueue one frame of ``stream_id``; opens the stream on first use.

        Frames of one stream must be submitted in temporal order.  The
        returned request's ``result()`` blocks until the frame is served or
        shed.  Under the ``block`` policy this call itself may block while the
        queue is at capacity (that *is* the backpressure).
        """
        if not self._started:
            raise RuntimeError("server not started — use `with InferenceServer(...) as s:`")
        with self._lock:
            session = self._sessions.get(stream_id)
        if session is None:
            session = self.open_stream(stream_id)
        if frame_index is None:
            frame_index = session.submitted
        session.submitted += 1
        request = FrameRequest(
            stream_id=stream_id,
            frame_index=int(frame_index),
            image=np.asarray(image),
            enqueue_time=time.monotonic(),
            session=session,
        )
        tracer = active_tracer()
        if tracer is not None:
            request.trace = tracer.begin_trace(
                stream_id=stream_id,
                frame_index=request.frame_index,
                shard_id=self.shard_id,
                now=request.enqueue_time,
            )
        self.metrics.on_submitted()
        with self._lock:
            self._outstanding += 1
        try:
            # On rejection the scheduler already resolved the future and
            # _on_shed balanced the outstanding count.
            self.scheduler.submit(request)
        except Exception:
            self._finish_one()
            raise
        return request

    def drain(self, timeout: float | None = None) -> bool:
        """Block until every submitted frame reached a terminal state."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._drained:
            while self._outstanding > 0:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._drained.wait(remaining)
            return True

    # -- results ------------------------------------------------------------
    def finalize_stream(self, stream_id: int) -> StreamResult:
        """Per-stream results (Seq-NMS rescoring applied when enabled)."""
        return self.session(stream_id).finalize()

    def finalize(self) -> dict[int, StreamResult]:
        """Results of every open stream, keyed by stream id."""
        with self._lock:
            stream_ids = sorted(self._sessions)
        return {stream_id: self.finalize_stream(stream_id) for stream_id in stream_ids}

    def telemetry(self) -> TelemetrySnapshot:
        """Current telemetry snapshot."""
        return self.metrics.snapshot()

    # -- control plane -------------------------------------------------------
    @property
    def outstanding(self) -> int:
        """Frames submitted but not yet in a terminal state (the load signal)."""
        with self._lock:
            return self._outstanding

    @property
    def scale_cap(self) -> int | None:
        """Current control-plane quality ceiling (None = uncapped)."""
        with self._lock:
            return self._scale_cap

    def set_scale_cap(self, scale_cap: int | None) -> None:
        """Clamp every stream's processing scale to at most ``scale_cap``.

        The graceful-degradation knob of the cluster control plane: lowering
        the cap trades detection quality for per-frame work (service time
        scales with resized image area), so an overloaded shard can keep its
        latency SLO without shedding frames.  ``None`` removes the cap.
        Applies to the *next* dispatched frame of every open stream and to
        streams opened later; never clamps below AdaScale's minimum scale.
        """
        with self._lock:
            self._scale_cap = int(scale_cap) if scale_cap is not None else None
            for session in self._sessions.values():
                session.scale_cap = self._scale_cap

    def set_max_batch_size(self, max_batch_size: int) -> None:
        """Adjust the scheduler's micro-batch bound at runtime."""
        self.scheduler.set_max_batch_size(max_batch_size)

    # -- internal callbacks -------------------------------------------------
    def _on_shed(self, request: FrameRequest, status: RequestStatus) -> None:
        """Scheduler shed a queued frame (drop/expire/reject/cancel)."""
        self.metrics.on_shed(status.value)
        request.trace_shed(status)
        if request.session is not None:
            request.session.on_shed(request)
        self._finish_one()

    def _on_worker_done(
        self,
        request: FrameRequest,
        execution: FrameExecution | None,
        error: BaseException | None,
    ) -> None:
        """A worker finished (or failed) one dispatched frame."""
        now = time.monotonic()
        session = request.session
        try:
            if error is not None or execution is None or session is None:
                self.metrics.on_shed("failed")
                request.resolve_error(
                    error if error is not None else RuntimeError("no execution result")
                )
                return
            # Update the stream state *before* releasing the next frame so the
            # scheduler reads the new scale at the next dispatch.
            session.advance(request, execution)
            queue_wait = max(now - request.enqueue_time - execution.service_s, 0.0)
            latency = now - request.enqueue_time
            self.metrics.on_completed(
                stream_id=request.stream_id,
                queue_wait_s=queue_wait,
                service_s=execution.service_s,
                latency_s=latency,
            )
            request.trace_completion(
                now,
                execution.service_s,
                scale_used=execution.scale_used,
                next_scale=execution.next_scale,
                is_key_frame=execution.is_key_frame,
            )
            request.resolve(
                FrameResult(
                    stream_id=request.stream_id,
                    frame_index=request.frame_index,
                    status=RequestStatus.COMPLETED,
                    detection=execution.detection,
                    scale_used=execution.scale_used,
                    next_scale=execution.next_scale,
                    is_key_frame=execution.is_key_frame,
                    queue_wait_s=queue_wait,
                    service_s=execution.service_s,
                    latency_s=latency,
                )
            )
        finally:
            self.scheduler.task_done(request.stream_id)
            self._finish_one()

    def _finish_one(self) -> None:
        with self._drained:
            self._outstanding -= 1
            if self._outstanding <= 0:
                self._drained.notify_all()
