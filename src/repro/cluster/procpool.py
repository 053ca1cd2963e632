"""Process-parallel shard backend: spawned replicas over framed IPC.

This module turns :class:`~repro.cluster.replica.ReplicaSpec` — the
pickled-config spawn seam — into real OS processes.  Three pieces:

* :func:`replica_main` is the **child** entry point.  Spawned via
  ``multiprocessing.get_context("spawn")``, it rebuilds the server from its
  spec (``ExperimentBundle.load`` from ``bundle_dir``), then serves a framed
  :class:`~repro.cluster.ipc.FramedChannel` message loop: ``Submit`` frames
  in, per-frame ``Done`` results and periodic ``Telemetry`` snapshots out.
  SIGTERM (or an orderly ``Shutdown`` message, or parent death) exits with
  status 0 after stopping the server — no orphaned worker threads.

* :class:`ProcessReplica` is the **parent-side proxy**, exposing the shard
  control surface (``submit`` / ``open_stream`` / ``set_scale_cap`` /
  ``set_max_batch_size`` / ``drain`` / rolling telemetry) that the router,
  governor and report also drive on the virtual-time
  :class:`~repro.cluster.simulation.SimulatedShard` (both run the same
  :class:`~repro.serving.scheduler.FrameScheduler`).  Its submission window
  is capped at the child's ``queue_capacity``: the child's ``block``-policy
  admission can then never block its own pipe-reader loop (the queue always
  has room for everything the parent has in flight), which is what makes the
  lossless backpressure policy deadlock-free across the process boundary.
  Frames beyond the window wait in the parent, so ``queue_depth`` (the
  child's scheduler depth) never exceeds ``queue_capacity``; the simulated
  shard counts its blocked backlog in ``queue_depth`` instead.

* :class:`ReplicaSupervisor` watches the fleet: a dead child (detected as a
  typed channel error, never a hang) triggers **stream migration** — every
  live stream of the dead shard is re-homed through
  :meth:`~repro.cluster.router.Router.reassign` and re-seeded with its last
  committed AdaScale scale, in-flight frames are accounted as ``migrated``
  (distinct from ``dropped``: the stream continues elsewhere) — and a
  **bounded-backoff respawn** from the same spec, reusing the dead shard's
  parent-side metrics so per-shard reporting stays continuous across the
  crash.  Every decision is a :class:`~repro.cluster.governor.GovernorAction`
  on the report timeline and a ``cluster/<action>`` decision event when
  tracing is on.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import os
import signal
import threading
import time

import numpy as np

from repro.config import ProcessPoolConfig
from repro.cluster.governor import GovernorAction
from repro.cluster.ipc import (
    CLOCK_PROBES,
    SPANS_PER_MESSAGE,
    ChannelClosed,
    ClockPing,
    ClockPong,
    CloseStream,
    Done,
    FrameError,
    FramedChannel,
    Hello,
    OpenStream,
    PipeStream,
    SetMaxBatchSize,
    SetScaleCap,
    Shutdown,
    Spans,
    Submit,
    Telemetry,
)
from repro.cluster.replica import ReplicaSpec
from repro.config import ServingConfig, TelemetryConfig
from repro.detection.rfcn import DetectionResult
from repro.observability.sinks import SpanExportBuffer
from repro.observability.trace import SpanEvent, Tracer, active_tracer
from repro.serving.metrics import ServerMetrics
from repro.serving.request import FrameRequest, FrameResult, RequestStatus
from repro.utils.logging import get_logger

__all__ = ["ProcessReplica", "ReplicaSupervisor", "replica_main"]

_LOGGER = get_logger("cluster.procpool")


def _finite(value: float) -> float:
    """NaN/Inf → 0.0 (shed results carry NaN latencies; the wire carries 0)."""
    value = float(value)
    return value if math.isfinite(value) else 0.0


# -- child side ----------------------------------------------------------------
def replica_main(spec: ReplicaSpec, connection, metrics_interval_s: float = 0.2) -> None:
    """Entry point of one spawned replica process.

    Builds the server from ``spec`` (bundle loaded from ``spec.bundle_dir``),
    announces readiness with ``Hello``, answers the parent's clock probes,
    then serves the message loop until a ``Shutdown`` message, SIGTERM, or
    parent death.  Always stops the server before returning, so worker
    threads never outlive the message loop; a clean path exits with status 0.

    When ``spec.telemetry`` is set the child activates its *own* tracer: the
    serving stack's instrumentation sites light up exactly as they would in
    a standalone server, spans land in a bounded :class:`SpanExportBuffer`
    (overflow sheds and counts, never blocks admission or workers), and the buffer is
    drained into batched ``Spans`` messages on the telemetry cadence — plus
    one final flush after the server stops, so crash-free shutdowns lose
    nothing and the last cumulative drop count reaches the parent.
    """
    stop_requested = threading.Event()

    def _on_sigterm(signum, frame) -> None:  # noqa: ARG001 - signal signature
        stop_requested.set()

    signal.signal(signal.SIGTERM, _on_sigterm)
    channel = FramedChannel(PipeStream(connection))
    send_lock = threading.Lock()

    def _send(message) -> None:
        """Thread-safe send; a dead parent just ends the loop."""
        with send_lock:
            try:
                channel.send(message)
            except FrameError:
                stop_requested.set()

    def _done_callback(stream_id: int, frame_index: int):
        def callback(future) -> None:
            error = future.exception()
            if error is not None:
                _send(
                    Done(
                        stream_id=stream_id,
                        frame_index=frame_index,
                        status=RequestStatus.FAILED.value,
                        error=repr(error),
                    )
                )
                return
            result: FrameResult = future.result()
            detection = result.detection
            try:
                # Post-advance scale: the session already committed this
                # frame's regressor output (advance runs before resolve), so
                # this is exactly the value a migration must re-seed with.
                current_scale = server.session(stream_id).current_scale
            except KeyError:  # pragma: no cover - session evicted
                current_scale = None
            _send(
                Done(
                    stream_id=stream_id,
                    frame_index=frame_index,
                    status=result.status.value,
                    scale_used=result.scale_used,
                    next_scale=result.next_scale,
                    current_scale=current_scale,
                    is_key_frame=result.is_key_frame,
                    queue_wait_s=_finite(result.queue_wait_s),
                    service_s=_finite(result.service_s),
                    latency_s=_finite(result.latency_s),
                    boxes=None if detection is None else detection.boxes,
                    scores=None if detection is None else detection.scores,
                    class_ids=None if detection is None else detection.class_ids,
                )
            )

        return callback

    server = spec.build().start()
    metrics = server.metrics
    batch_mark = 0
    depth_mark = 0

    def _telemetry() -> Telemetry:
        nonlocal batch_mark, depth_mark
        batch_mark, batches = metrics.batch_sizes_since(batch_mark)
        depth_mark, depths = metrics.queue_depths_since(depth_mark)
        return Telemetry(
            queue_depth=server.scheduler.depth,
            scale_cap=server.scale_cap,
            max_batch_size=server.scheduler.max_batch_size,
            batch_sizes=tuple(batches),
            queue_depths=tuple(depths),
        )

    # Child-side telemetry: the spec carries the run's TelemetryConfig, so
    # the serving stack's instrumentation lights up in this process too.
    telemetry_config = (
        TelemetryConfig.from_dict(spec.telemetry) if spec.telemetry else None
    )
    tracer: Tracer | None = None
    span_buffer: SpanExportBuffer | None = None
    if telemetry_config is not None and telemetry_config.enabled:
        # The parent owns the span log and ring; the export buffer is the
        # real sink here.  The local ring keeps only the latest event: a
        # full-size one would hold every span of the run in this process and
        # make each garbage-collection pass stall the serving threads longer.
        tracer = Tracer(telemetry_config.with_(jsonl_path="", ring_capacity=1))
        span_buffer = SpanExportBuffer(
            capacity=max(telemetry_config.ring_capacity, 4096)
        )
        tracer.add_sink(span_buffer)
        tracer.__enter__()

    def _ship_spans(final: bool = False) -> None:
        """Drain the export buffer into batched Spans messages (off hot path).

        The ``final`` flush sends one message even when nothing is buffered,
        so the last cumulative drop count always reaches the parent.
        """
        if span_buffer is None:
            return
        dropped = span_buffer.dropped
        payloads = [event.to_dict() for event in span_buffer.drain()]
        if not payloads and not final:
            return
        for start in range(0, max(len(payloads), 1), SPANS_PER_MESSAGE):
            chunk = tuple(payloads[start:start + SPANS_PER_MESSAGE])
            _send(Spans(events=chunk, dropped=dropped))

    _send(Hello(shard_id=spec.shard_id, pid=os.getpid()))
    # Clock handshake: the parent fires CLOCK_PROBES pings right after Hello
    # (before it routes any traffic here), so answering them first gives the
    # tightest possible RTT — and pipe FIFO ordering guarantees every pong
    # reaches the parent before the first shipped span needs rebasing.
    pending: list = []
    probes = 0
    while probes < CLOCK_PROBES and not stop_requested.is_set():
        if not channel.poll(0.05):
            continue
        try:
            message = channel.recv()
        except FrameError:
            stop_requested.set()
            break
        if isinstance(message, ClockPing):
            _send(ClockPong(sent_s=message.sent_s, child_s=time.monotonic()))
            probes += 1
        else:
            pending.append(message)  # early control traffic: handled below
    cancel_pending = False
    next_report = time.monotonic() + metrics_interval_s
    try:
        while not stop_requested.is_set():
            message = None
            if pending:
                message = pending.pop(0)
            elif channel.poll(0.05):
                try:
                    message = channel.recv()
                except FrameError:
                    break  # parent is gone (or corrupted): shut down
            if message is not None:
                if isinstance(message, Submit):
                    request = server.submit(
                        message.stream_id, message.image, frame_index=message.frame_index
                    )
                    request.future.add_done_callback(
                        _done_callback(message.stream_id, message.frame_index)
                    )
                elif isinstance(message, OpenStream):
                    try:
                        server.open_stream(
                            message.stream_id, initial_scale=message.initial_scale
                        )
                    except ValueError:
                        pass  # idempotent re-open
                elif isinstance(message, CloseStream):
                    pass  # sessions stay resident for per-stream finalize
                elif isinstance(message, SetScaleCap):
                    server.set_scale_cap(message.scale_cap)
                elif isinstance(message, SetMaxBatchSize):
                    server.set_max_batch_size(message.max_batch_size)
                elif isinstance(message, ClockPing):
                    _send(ClockPong(sent_s=message.sent_s, child_s=time.monotonic()))
                elif isinstance(message, Shutdown):
                    cancel_pending = message.cancel_pending
                    break
            now = time.monotonic()
            if now >= next_report:
                next_report = now + metrics_interval_s
                _send(_telemetry())
                _ship_spans()
    finally:
        # Stop first: cancelled/served futures fire their callbacks, so every
        # Done — and every span those completions emit — reaches the parent
        # before the final telemetry/span flush.
        server.stop(cancel_pending=cancel_pending)
        _send(_telemetry())
        _ship_spans(final=True)
        if tracer is not None:
            tracer.__exit__(None, None, None)
        channel.close()


# -- parent side ---------------------------------------------------------------
#: Each spawned replica (per generation) gets a disjoint id namespace so the
#: merged fleet trace never collides two children's sequential trace/span ids.
_TRACE_NAMESPACES = itertools.count(1)
_TRACE_NAMESPACE_BITS = 32


class ProcessReplica:
    """Parent-side proxy for one spawned replica process.

    Per-frame results resolve the same ``FrameRequest`` futures an
    :class:`~repro.serving.InferenceServer` returns.  ``metrics`` accepts an
    existing :class:`~repro.serving.metrics.ServerMetrics` so a respawned shard keeps
    accumulating into its predecessor's counters, and ``generation`` counts
    respawns of the same shard id.

    On the child's ``Hello`` the proxy fires :data:`CLOCK_PROBES` clock pings
    and keeps the minimum-RTT sample: ``clock_offset_s`` (child minus parent
    monotonic clock) ± ``clock_uncertainty_s``.  Every shipped child span is
    rebased onto the parent timeline with that offset, re-namespaced, tagged
    with ``os_pid``/``generation`` attrs and ingested into the parent's
    active tracer — one coherent trace for the whole fleet.
    """

    def __init__(
        self,
        spec: ReplicaSpec,
        procpool: ProcessPoolConfig | None = None,
        metrics: ServerMetrics | None = None,
        generation: int = 0,
    ) -> None:
        self.spec = spec
        self.procpool = procpool if procpool is not None else ProcessPoolConfig()
        self.shard_id = spec.shard_id
        self.serving = ServingConfig.from_dict(spec.serving)
        self.baseline_batch_size = self.serving.max_batch_size
        self.metrics = metrics if metrics is not None else ServerMetrics()
        self.generation = int(generation)
        self.clock_offset_s: float | None = None
        self.clock_uncertainty_s: float | None = None
        self._clock_samples: list[tuple[float, float]] = []
        self._trace_namespace = next(_TRACE_NAMESPACES)
        self._pending_spans: list[dict] = []
        self._span_drops = 0
        #: deadlock-freedom invariant: everything the parent has in flight
        #: always fits the child's queue, so child-side admission never blocks
        self.max_inflight = min(
            self.procpool.max_inflight_per_shard, self.serving.queue_capacity
        )
        self.accepting = False
        self.crashed = False
        self.pid: int | None = None
        self._closing = False
        self._process = None
        self._channel: FramedChannel | None = None
        self._reader: threading.Thread | None = None
        self._ready = threading.Event()
        self._lock = threading.Lock()
        self._turn = threading.Condition(self._lock)
        self._inflight: dict[tuple[int, int], FrameRequest] = {}
        self._streams: set[int] = set()
        self._stream_scale: dict[int, int] = {}
        self._send_lock = threading.Lock()
        self._queue_depth = 0
        self._scale_cap: int | None = None
        self._max_batch_size = self.serving.max_batch_size

    # -- lifecycle -----------------------------------------------------------
    def start(self, wait_ready: bool = True) -> "ProcessReplica":
        """Spawn the child process; optionally block until its ``Hello``."""
        context = multiprocessing.get_context("spawn")
        parent_end, child_end = context.Pipe(duplex=True)
        self._process = context.Process(
            target=replica_main,
            args=(self.spec, child_end, self.procpool.metrics_interval_s),
            daemon=True,
            name=f"repro-shard-{self.shard_id}",
        )
        self._process.start()
        child_end.close()
        self._channel = FramedChannel(PipeStream(parent_end))
        self._reader = threading.Thread(
            target=self._reader_loop,
            daemon=True,
            name=f"repro-shard-{self.shard_id}-reader",
        )
        self._reader.start()
        if wait_ready:
            self.wait_ready(self.procpool.start_timeout_s)
        return self

    def wait_ready(self, timeout: float) -> None:
        """Block until the child announced itself; raise if it never does."""
        if not self._ready.wait(timeout):
            self.kill()
            raise TimeoutError(
                f"shard {self.shard_id}: replica process sent no Hello within "
                f"{timeout:.0f}s"
            )
        if self.crashed:
            raise RuntimeError(
                f"shard {self.shard_id}: replica process died during startup "
                f"(exitcode {self._process.exitcode if self._process else None})"
            )

    def stop(self, cancel_pending: bool = False) -> None:
        """Orderly shutdown with escalation: Shutdown → SIGTERM → SIGKILL."""
        with self._turn:
            if self._closing:
                return
            self._closing = True
            self.accepting = False
            self._turn.notify_all()
        self._send_quietly(Shutdown(cancel_pending=cancel_pending))
        if self._process is not None:
            self._process.join(5.0)
            if self._process.is_alive():
                self._process.terminate()
                self._process.join(2.0)
            if self._process.is_alive():  # pragma: no cover - last resort
                self._process.kill()
                self._process.join(2.0)
        # Join the reader *before* closing the channel: the child's exit
        # guarantees EOF, and the reader must drain the buffered final
        # telemetry/span flush rather than have the pipe yanked away.
        if self._reader is not None and self._reader is not threading.current_thread():
            self._reader.join(2.0)
        if self._channel is not None:
            self._channel.close()
        # Anything still unresolved (child died mid-shutdown) must not hang
        # a caller blocked on request.result().
        for stream_id in self.assigned_streams():
            self.fail_stream_inflight(stream_id, RequestStatus.CANCELLED)

    def kill(self) -> None:
        """SIGKILL the child — the fault injector's weapon of choice."""
        if self._process is not None and self._process.is_alive():
            self._process.kill()

    @property
    def alive(self) -> bool:
        """Whether the child process is currently running."""
        return self._process is not None and self._process.is_alive()

    # -- reader thread -------------------------------------------------------
    def _reader_loop(self) -> None:
        try:
            while True:
                message = self._channel.recv()
                if isinstance(message, Hello):
                    self.pid = message.pid
                    # Clock probes go out *before* accepting flips, so they
                    # hit the child's dedicated handshake loop back-to-back
                    # (minimum RTT) and precede any control/data traffic.
                    for _ in range(CLOCK_PROBES):
                        self._send_quietly(ClockPing(sent_s=time.monotonic()))
                    self.accepting = True
                    self._ready.set()
                elif isinstance(message, Done):
                    self._on_done(message)
                elif isinstance(message, Telemetry):
                    self._on_telemetry(message)
                elif isinstance(message, ClockPong):
                    self._on_clock_pong(message)
                elif isinstance(message, Spans):
                    self._on_spans(message)
        except FrameError:
            pass  # EOF / truncation: orderly close or a crash — decided below
        finally:
            self._finalize_clock()
            with self._turn:
                if not self._closing:
                    self.crashed = True
                self.accepting = False
                self._turn.notify_all()
            self._ready.set()

    # -- clock offset / span rebasing ----------------------------------------
    def _on_clock_pong(self, pong: ClockPong) -> None:
        recv_s = time.monotonic()
        rtt = max(recv_s - pong.sent_s, 0.0)
        # The child read its clock somewhere inside [sent, recv]; assuming
        # the midpoint bounds the error by half the round trip (NTP's rule).
        offset = pong.child_s - 0.5 * (pong.sent_s + recv_s)
        self._clock_samples.append((rtt, offset))
        if len(self._clock_samples) >= CLOCK_PROBES:
            self._finalize_clock()

    def _finalize_clock(self) -> None:
        if self.clock_offset_s is not None or not self._clock_samples:
            return
        rtt, offset = min(self._clock_samples)
        self.clock_offset_s = offset
        self.clock_uncertainty_s = rtt / 2.0
        pending, self._pending_spans = self._pending_spans, []
        for payload in pending:
            self._ingest_span(payload)

    def _on_spans(self, message: Spans) -> None:
        self._span_drops = max(self._span_drops, int(message.dropped))
        for payload in message.events:
            if self.clock_offset_s is None:
                # Pipe FIFO makes this unreachable in practice (pongs precede
                # spans), but a lost probe must not lose spans: hold them
                # until the offset lands (or the reader's final flush).
                self._pending_spans.append(payload)
            else:
                self._ingest_span(payload)

    def _ingest_span(self, payload: dict) -> None:
        """Rebase one child event onto the parent timeline and re-emit it."""
        tracer = active_tracer()
        if tracer is None:
            return
        offset = self.clock_offset_s if self.clock_offset_s is not None else 0.0
        base = self._trace_namespace << _TRACE_NAMESPACE_BITS
        # One positional construction per event and no dict copies (payloads
        # are freshly unpickled SpanEvent.to_dict output owned here, so their
        # attrs dict is extended in place): the parent ingests ~10 per fleet
        # frame on the cores its shards use.
        trace_id, parent_id = payload["trace_id"], payload["parent_id"]
        attrs = payload["attrs"]
        attrs["os_pid"] = self.pid if self.pid is not None else -1
        attrs["generation"] = self.generation
        tracer.ingest(
            SpanEvent(
                payload["name"],
                payload["kind"],
                trace_id + base if trace_id > 0 else trace_id,
                payload["span_id"] + base,
                None if parent_id is None else parent_id + base,
                payload["start_s"] - offset,
                payload["duration_s"],
                payload["stream_id"],
                payload["frame_index"],
                payload["shard_id"],
                attrs,
            )
        )

    @property
    def span_drops(self) -> int:
        """Spans the child shed at its export buffer (cumulative; 0 = lossless)."""
        return self._span_drops

    def _on_done(self, message: Done) -> None:
        status = RequestStatus(message.status)
        with self._turn:
            request = self._inflight.pop((message.stream_id, message.frame_index), None)
            if message.current_scale is not None:
                self._stream_scale[message.stream_id] = int(message.current_scale)
            self._turn.notify_all()
        if status is RequestStatus.COMPLETED:
            self.metrics.on_completed(
                stream_id=message.stream_id,
                queue_wait_s=message.queue_wait_s,
                service_s=message.service_s,
                latency_s=message.latency_s,
            )
        else:
            self.metrics.on_shed(status.value)
        if request is None:
            return
        detection = None
        if status is RequestStatus.COMPLETED and message.boxes is not None:
            # Lightweight reconstruction: the wire carries the reportable
            # arrays, not the regressor features / full class distributions.
            count = int(message.boxes.shape[0])
            detection = DetectionResult(
                boxes=message.boxes,
                scores=message.scores,
                class_ids=message.class_ids,
                probs=np.zeros((count, 0), dtype=np.float32),
                proposals=np.zeros((0, 4), dtype=np.float32),
                features=np.zeros((1, 0, 0, 0), dtype=np.float32),
                scale_factor=1.0,
                target_scale=message.scale_used,
                image_size=(0, 0),
            )
        request.resolve(
            FrameResult(
                stream_id=message.stream_id,
                frame_index=message.frame_index,
                status=status,
                detection=detection,
                scale_used=message.scale_used,
                next_scale=message.next_scale,
                is_key_frame=message.is_key_frame,
                queue_wait_s=message.queue_wait_s,
                service_s=message.service_s,
                latency_s=message.latency_s,
            )
        )

    def _on_telemetry(self, message: Telemetry) -> None:
        with self._turn:
            self._queue_depth = int(message.queue_depth)
            self._scale_cap = message.scale_cap
            self._max_batch_size = int(message.max_batch_size)
        for size in message.batch_sizes:
            self.metrics.observe_batch(size)
        for depth in message.queue_depths:
            self.metrics.observe_queue_depth(depth)

    # -- stream lifecycle ----------------------------------------------------
    def open_stream(self, stream_id: int, initial_scale: int | None = None) -> None:
        """Register a stream; ``initial_scale`` re-seeds a migrated stream."""
        self._streams.add(stream_id)
        if initial_scale is not None:
            self._stream_scale[stream_id] = int(initial_scale)
        self._send_quietly(OpenStream(stream_id=stream_id, initial_scale=initial_scale))

    def close_stream(self, stream_id: int) -> None:
        """Mark a stream closed."""
        self._streams.discard(stream_id)
        self._send_quietly(CloseStream(stream_id=stream_id))

    def submit(self, stream_id: int, image: np.ndarray, frame_index: int) -> FrameRequest:
        """Ship one frame to the child; blocks at the submission window.

        On a crashed/closing shard the frame is shed locally as ``dropped``
        (the supervisor re-homes the *stream*; frames offered to a dead shard
        before the router catches up are honestly lost, and counted).
        """
        request = FrameRequest(
            stream_id=stream_id, frame_index=int(frame_index), image=np.asarray(image)
        )
        self.metrics.on_submitted()
        with self._turn:
            while (
                len(self._inflight) >= self.max_inflight
                and not self.crashed
                and not self._closing
            ):
                self._turn.wait(0.1)
            if self.crashed or self._closing:
                self.metrics.on_shed(RequestStatus.DROPPED.value)
                request.resolve_shed(RequestStatus.DROPPED)
                return request
            self._inflight[(stream_id, int(frame_index))] = request
        try:
            self._send(
                Submit(stream_id=stream_id, frame_index=int(frame_index), image=request.image)
            )
        except FrameError:
            with self._turn:
                self._inflight.pop((stream_id, int(frame_index)), None)
                self.crashed = True
                self._turn.notify_all()
            self.metrics.on_shed(RequestStatus.DROPPED.value)
            request.resolve_shed(RequestStatus.DROPPED)
        return request

    def drain(self, timeout: float | None = None) -> bool:
        """Block until every in-flight frame reached a terminal state."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._turn:
            while self._inflight:
                if self.crashed:
                    return False  # the supervisor owns the cleanup now
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._turn.wait(0.1 if remaining is None else min(remaining, 0.1))
            return True

    def fail_stream_inflight(self, stream_id: int, status: RequestStatus) -> int:
        """Resolve a stream's in-flight frames as shed; returns the count.

        The migration path: the dead child will never answer these, so the
        supervisor terminates them with ``MIGRATED`` (stream re-homed) or
        ``DROPPED`` (stream stranded) and the shed accounting records which.
        """
        with self._turn:
            keys = [key for key in self._inflight if key[0] == stream_id]
            requests = [self._inflight.pop(key) for key in keys]
            self._turn.notify_all()
        for request in requests:
            self.metrics.on_shed(status.value)
            request.resolve_shed(status)
        return len(requests)

    def assigned_streams(self) -> list[int]:
        """Stream ids with frames currently in flight on this shard."""
        with self._turn:
            return sorted({stream_id for stream_id, _ in self._inflight})

    def last_scale(self, stream_id: int) -> int | None:
        """The stream's last committed AdaScale scale (migration re-seed)."""
        with self._turn:
            return self._stream_scale.get(stream_id)

    # -- control-plane view ---------------------------------------------------
    @property
    def outstanding(self) -> int:
        """Frames submitted to this shard but not yet terminal."""
        with self._turn:
            return len(self._inflight)

    @property
    def active_streams(self) -> int:
        """Streams currently open on this shard."""
        return len(self._streams)

    @property
    def queue_depth(self) -> int:
        """Child scheduler depth from the latest telemetry snapshot."""
        with self._turn:
            return self._queue_depth

    @property
    def occupancy(self) -> float:
        """Outstanding frames per child worker (the live load signal)."""
        return self.outstanding / self.serving.num_workers

    @property
    def max_batch_size(self) -> int:
        """The child scheduler's current micro-batch bound."""
        with self._turn:
            return self._max_batch_size

    @property
    def scale_cap(self) -> int | None:
        """The control plane's current quality ceiling."""
        with self._turn:
            return self._scale_cap

    def recent_latency(self, window: int):
        """Rolling end-to-end latency over the last ``window`` completions."""
        return self.metrics.recent_latency(window)

    def set_scale_cap(self, scale_cap: int | None) -> None:
        """Clamp the shard's streams to at most ``scale_cap``."""
        with self._turn:
            self._scale_cap = int(scale_cap) if scale_cap is not None else None
        self._send_quietly(SetScaleCap(scale_cap=scale_cap))

    def set_max_batch_size(self, max_batch_size: int) -> None:
        """Adjust the child scheduler's micro-batch bound."""
        with self._turn:
            self._max_batch_size = int(max_batch_size)
        self._send_quietly(SetMaxBatchSize(max_batch_size=int(max_batch_size)))

    # -- plumbing -------------------------------------------------------------
    def _send(self, message) -> None:
        with self._send_lock:
            if self._channel is None:
                raise ChannelClosed("replica not started")
            self._channel.send(message)

    def _send_quietly(self, message) -> None:
        """Send where a dead peer is not an error (control-plane best effort)."""
        try:
            self._send(message)
        except FrameError:
            pass


# -- supervision ---------------------------------------------------------------
class ReplicaSupervisor:
    """Crash detection, stream migration and bounded-backoff respawn.

    Owns the fleet list *in place* (the controller and router keep their
    references).  ``poll`` is called from the controller's tick loop; it is
    cheap when nothing is wrong.  All times are the controller's relative
    clock (seconds since run start), matching the report timeline.

    When tracing is on, supervision gets its own swimlane: crash handling,
    each stream's migration, and the crash→respawn outage window are emitted
    as first-class duration spans (``supervisor/*``, parent monotonic clock —
    the same timeline child spans are rebased onto) alongside the existing
    ``cluster/*`` decision events, with injected faults annotated on the
    crash span they caused.
    """

    def __init__(
        self,
        fleet: list,
        router,
        config: ProcessPoolConfig,
        on_action=None,
    ) -> None:
        self.fleet = fleet
        self.router = router
        self.config = config
        self._on_action = on_action
        self.crashes = 0
        self.respawns = 0
        self.migrated_streams = 0
        self.stranded_streams = 0
        #: spans shed by replicas this supervisor already reaped (the live
        #: fleet's counters are read separately at report time)
        self.span_drops = 0
        self._attempts: dict[int, int] = {}
        self._respawn_at: dict[int, tuple[float, ProcessReplica]] = {}
        self._handled: set[int] = set()
        self._fault_notes: dict[int, str] = {}
        self._crash_abs: dict[int, float] = {}

    # -- the watch loop ------------------------------------------------------
    def poll(self, now: float) -> None:
        """Detect crashes, run due respawns.  ``now`` = seconds since start."""
        for replica in list(self.fleet):
            if getattr(replica, "crashed", False) and id(replica) not in self._handled:
                self._handled.add(id(replica))
                self._handle_crash(replica, now)
        for shard_id in [s for s, (due, _) in self._respawn_at.items() if now >= due]:
            self._respawn(shard_id, now)

    def _handle_crash(self, replica: ProcessReplica, now: float) -> None:
        crash_abs = time.monotonic()
        self.crashes += 1
        replica.accepting = False
        process = replica._process
        if process is not None:
            # The channel can report the death before the child is reaped,
            # and ``exitcode`` reads None until it is.
            process.join(1.0)
        exitcode = process.exitcode if process is not None else None
        fault = self._fault_notes.pop(replica.shard_id, None)
        _LOGGER.warning(
            "shard %d: replica process died (pid %s, exitcode %s)",
            replica.shard_id, replica.pid, exitcode,
        )
        self._emit(
            now, replica.shard_id, "crash", "process", 1, 0,
            reason=f"replica process died (pid {replica.pid}, exitcode {exitcode})",
        )
        self._migrate_streams(replica, now, cause="crash")
        replica.stop()  # reap the corpse; the channel is already dead
        self.span_drops += replica.span_drops
        self._crash_abs[replica.shard_id] = crash_abs
        attempts = self._attempts.get(replica.shard_id, 0) + 1
        self._attempts[replica.shard_id] = attempts
        if attempts <= self.config.max_respawns:
            delay = min(
                self.config.respawn_backoff_s * 2 ** (attempts - 1),
                self.config.respawn_backoff_max_s,
            )
            self._respawn_at[replica.shard_id] = (now + delay, replica)
        else:
            self._emit(
                now, replica.shard_id, "abandon", "process", 1, 0,
                reason=f"crash {attempts} exceeds max_respawns={self.config.max_respawns}",
            )
        tracer = active_tracer()
        if tracer is not None:
            tracer.span(
                "supervisor/crash",
                start_s=crash_abs,
                duration_s=time.monotonic() - crash_abs,
                shard_id=replica.shard_id,
                pid=replica.pid if replica.pid is not None else -1,
                generation=replica.generation,
                exitcode=exitcode if exitcode is not None else 0,
                fault=fault if fault is not None else "",
            )

    def _migrate_streams(self, replica: ProcessReplica, now: float, cause: str) -> None:
        """Re-home every live stream of ``replica``; account the in-flight loss."""
        tracer = active_tracer()
        for stream_id in self.router.streams_on(replica):
            move_abs = time.monotonic()
            scale = replica.last_scale(stream_id)
            target = self.router.reassign(stream_id, self.fleet, exclude=(replica,))
            if target is not None:
                target.open_stream(stream_id, initial_scale=scale)
                abandoned = replica.fail_stream_inflight(stream_id, RequestStatus.MIGRATED)
                replica.close_stream(stream_id)
                self.migrated_streams += 1
                self._emit(
                    now, target.shard_id, "migrate", "stream",
                    replica.shard_id, target.shard_id,
                    reason=(
                        f"stream {stream_id} re-homed after {cause} "
                        f"({abandoned} in-flight frame(s) abandoned, "
                        f"scale re-seeded to {scale})"
                    ),
                )
                if tracer is not None:
                    tracer.span(
                        "supervisor/migrate",
                        start_s=move_abs,
                        duration_s=time.monotonic() - move_abs,
                        shard_id=target.shard_id,
                        stream_id=stream_id,
                        from_shard=replica.shard_id,
                        to_shard=target.shard_id,
                        frames_abandoned=abandoned,
                        cause=cause,
                    )
            else:
                abandoned = replica.fail_stream_inflight(stream_id, RequestStatus.DROPPED)
                self.stranded_streams += 1
                self._emit(
                    now, replica.shard_id, "strand", "stream",
                    replica.shard_id, -1,
                    reason=f"stream {stream_id} stranded after {cause}: no live shard has room",
                )
                if tracer is not None:
                    tracer.span(
                        "supervisor/strand",
                        start_s=move_abs,
                        duration_s=time.monotonic() - move_abs,
                        shard_id=replica.shard_id,
                        stream_id=stream_id,
                        frames_abandoned=abandoned,
                        cause=cause,
                    )

    def _respawn(self, shard_id: int, now: float) -> None:
        due, dead = self._respawn_at.pop(shard_id)
        # Same spec, same parent-side metrics: the respawned shard continues
        # its predecessor's counters (per-shard reporting spans the crash)
        # while its bumped generation tags its spans apart in the fleet trace.
        fresh = ProcessReplica(
            dead.spec, self.config,
            metrics=dead.metrics,
            generation=dead.generation + 1,
        )
        fresh.start(wait_ready=False)  # accepting flips on Hello, async
        self.fleet[self.fleet.index(dead)] = fresh
        self.respawns += 1
        self._emit(
            now, shard_id, "respawn", "process", 0, 1,
            reason=(
                f"attempt {self._attempts[shard_id]} of {self.config.max_respawns}, "
                f"after bounded backoff"
            ),
        )
        tracer = active_tracer()
        if tracer is not None:
            # The span covers the whole outage window: crash detection
            # through bounded backoff to the fresh process's spawn call.
            start_abs = self._crash_abs.pop(shard_id, time.monotonic())
            tracer.span(
                "supervisor/respawn",
                start_s=start_abs,
                duration_s=time.monotonic() - start_abs,
                shard_id=shard_id,
                attempt=self._attempts[shard_id],
                generation=fresh.generation,
            )

    # -- autoscaler integration ----------------------------------------------
    def spawn_shard(self, spec: ReplicaSpec, now: float) -> ProcessReplica:
        """Scale-up: spawn a brand-new shard from ``spec`` and add it to the fleet."""
        replica = ProcessReplica(spec, self.config)
        replica.start(wait_ready=False)
        self.fleet.append(replica)
        self._emit(
            now, spec.shard_id, "spawn", "shards",
            len(self.fleet) - 1, len(self.fleet),
            reason="autoscaler scale-up",
        )
        return replica

    def drain_shard(self, replica: ProcessReplica, now: float, timeout: float = 30.0) -> None:
        """Scale-down: graceful drain — no frame is lost, streams migrate.

        In-flight frames finish on the old shard first (that is the
        difference from the crash path), then the shard's streams re-home
        with their committed scales and the process shuts down.
        """
        drain_abs = time.monotonic()
        replica.accepting = False
        self._emit(
            now, replica.shard_id, "drain", "shards",
            len(self.fleet), len(self.fleet) - 1,
            reason="autoscaler scale-down",
        )
        replica.drain(timeout=timeout)
        self._migrate_streams(replica, now, cause="drain")
        replica.stop()
        self.span_drops += replica.span_drops
        if replica in self.fleet:
            self.fleet.remove(replica)
        tracer = active_tracer()
        if tracer is not None:
            tracer.span(
                "supervisor/drain",
                start_s=drain_abs,
                duration_s=time.monotonic() - drain_abs,
                shard_id=replica.shard_id,
                pid=replica.pid if replica.pid is not None else -1,
                generation=replica.generation,
            )

    def note_fault(self, now: float, replica: ProcessReplica, kind: str) -> None:
        """Record an injected fault on the timeline (the injector's hook).

        The note also annotates the crash span the fault is about to cause:
        when this shard's death is detected, its ``supervisor/crash`` span
        carries ``fault=<kind>`` so a trace distinguishes injected chaos from
        organic failures.
        """
        self._fault_notes[replica.shard_id] = kind
        self._emit(
            now, replica.shard_id, "fault", "process", 1, 0,
            reason=f"injected {kind} (pid {replica.pid})",
        )

    # -- bookkeeping ----------------------------------------------------------
    def _emit(
        self, now: float, shard_id: int, action: str, knob: str,
        old: int, new: int, reason: str,
    ) -> None:
        event = GovernorAction(
            time_s=float(now),
            shard_id=int(shard_id),
            action=action,
            knob=knob,
            old=int(old),
            new=int(new),
            p95_ms=0.0,
            queue_depth=0,
            reason=reason,
        )
        if self._on_action is not None:
            self._on_action(event)
        tracer = active_tracer()
        if tracer is not None:
            tracer.decision(event)
