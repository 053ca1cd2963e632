"""``serve_open`` / ``serve_saturated``: one generator thread on ``InferenceServer``.

Both drive the same server shape (2 workers, batch ≤ 4, queue 64, ``block``,
quantised scales) from one generator — the calling thread:

* ``serve_open`` is an open loop: every stream's frames are due at a fixed
  rate with a seeded phase, whatever the server does.  A frame is timed from
  when it was **due**, so a stall charges every frame it delays, and the
  generator's own lateness is reported, and the run is invalid if the
  generator fell behind by more than 10 ms in most of its segments.
* ``serve_saturated`` submits round-robin as fast as ``block`` backpressure
  admits; batches fill and capacity, not the clock, sets the pace.

Each stream cycles over one seeded video.  The same server first serves an
untimed warm-up, which only ``setup_s`` and ``serving.cold_start_p95_ms``
report.  The traced run rebuilds one root span per frame after the window,
from the generator's own clock reads around ``submit()`` and the
``queue_wait_s`` / ``service_s`` of each ``FrameResult``.
"""

from __future__ import annotations

import math
import gc
import statistics
import time
from collections import deque
from typing import NamedTuple

import numpy as np
from repro.serving import InferenceServer

from harness import measure, stats
from harness.inputs import Sizes, experiment_config, load_bundle, render_videos
from harness.spans import SpanRecorder

LATENESS_LIMIT_MS = 10.0
#: Streams whose served detections are compared with the offline reference.
REFERENCE_STREAMS = 2
RESULT_TIMEOUT_S = 120.0


class _Frame(NamedTuple):
    """One submitted frame, reduced to its timings (monotonic seconds)."""

    due: float
    began: float  # submit() entered
    ended: float  # submit() returned
    enqueued: float
    ok: bool
    queue_wait_s: float
    service_s: float
    latency_s: float

    @property
    def completed(self) -> float:
        return self.enqueued + self.latency_s


class _FrameLog:
    """The generator's record of every frame it submitted.

    A resolved request is reduced to its timings as soon as the generator
    next passes by, so the run does not retain every frame's detections and
    features (which made peak RSS follow throughput).
    """

    def __init__(self) -> None:
        self.frames: list[_Frame] = []
        self._pending: deque = deque()

    def __len__(self) -> int:
        return len(self.frames) + len(self._pending)

    def submitted(self, due: float, began: float, ended: float, request) -> None:
        self._pending.append((due, began, ended, request))
        self.harvest()

    def harvest(self, wait_s: float = 0.0) -> None:
        """Reduce resolved requests from the head; ``wait_s`` > 0 waits for each."""
        while self._pending and (wait_s > 0 or self._pending[0][3].future.done()):
            due, began, ended, request = self._pending.popleft()
            try:
                result = request.result(timeout=wait_s)
                timings = (result.ok, result.queue_wait_s, result.service_s, result.latency_s)
            except Exception:  # noqa: BLE001 - a failed or unresolved frame counts as failed
                timings = (False, 0.0, 0.0, 0.0)
            self.frames.append(_Frame(due, began, ended, request.enqueue_time, *timings))


class _Streams:
    """Stream ``s`` cycles over the frames of video ``s % videos``."""

    def __init__(self, videos: list[list], count: int) -> None:
        self.sources = [videos[s % len(videos)] for s in range(count)]
        self.positions = [0] * count

    def __len__(self) -> int:
        return len(self.sources)

    def next_image(self, stream: int) -> tuple[np.ndarray, int]:
        index = self.positions[stream]
        self.positions[stream] = index + 1
        source = self.sources[stream]
        return source[index % len(source)].image, index

    def frame(self, stream: int, index: int):
        source = self.sources[stream]
        return source[index % len(source)]


def _set_up(workload: str, seed: int, sizes: Sizes):
    """Fixture load → render → server start → warm-up through that server."""
    config = experiment_config(seed, sizes, quantize=True)
    bundle = load_bundle(config)
    count = sizes.open_streams if workload == "serve_open" else sizes.saturated_streams
    streams = _Streams(render_videos(bundle, min(count, sizes.videos)), count)
    server = InferenceServer(bundle, serving=config.serving).start()
    warm = []
    for _ in range(math.ceil(sizes.warmup_frames / count)):
        for stream in range(count):
            image, index = streams.next_image(stream)
            warm.append(server.submit(stream, image, frame_index=index))
    server.drain()
    warm_latency_s = [request.result(RESULT_TIMEOUT_S).latency_s for request in warm]
    return bundle, streams, server, warm_latency_s


def _open_loop(server, streams: _Streams, seed: int, seconds: float, rate_fps: float):
    """Submit every frame when it is due.

    Returns the frame log and the segment clock.
    """
    gap = 1.0 / rate_fps
    per_stream = int(seconds * rate_fps)
    # Every period is cut into one slot per stream and frame k of stream s is
    # due at a seeded point in the middle half of slot s: cameras at a fixed
    # rate with staggered phases and jitter.  Which frames collide is then not
    # a property of the seed (fixed random phases made p95 swing 2x between
    # seeds) and bursts do not turn machine noise into queueing (fully random
    # due times made p95 three service times and its spread 0.5).
    jitter = np.random.default_rng(seed).uniform(0.25, 0.75, size=(len(streams), per_stream))
    schedule = sorted(
        (float((k + (stream + jitter[stream, k]) / len(streams)) * gap), stream)
        for stream in range(len(streams))
        for k in range(per_stream)
    )
    log = _FrameLog()
    clock = time.monotonic
    origin = clock() + 0.02
    segments = measure.SegmentClock(origin, seconds)
    for offset, stream in schedule:
        due = origin + offset
        wait = due - clock()
        if wait > 0:
            time.sleep(wait)
        image, index = streams.next_image(stream)
        began = clock()
        request = server.submit(stream, image, frame_index=index)
        ended = clock()
        log.submitted(due, began, ended, request)
        segments.tick(ended)
    return log, segments


def _saturating_loop(server, streams: _Streams, seconds: float):
    """Submit round-robin as fast as ``block`` admits until the window closes."""
    log = _FrameLog()
    clock = time.monotonic
    origin = clock()
    segments = measure.SegmentClock(origin, seconds)
    deadline = origin + seconds
    stream = 0
    while True:
        began = clock()
        if began >= deadline:
            break
        image, index = streams.next_image(stream)
        request = server.submit(stream, image, frame_index=index)
        ended = clock()
        log.submitted(began, began, ended, request)
        segments.tick(ended)
        stream = (stream + 1) % len(streams)
    return log, segments


def _matches_offline(bundle, streams: _Streams, stream: int, result) -> bool:
    """Served detections and scales equal ``process_video`` on the same frames."""
    images = [streams.frame(stream, index).image for index in result.frame_indices]
    reference = bundle.adascale.process_video(images)
    return reference.scales_used == list(result.scales_used) and all(
        measure.same_detections(output.detection, record)
        for output, record in zip(reference.outputs, result.records)
    )


def _frame_spans(rec: SpanRecorder, frames: list[_Frame]) -> None:
    """One root span per served frame, rebuilt after the measured window."""
    for trace, frame in enumerate(frames):
        if not frame.ok:
            continue
        dispatched = frame.enqueued + frame.queue_wait_s
        root = rec.add(
            "frame", "bench", min(frame.due, frame.began),
            max(frame.completed, frame.ended), None, trace,
        )  # fmt: skip
        if frame.began > frame.due:
            rec.add("bench.generator_late", "bench", frame.due, frame.began, root, trace)
        rec.add("serving.submit", "serving", frame.began, frame.ended, root, trace)
        rec.add("serving.queue_wait", "serving", frame.enqueued, dispatched, root, trace)
        rec.add("serving.service", "serving", dispatched, frame.completed, root, trace)


def run(
    workload: str,
    seed: int,
    seconds: float,
    traced: bool,
    sizes: Sizes,
    import_s: float,
    rec: SpanRecorder | None,
) -> measure.Outcome:
    open_loop = workload == "serve_open"
    setup_times = []
    cold_latency_s: list[float] = []
    state = None
    for _ in range(measure.SETUP_REPS):
        if state is not None:
            state[2].stop()
            state = None
        gc.collect()  # the previous set-up's cycles must not pad this run's peak RSS
        start = time.perf_counter()
        state = _set_up(workload, seed, sizes)
        setup_times.append(time.perf_counter() - start)
        cold_latency_s = cold_latency_s or state[3]  # the first server of the process
    bundle, streams, server, warm_latency_s = state
    setup_s = import_s + statistics.median(setup_times)

    try:
        batch_mark, _ = server.metrics.batch_sizes_since(0)
        depth_mark, _ = server.metrics.queue_depths_since(0)
        warm_frames = len(warm_latency_s)
        if open_loop:
            log, segments = _open_loop(server, streams, seed, seconds, sizes.open_rate_fps)
        else:
            log, segments = _saturating_loop(server, streams, seconds)
        server.drain(timeout=RESULT_TIMEOUT_S)
        segments.close(time.monotonic())
        log.harvest(wait_s=1.0)
        snapshot = server.telemetry()
        _, batch_sizes = server.metrics.batch_sizes_since(batch_mark)
        _, queue_depths = server.metrics.queue_depths_since(depth_mark)
        per_stream = server.finalize()
    finally:
        server.stop()

    frames = log.frames
    served = [frame for frame in frames if frame.ok]
    if open_loop:
        latencies = [frame.completed - frame.due for frame in served]
    else:
        latencies = [frame.latency_s for frame in served]
    end_to_end, info = measure.end_to_end_metrics(
        setup_s=setup_s,
        latencies_s=latencies,
        completion_times=[frame.completed for frame in served],
        clock=segments,
    )
    lateness_ms = [1000.0 * (frame.began - frame.due) for frame in frames]
    lateness_p99 = stats.percentile(lateness_ms, 99.0) if open_loop else 0.0
    # Validity uses the stall-proof form of the tail: a generator that cannot
    # keep up is late in every segment, one external stall is late in one.
    sustained_lateness_ms, _ = stats.segmented_p95(lateness_ms, measure.TIME_SEGMENTS)

    reference_rng = np.random.default_rng(seed)
    sampled = sorted(
        int(s) for s in reference_rng.choice(len(streams), size=REFERENCE_STREAMS, replace=False)
    )
    checks = {
        "frames_conserved": (
            snapshot.submitted == snapshot.completed + snapshot.shed + snapshot.failed
            and snapshot.submitted == warm_frames + len(frames)
            and snapshot.completed == warm_frames + len(served)
        ),
        "per_stream_order": all(
            result.frame_indices == list(range(streams.positions[stream]))
            for stream, result in per_stream.items()
        ),
        "sampled_streams_match_offline": all(
            _matches_offline(bundle, streams, stream, per_stream[stream]) for stream in sampled
        ),
        "no_frame_failed": len(served) == len(frames),
    }
    if open_loop and len(frames) >= measure.TIME_SEGMENTS * stats.MIN_SEGMENT_SAMPLES:
        # (a smoke-sized run has too few samples per segment for a tail)
        checks["generator_on_time"] = sustained_lateness_ms < LATENESS_LIMIT_MS
    info.update(
        streams=len(streams),
        offered_fps=len(streams) * sizes.open_rate_fps if open_loop else "as admitted",
        warmup_frames=warm_frames,
        generator_lateness_ms_p99=lateness_p99,
        generator_lateness_ms_segment_p95=sustained_lateness_ms,
        reference_streams=sampled,
    )

    per_layer: dict[str, float] = {}
    if traced:
        _frame_spans(rec, frames)
        checks["spans_parent_correctly"] = rec.check_parenting()
        queue_wait_ms = [1000.0 * frame.queue_wait_s for frame in served]
        service_ms = [1000.0 * frame.service_s for frame in served]
        records, scales = [], []
        for stream, result in per_stream.items():
            cycle = len(streams.sources[stream])
            records.extend(
                measure.record_of(record, streams.frame(stream, index))
                for record, index in zip(result.records[:cycle], result.frame_indices)
            )
            scales.append(list(result.scales_used))
        native = min(streams.sources[0][0].image.shape[:2])
        submit_s, submit_count = rec.total("serving.submit")
        shed = snapshot.shed_by_cause
        per_layer = {
            **measure.scale_metrics(scales, native),
            "core.map_pct": measure.map_pct(records, bundle.class_names),
            "serving.queue_wait_ms_p50": stats.percentile(queue_wait_ms, 50.0),
            "serving.queue_wait_ms_p95": stats.percentile(queue_wait_ms, 95.0),
            "serving.service_ms_p50": stats.percentile(service_ms, 50.0),
            "serving.batch_occupancy": float(np.mean(batch_sizes)) if batch_sizes else 0.0,
            "serving.max_queue_depth": float(max(queue_depths, default=0)),
            "serving.submit_us_per_frame": 1e6 * submit_s / submit_count if submit_count else 0.0,
            "serving.generator_lateness_ms_p99": lateness_p99,
            "serving.cold_start_p95_ms": 1000.0 * stats.percentile(cold_latency_s, 95.0),
            "serving.shed_dropped": float(shed["dropped"]),
            "serving.shed_expired": float(shed["expired"]),
            "serving.shed_rejected": float(shed["rejected"]),
            "serving.failed": float(len(frames) - len(served) - snapshot.shed),
            "bench.traced_throughput_fps": end_to_end["throughput_fps"],
        }

    return measure.Outcome(
        attempted=len(frames),
        failed=len(frames) - len(served),
        checks=checks,
        end_to_end=end_to_end,
        per_layer=per_layer,
        info=info,
    )

