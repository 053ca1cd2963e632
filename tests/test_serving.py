"""Tests for the multi-stream serving subsystem (``repro.serving``)."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.acceleration.combined import AdaScaleDFFDetector
from repro.acceleration.seqnms import seq_nms
from repro.config import ServingConfig
from repro.evaluation.runtime import RuntimeStats
from repro.serving import (
    ArrivalEvent,
    FrameRequest,
    FrameResult,
    FrameScheduler,
    InferenceServer,
    LoadGenerator,
    RequestStatus,
    ServerMetrics,
)


def _request(stream_id: int, frame_index: int, scale: int, enqueue_time: float = 0.0):
    return FrameRequest(
        stream_id=stream_id,
        frame_index=frame_index,
        image=np.zeros((4, 4, 3), dtype=np.float32),
        enqueue_time=enqueue_time,
        scale=scale,
    )


class TestRuntimeStatsPercentiles:
    def test_percentiles(self):
        stats = RuntimeStats(name="x")
        for value in range(1, 101):  # 1ms .. 100ms
            stats.add(value / 1000.0)
        assert stats.p50_ms == pytest.approx(50.5, abs=0.6)
        assert stats.p95_ms == pytest.approx(95.05, abs=0.6)
        assert stats.p99_ms == pytest.approx(99.01, abs=0.6)
        assert stats.percentile(0.0) == pytest.approx(1.0)
        assert stats.percentile(100.0) == pytest.approx(100.0)

    def test_empty_and_invalid(self):
        stats = RuntimeStats()
        assert np.isnan(stats.p95_ms)
        with pytest.raises(ValueError):
            stats.percentile(101.0)

    def test_summary_keys(self):
        stats = RuntimeStats(name="y")
        stats.add(0.01)
        summary = stats.summary()
        assert set(summary) == {"count", "mean_ms", "p50_ms", "p95_ms", "p99_ms", "fps"}

    def test_runtime_summary_table(self):
        from repro.evaluation import runtime_summary_table

        stats = RuntimeStats(name="svc")
        stats.add(0.002)
        table = runtime_summary_table([stats], title="latency")
        assert "p95 (ms)" in table
        assert "svc" in table


class TestFrameScheduler:
    def test_batches_group_by_scale(self):
        scheduler = FrameScheduler(queue_capacity=16, max_batch_size=4, batch_wait_s=0.0)
        for stream, scale in enumerate([64, 48, 64, 64, 48]):
            scheduler.submit(_request(stream, 0, scale, enqueue_time=float(stream)))
        batch = scheduler.next_batch(timeout=0.1)
        # Oldest head has scale 64; all ready same-scale heads batch together.
        assert [r.stream_id for r in batch] == [0, 2, 3]
        assert all(r.resolve_scale() == 64 for r in batch)

    def test_max_batch_size(self):
        scheduler = FrameScheduler(queue_capacity=16, max_batch_size=2, batch_wait_s=0.0)
        for stream in range(4):
            scheduler.submit(_request(stream, 0, 64, enqueue_time=float(stream)))
        assert len(scheduler.next_batch(timeout=0.1)) == 2
        assert len(scheduler.next_batch(timeout=0.1)) == 2

    def test_per_stream_sequencing(self):
        scheduler = FrameScheduler(queue_capacity=16, max_batch_size=4, batch_wait_s=0.0)
        scheduler.submit(_request(0, 0, 64, enqueue_time=0.0))
        scheduler.submit(_request(0, 1, 64, enqueue_time=1.0))
        batch = scheduler.next_batch(timeout=0.1)
        assert [(r.stream_id, r.frame_index) for r in batch] == [(0, 0)]
        # Frame 1 is not ready until frame 0 is marked done.
        assert scheduler.next_batch(timeout=0.02) == []
        scheduler.task_done(0)
        batch = scheduler.next_batch(timeout=0.1)
        assert [(r.stream_id, r.frame_index) for r in batch] == [(0, 1)]

    def test_reject_policy(self):
        scheduler = FrameScheduler(queue_capacity=1, backpressure="reject", batch_wait_s=0.0)
        assert scheduler.submit(_request(0, 0, 64)) is True
        rejected = _request(1, 0, 64)
        assert scheduler.submit(rejected) is False
        assert rejected.result(timeout=1.0).status is RequestStatus.REJECTED

    def test_drop_oldest_policy(self):
        scheduler = FrameScheduler(queue_capacity=2, backpressure="drop-oldest", batch_wait_s=0.0)
        oldest = _request(0, 0, 64, enqueue_time=0.0)
        scheduler.submit(oldest)
        scheduler.submit(_request(1, 0, 64, enqueue_time=1.0))
        newest = _request(2, 0, 64, enqueue_time=2.0)
        assert scheduler.submit(newest) is True
        assert oldest.result(timeout=1.0).status is RequestStatus.DROPPED
        assert scheduler.depth == 2

    def test_block_policy_unblocks_on_dispatch(self):
        scheduler = FrameScheduler(queue_capacity=1, backpressure="block", batch_wait_s=0.0)
        scheduler.submit(_request(0, 0, 64))
        admitted = threading.Event()

        def blocked_submit():
            scheduler.submit(_request(1, 0, 64, enqueue_time=1.0))
            admitted.set()

        thread = threading.Thread(target=blocked_submit, daemon=True)
        thread.start()
        time.sleep(0.05)
        assert not admitted.is_set()  # still blocked: queue full
        assert len(scheduler.next_batch(timeout=0.2)) == 1  # frees a slot
        assert admitted.wait(timeout=2.0)
        thread.join(timeout=2.0)

    def test_deadline_expiry(self):
        now = [100.0]
        scheduler = FrameScheduler(
            queue_capacity=8, deadline_s=0.5, batch_wait_s=0.0, clock=lambda: now[0]
        )
        stale = _request(0, 0, 64, enqueue_time=100.0)
        scheduler.submit(stale)
        now[0] = 101.0  # deadline (100.5) has passed
        fresh = _request(1, 0, 64, enqueue_time=101.0)
        scheduler.submit(fresh)
        batch = scheduler.next_batch(timeout=0.1)
        assert [r.stream_id for r in batch] == [1]
        assert stale.result(timeout=1.0).status is RequestStatus.EXPIRED

    def test_deadline_ordering_prefers_urgent_bucket(self):
        scheduler = FrameScheduler(queue_capacity=8, batch_wait_s=0.0)
        late = _request(0, 0, 48, enqueue_time=5.0)
        urgent = _request(1, 0, 64, enqueue_time=9.0)
        urgent.deadline = 10.0
        late.deadline = 20.0
        scheduler.submit(late)
        scheduler.submit(urgent)
        batch = scheduler.next_batch(timeout=0.1)
        assert [r.stream_id for r in batch] == [1]

    def _fill_wait_scheduler(self, now: list[float]) -> FrameScheduler:
        """Stream 0 in flight on a fake clock, so a fill wait can apply."""
        scheduler = FrameScheduler(
            queue_capacity=16, max_batch_size=3, batch_wait_s=0.002, clock=lambda: now[0]
        )
        scheduler.submit(_request(0, 0, 64, enqueue_time=now[0]))
        batch, retry_at = scheduler.form_batch()  # no stream busy: goes at once
        assert [r.stream_id for r in batch] == [0] and retry_at is None
        return scheduler

    def test_fill_wait_holds_a_batch_that_takes_every_ready_head(self):
        now = [10.0]
        scheduler = self._fill_wait_scheduler(now)
        scheduler.submit(_request(1, 0, 64, enqueue_time=now[0]))
        deadline = 10.0 + scheduler.batch_wait_s
        assert scheduler.form_batch() == ([], deadline)
        now[0] = 10.001  # the wait runs from the first look, not this one
        assert scheduler.form_batch(deadline) == ([], deadline)
        now[0] = deadline
        batch, retry_at = scheduler.form_batch(deadline)
        assert [r.stream_id for r in batch] == [1] and retry_at is None
        assert batch[0].dispatch_time == deadline

    def test_fill_wait_ends_when_the_bucket_fills(self):
        now = [10.0]
        scheduler = self._fill_wait_scheduler(now)
        for stream in (1, 2):
            scheduler.submit(_request(stream, 0, 64, enqueue_time=now[0]))
        batch, deadline = scheduler.form_batch()
        assert batch == [] and deadline is not None
        scheduler.submit(_request(3, 0, 64, enqueue_time=now[0]))
        batch, retry_at = scheduler.form_batch(deadline)  # full before the deadline
        assert [r.stream_id for r in batch] == [1, 2, 3] and retry_at is None

    def test_fill_wait_is_work_conserving(self):
        now = [10.0]
        scheduler = self._fill_wait_scheduler(now)
        scheduler.submit(_request(1, 0, 64, enqueue_time=10.0))
        scheduler.submit(_request(2, 0, 48, enqueue_time=10.5))
        # Another bucket holds a ready head: no worker idles in a fill wait.
        batch, retry_at = scheduler.form_batch()
        assert [r.stream_id for r in batch] == [1] and retry_at is None

    def test_next_batch_sleeps_out_the_fill_wait(self):
        scheduler = FrameScheduler(queue_capacity=16, max_batch_size=4, batch_wait_s=0.02)
        scheduler.submit(_request(0, 0, 64))
        assert len(scheduler.next_batch(timeout=0.1)) == 1
        scheduler.submit(_request(1, 0, 64))
        start = time.monotonic()
        batch = scheduler.next_batch(timeout=0.0)  # the fill wait is not a timeout
        assert [r.stream_id for r in batch] == [1]
        assert time.monotonic() - start >= 0.015

    def test_batch_assembly_span_is_emitted_after_the_lock_is_released(self, monkeypatch):
        from repro.observability.trace import Tracer

        scheduler = FrameScheduler(queue_capacity=8, batch_wait_s=0.0)
        lock_free = []

        def probe_lock() -> None:
            # A span sink may write to disk; a submitter must not wait on it.
            probe = threading.Thread(target=lambda: scheduler.depth)
            probe.start()
            probe.join(timeout=1.0)
            lock_free.append(not probe.is_alive())

        with Tracer() as tracer:
            emit = tracer._emit

            def spy(event) -> None:
                if event.name == "serving/batch_assembly":
                    probe_lock()
                emit(event)

            monkeypatch.setattr(tracer, "_emit", spy)
            for stream, scale in ((0, 64), (1, 48)):  # two buckets, two batches
                request = _request(stream, 0, scale)
                request.trace = tracer.begin_trace(stream_id=stream, frame_index=0)
                scheduler.submit(request)
            assert len(scheduler.form_batch()[0]) == 1
            assert len(scheduler.next_batch(timeout=0.1)) == 1
        assert lock_free == [True, True]

    def test_close_cancels_pending(self):
        scheduler = FrameScheduler(queue_capacity=8, batch_wait_s=0.0)
        request = _request(0, 0, 64)
        scheduler.submit(request)
        scheduler.close(cancel_pending=True)
        assert request.result(timeout=1.0).status is RequestStatus.CANCELLED
        assert scheduler.next_batch(timeout=0.05) is None  # closed + drained


class TestServerMetrics:
    def test_snapshot_counts_and_percentiles(self):
        metrics = ServerMetrics()
        for _ in range(10):
            metrics.on_submitted()
        for i in range(8):
            metrics.on_completed(stream_id=i % 2, queue_wait_s=0.001, service_s=0.004, latency_s=0.005)
        metrics.on_shed("dropped")
        metrics.on_shed("rejected")
        metrics.observe_batch(3)
        metrics.observe_queue_depth(5)
        snap = metrics.snapshot()
        assert snap.submitted == 10
        assert snap.completed == 8
        assert snap.dropped == 1 and snap.rejected == 1
        assert snap.shed == 2
        assert snap.latency.p95_ms == pytest.approx(5.0)
        assert snap.mean_batch_size == pytest.approx(3.0)
        assert snap.max_queue_depth == 5
        assert len(snap.streams) == 2

    def test_counters_are_exact_under_thread_churn(self):
        metrics = ServerMetrics()
        per_thread, threads = 2000, 4

        def worker(stream_id: int) -> None:
            for _ in range(per_thread):
                metrics.on_submitted()
                metrics.on_completed(stream_id, 0.001, 0.002, 0.003)
                metrics.on_shed("expired")

        pool = [threading.Thread(target=worker, args=(i,)) for i in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        snap = metrics.snapshot()
        assert snap.submitted == snap.completed == snap.expired == per_thread * threads
        assert snap.latency.count == per_thread * threads
        assert [s.completed for s in snap.streams] == [per_thread] * threads

    def test_per_stream_stats_group_the_shared_latency_samples(self):
        metrics = ServerMetrics()
        samples = {0: [0.010, 0.030], 1: [0.002, 0.004, 0.006]}
        for latency_s in (0.010, 0.002, 0.030, 0.004, 0.006):
            stream_id = 0 if latency_s in samples[0] else 1
            metrics.on_completed(stream_id, 0.0, latency_s, latency_s)
        snap = metrics.snapshot()
        assert snap.latency.count == 5
        for stream in snap.streams:
            expected = RuntimeStats(samples_s=samples[stream.stream_id])
            assert stream.completed == expected.count
            assert stream.mean_latency_ms == pytest.approx(expected.mean_ms)
            assert stream.p95_latency_ms == pytest.approx(expected.p95_ms)

    def test_format_contains_tail_latency(self):
        metrics = ServerMetrics()
        metrics.on_submitted()
        metrics.on_completed(stream_id=0, queue_wait_s=0.001, service_s=0.004, latency_s=0.005)
        text = metrics.snapshot().format()
        assert "p95 (ms)" in text and "p99 (ms)" in text
        assert "throughput (frames/s)" in text
        assert "Per-stream throughput" in text

    def test_unknown_shed_kind(self):
        with pytest.raises(ValueError):
            ServerMetrics().on_shed("vanished")

    def test_zero_traffic_snapshot_is_clean(self):
        """A zero-traffic shard must report 0/None cleanly, never raise or NaN.

        Cluster shards can legitimately see no traffic (a drained replica, a
        router that never placed a stream there); their telemetry must still
        format and serialize.
        """
        import json

        snap = ServerMetrics().snapshot()
        assert snap.submitted == 0 and snap.completed == 0 and snap.shed == 0
        assert snap.wall_s == 0.0
        assert snap.throughput_fps == 0.0
        assert snap.mean_batch_size == 0.0
        assert snap.mean_queue_depth == 0.0
        assert snap.max_queue_depth == 0 and snap.max_batch_size == 0
        assert snap.latency.count == 0
        text = snap.format()  # must not raise
        assert "throughput" in text
        # Rate/occupancy aggregates are strict-JSON-safe (no NaN tokens).
        json.dumps(
            {
                "wall_s": snap.wall_s,
                "throughput_fps": snap.throughput_fps,
                "mean_batch_size": snap.mean_batch_size,
                "mean_queue_depth": snap.mean_queue_depth,
            },
            allow_nan=False,
        )

    def test_zero_traffic_cluster_shard_report_is_clean(self):
        """ShardReport built from an empty snapshot carries zeros, not NaN."""
        import json

        from repro.cluster.report import ShardReport

        report = ShardReport.from_snapshot(3, ServerMetrics().snapshot(), None)
        assert report.completed == 0 and report.shed == 0
        assert report.p50_ms == 0.0 and report.p95_ms == 0.0 and report.p99_ms == 0.0
        json.dumps(report.__dict__, allow_nan=False)

    def test_recent_latency_window(self):
        metrics = ServerMetrics()
        assert metrics.recent_latency(8).count == 0  # empty = no signal, no raise
        for i in range(1, 101):
            metrics.on_completed(
                stream_id=0, queue_wait_s=0.0, service_s=0.0, latency_s=i / 1000.0
            )
        recent = metrics.recent_latency(10)
        assert recent.count == 10
        # Only the last 10 samples (91..100ms) are in the window.
        assert recent.p50_ms == pytest.approx(95.5, abs=0.6)
        assert metrics.recent_latency(1000).count == 100
        with pytest.raises(ValueError):
            metrics.recent_latency(0)

    def test_recent_latency_empty_window_formats(self):
        """The empty rolling view is a usable RuntimeStats, not a footgun."""
        recent = ServerMetrics().recent_latency(32)
        assert recent.count == 0
        # Percentiles/rates of an empty window are NaN by contract — callers
        # gate on count — but asking for them must not raise.
        float(recent.p95_ms)
        float(recent.fps)

    def test_recent_latency_single_sample(self):
        """One completion: every percentile collapses onto that sample."""
        metrics = ServerMetrics()
        metrics.on_completed(stream_id=0, queue_wait_s=0.0, service_s=0.0, latency_s=0.042)
        recent = metrics.recent_latency(8)
        assert recent.count == 1
        assert recent.p50_ms == pytest.approx(42.0)
        assert recent.p95_ms == pytest.approx(42.0)
        assert recent.p99_ms == pytest.approx(42.0)

    def test_recent_latency_eviction_under_churn(self):
        """The window always reflects the *newest* samples as load shifts."""
        metrics = ServerMetrics()
        for _ in range(50):  # a slow era...
            metrics.on_completed(stream_id=0, queue_wait_s=0.0, service_s=0.0, latency_s=0.5)
        for _ in range(10):  # ...then a fast era
            metrics.on_completed(stream_id=0, queue_wait_s=0.0, service_s=0.0, latency_s=0.001)
        recent = metrics.recent_latency(10)
        assert recent.count == 10
        assert recent.p95_ms == pytest.approx(1.0)  # no slow-era samples remain
        # A window spanning both eras still sees the old tail.
        assert metrics.recent_latency(20).p95_ms == pytest.approx(500.0)

    def test_recent_latency_snapshot_while_recording(self):
        """Concurrent completions and rolling reads never tear or raise."""
        import threading

        metrics = ServerMetrics()
        stop = threading.Event()
        errors: list[Exception] = []

        def record():
            i = 0
            while not stop.is_set():
                metrics.on_completed(
                    stream_id=i % 4, queue_wait_s=0.0, service_s=0.0, latency_s=0.001
                )
                i += 1

        def read():
            while not stop.is_set():
                try:
                    recent = metrics.recent_latency(16)
                    assert 0 <= recent.count <= 16
                    metrics.snapshot()
                except Exception as exc:  # noqa: BLE001 - collected for the assert
                    errors.append(exc)
                    return

        threads = [threading.Thread(target=record) for _ in range(2)] + [
            threading.Thread(target=read) for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        import time as _time

        _time.sleep(0.2)
        stop.set()
        for thread in threads:
            thread.join(timeout=5.0)
        assert not errors
        assert metrics.completed == metrics.snapshot().latency.count


class TestServingConfig:
    def test_validation(self):
        ServingConfig().validate()
        with pytest.raises(ValueError):
            ServingConfig(num_workers=0).validate()
        with pytest.raises(ValueError):
            ServingConfig(backpressure="explode").validate()
        with pytest.raises(ValueError):
            ServingConfig(deadline_ms=-1.0).validate()
        with pytest.raises(ValueError):
            ServingConfig(key_frame_interval=0).validate()

    def test_experiment_config_validates_serving(self, micro_config):
        bad = micro_config.with_(serving=ServingConfig(max_batch_size=0))
        with pytest.raises(ValueError):
            bad.validate()
        bad_scale = micro_config.with_(serving=ServingConfig(initial_scale=7))
        with pytest.raises(ValueError):
            bad_scale.validate()


class TestLoadGenerator:
    def test_schedule_deterministic_under_seed(self):
        kwargs = dict(num_streams=3, frames_per_stream=5, pattern="poisson", rate_fps=20.0)
        first = LoadGenerator(seed=7, **kwargs).schedule()
        second = LoadGenerator(seed=7, **kwargs).schedule()
        assert first == second
        different = LoadGenerator(seed=8, **kwargs).schedule()
        assert first != different

    def test_schedule_covers_every_frame(self):
        for pattern in ("poisson", "bursty", "uniform"):
            events = LoadGenerator(
                num_streams=2, frames_per_stream=4, pattern=pattern, rate_fps=10.0, seed=1
            ).schedule()
            assert len(events) == 8
            seen = {(e.stream_id, e.frame_index) for e in events}
            assert seen == {(s, f) for s in range(2) for f in range(4)}
            times = [e.time_s for e in events]
            assert times == sorted(times)

    def test_per_stream_arrivals_are_ordered(self):
        events = LoadGenerator(
            num_streams=2, frames_per_stream=6, pattern="bursty", rate_fps=30.0, seed=3
        ).schedule()
        for stream in range(2):
            indices = [e.frame_index for e in events if e.stream_id == stream]
            assert indices == sorted(indices)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            LoadGenerator(num_streams=0, frames_per_stream=1)
        with pytest.raises(ValueError):
            LoadGenerator(num_streams=1, frames_per_stream=1, pattern="tsunami")
        with pytest.raises(ValueError):
            LoadGenerator(num_streams=1, frames_per_stream=1, rate_fps=0.0)

    def test_event_is_frozen(self):
        event = ArrivalEvent(time_s=0.0, stream_id=0, frame_index=0)
        with pytest.raises(AttributeError):
            event.time_s = 1.0  # type: ignore[misc]


class TestBackpressureSaturation:
    """Queue-bound invariants and shed accounting under sustained saturation.

    Each policy is driven well past capacity through a scheduler whose
    consumer is deliberately slow/manual, so the queue sits at its bound for
    the whole run; the invariants are checked *throughout*, not just at the
    end, and the shed counts must reconcile exactly with ServerMetrics.
    """

    CAPACITY = 4
    SUBMISSIONS = 60

    def _scheduler(self, policy: str, metrics: ServerMetrics) -> FrameScheduler:
        return FrameScheduler(
            queue_capacity=self.CAPACITY,
            backpressure=policy,
            max_batch_size=2,
            batch_wait_s=0.0,
            on_shed=lambda request, status: metrics.on_shed(status.value),
            on_depth=metrics.observe_queue_depth,
            on_batch=metrics.observe_batch,
        )

    def _drain_all(self, scheduler: FrameScheduler, metrics: ServerMetrics) -> int:
        """Dispatch-and-complete until the queue is empty; returns completions."""
        completed = 0
        while True:
            batch = scheduler.next_batch(timeout=0.01)
            if not batch:
                return completed
            assert len(batch) <= 2
            for request in batch:
                metrics.on_completed(
                    stream_id=request.stream_id,
                    queue_wait_s=0.0,
                    service_s=0.001,
                    latency_s=0.001,
                )
                # What the server's completion callback does for real workers.
                request.resolve(
                    FrameResult(
                        stream_id=request.stream_id,
                        frame_index=request.frame_index,
                        status=RequestStatus.COMPLETED,
                    )
                )
                completed += 1
                scheduler.task_done(request.stream_id)

    def test_reject_preserves_queue_bound_and_reconciles(self):
        metrics = ServerMetrics()
        scheduler = self._scheduler("reject", metrics)
        admitted = 0
        for i in range(self.SUBMISSIONS):
            metrics.on_submitted()
            if scheduler.submit(_request(i, 0, 64, enqueue_time=float(i))):
                admitted += 1
            assert scheduler.depth <= self.CAPACITY  # invariant under saturation
        assert admitted == self.CAPACITY  # no consumer ran: exactly one queue-full
        completed = self._drain_all(scheduler, metrics)
        snap = metrics.snapshot()
        assert completed == admitted
        assert snap.rejected == self.SUBMISSIONS - admitted
        assert snap.completed + snap.rejected == snap.submitted == self.SUBMISSIONS
        assert snap.max_queue_depth <= self.CAPACITY

    def test_reject_sustained_with_slow_consumer(self):
        """Interleaved submit/drain cycles: totals still reconcile exactly."""
        metrics = ServerMetrics()
        scheduler = self._scheduler("reject", metrics)
        completed = 0
        stream = 0
        for _ in range(6):  # sustained: repeat saturation after every drain
            for _ in range(10):
                metrics.on_submitted()
                scheduler.submit(_request(stream, 0, 64, enqueue_time=float(stream)))
                stream += 1
                assert scheduler.depth <= self.CAPACITY
            completed += self._drain_all(scheduler, metrics)
        snap = metrics.snapshot()
        assert snap.submitted == 60
        assert snap.completed == completed
        assert snap.completed + snap.rejected == snap.submitted
        assert snap.completed == 6 * self.CAPACITY

    def test_drop_oldest_preserves_queue_bound_and_reconciles(self):
        metrics = ServerMetrics()
        scheduler = self._scheduler("drop-oldest", metrics)
        requests = []
        for i in range(self.SUBMISSIONS):
            metrics.on_submitted()
            request = _request(i, 0, 64, enqueue_time=float(i))
            assert scheduler.submit(request) is True  # drop-oldest always admits
            requests.append(request)
            assert scheduler.depth <= self.CAPACITY
        completed = self._drain_all(scheduler, metrics)
        snap = metrics.snapshot()
        assert completed == self.CAPACITY  # everything older was shed
        assert snap.dropped == self.SUBMISSIONS - self.CAPACITY
        assert snap.completed + snap.dropped == snap.submitted == self.SUBMISSIONS
        # The survivors are exactly the newest CAPACITY submissions, and every
        # victim's future resolved as DROPPED (no submitter ever hangs).
        for request in requests[: -self.CAPACITY]:
            assert request.result(timeout=1.0).status is RequestStatus.DROPPED
        for request in requests[-self.CAPACITY:]:
            assert request.result(timeout=1.0).status is RequestStatus.COMPLETED

    def test_block_is_lossless_under_sustained_saturation(self):
        metrics = ServerMetrics()
        scheduler = self._scheduler("block", metrics)
        depth_violations = []
        served = []

        def producer():
            for i in range(self.SUBMISSIONS):
                metrics.on_submitted()
                scheduler.submit(_request(i % 8, i // 8, 64, enqueue_time=float(i)))
                if scheduler.depth > self.CAPACITY:
                    depth_violations.append(scheduler.depth)

        thread = threading.Thread(target=producer, daemon=True)
        thread.start()
        # Slow consumer: the producer saturates the queue and must block.
        while len(served) < self.SUBMISSIONS:
            batch = scheduler.next_batch(timeout=0.5)
            if not batch:
                if not thread.is_alive() and scheduler.depth == 0:
                    break
                continue
            for request in batch:
                time.sleep(0.001)
                metrics.on_completed(
                    stream_id=request.stream_id,
                    queue_wait_s=0.0,
                    service_s=0.001,
                    latency_s=0.002,
                )
                served.append(request)
                scheduler.task_done(request.stream_id)
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        snap = metrics.snapshot()
        assert not depth_violations  # the bound held the whole time
        assert snap.completed == len(served) == self.SUBMISSIONS
        assert snap.shed == 0  # block is lossless
        assert snap.max_queue_depth <= self.CAPACITY

    def test_saturated_server_totals_reconcile(self, micro_bundle):
        """End to end through InferenceServer: counters reconcile per policy."""
        frames = list(micro_bundle.val_dataset)[0].frames()
        for policy in ("drop-oldest", "reject"):
            config = ServingConfig(
                num_workers=1, max_batch_size=1, queue_capacity=1, backpressure=policy
            )
            with InferenceServer(micro_bundle, serving=config) as server:
                requests = []
                for index, frame in enumerate(frames * 4):  # sustained oversubmit
                    requests.append(server.submit(0, frame.image, frame_index=index))
                assert server.drain(timeout=120.0)
            snap = server.telemetry()
            assert snap.submitted == len(requests)
            assert snap.completed + snap.shed == snap.submitted
            statuses = [r.result(timeout=1.0).status for r in requests]
            expected = (
                RequestStatus.DROPPED if policy == "drop-oldest" else RequestStatus.REJECTED
            )
            shed_count = sum(1 for status in statuses if status is expected)
            shed_field = snap.dropped if policy == "drop-oldest" else snap.rejected
            assert shed_field == shed_count
            assert snap.completed == sum(
                1 for status in statuses if status is RequestStatus.COMPLETED
            )


@pytest.fixture(scope="module")
def serving_config() -> ServingConfig:
    return ServingConfig(num_workers=2, max_batch_size=2, queue_capacity=8)


class TestInferenceServerIntegration:
    def test_multi_stream_matches_sequential_inference(self, micro_bundle, serving_config):
        """Served streams are bit-identical to sequential Algorithm-1 inference."""
        snippets = list(micro_bundle.val_dataset)[:2]
        references = [micro_bundle.adascale.process_video(s.frames()) for s in snippets]

        with InferenceServer(micro_bundle, serving=serving_config) as server:
            requests = []
            # Interleave submissions round-robin to force cross-stream batching.
            max_len = max(len(s) for s in snippets)
            for frame_index in range(max_len):
                for stream_id, snippet in enumerate(snippets):
                    if frame_index < len(snippet):
                        requests.append(
                            server.submit(stream_id, snippet[frame_index].image, frame_index)
                        )
            assert server.drain(timeout=120.0)
            results = server.finalize()

        for stream_id, reference in enumerate(references):
            served = results[stream_id]
            assert served.completed == len(reference)
            assert served.shed == 0
            assert served.scales_used == reference.scales_used
            for record, ref_output in zip(served.records, reference.outputs):
                assert np.array_equal(record.boxes, ref_output.detection.boxes)
                assert np.array_equal(record.scores, ref_output.detection.scores)
                assert np.array_equal(record.class_ids, ref_output.detection.class_ids)

        snap = server.telemetry()
        assert snap.completed == sum(len(s) for s in snippets)
        assert snap.shed == 0
        assert np.isfinite(snap.latency.p95_ms)
        # every request future resolved successfully
        assert all(r.result(timeout=1.0).ok for r in requests)

    def test_seqnms_serving_matches_offline_rescoring(self, micro_bundle, serving_config):
        snippet = list(micro_bundle.val_dataset)[0]
        config = serving_config.with_(use_seqnms=True, num_workers=1)
        with InferenceServer(micro_bundle, serving=config) as server:
            for frame in snippet.frames():
                server.submit(0, frame.image)
            assert server.drain(timeout=120.0)
            served = server.finalize_stream(0)

        # The same per-frame detections rescored offline must agree exactly.
        reference = micro_bundle.adascale.process_video(snippet.frames())
        raw_records = server.session(0).seqnms_stream.records
        num_classes = micro_bundle.config.detector.num_classes
        expected = seq_nms(raw_records, num_classes)
        for served_record, expected_record in zip(served.records, expected):
            assert np.array_equal(served_record.scores, expected_record.scores)
        for raw, ref_output in zip(raw_records, reference.outputs):
            assert np.array_equal(raw.boxes, ref_output.detection.boxes)

    def test_dff_serving_matches_offline_combination(self, micro_bundle, serving_config):
        """Served DFF streams match the offline AdaScale+DFF detector."""
        snippet = list(micro_bundle.val_dataset)[0]
        frames = snippet.frames()
        offline = AdaScaleDFFDetector(
            micro_bundle.ms_detector,
            micro_bundle.regressor,
            key_frame_interval=2,
            config=micro_bundle.config.adascale,
        ).process_video(frames)

        config = serving_config.with_(key_frame_interval=2, num_workers=2)
        with InferenceServer(micro_bundle, serving=config) as server:
            for frame in frames:
                server.submit(0, frame.image)
            assert server.drain(timeout=120.0)
            served = server.finalize_stream(0)

        assert served.scales_used == offline.scales_used
        for record, detection in zip(served.records, offline.detections):
            assert np.array_equal(record.boxes, detection.boxes)
            assert np.array_equal(record.scores, detection.scores)

    def test_reject_policy_sheds_but_serves_rest(self, micro_bundle):
        config = ServingConfig(
            num_workers=1, max_batch_size=1, queue_capacity=1, backpressure="reject"
        )
        snippet = list(micro_bundle.val_dataset)[0]
        frames = snippet.frames()
        with InferenceServer(micro_bundle, serving=config) as server:
            requests = [server.submit(0, frame.image) for frame in frames]
            assert server.drain(timeout=120.0)
        statuses = [r.result(timeout=1.0).status for r in requests]
        assert statuses.count(RequestStatus.COMPLETED) >= 1
        snap = server.telemetry()
        assert snap.completed + snap.rejected == len(frames)
        # Rejected frames must not advance the stream's frame bookkeeping.
        assert server.finalize_stream(0).completed == snap.completed

    def test_cancelled_future_does_not_hang_drain(self, micro_bundle, serving_config):
        """Externally cancelling a request future must not kill a worker."""
        snippet = list(micro_bundle.val_dataset)[0]
        frames = snippet.frames()
        with InferenceServer(micro_bundle, serving=serving_config) as server:
            requests = [server.submit(0, frame.image) for frame in frames]
            requests[-1].future.cancel()  # may race with completion; both fine
            assert server.drain(timeout=120.0)
        snap = server.telemetry()
        assert snap.completed + snap.shed + snap.failed == len(frames)

    def test_load_generator_end_to_end(self, micro_bundle, serving_config):
        snippets = list(micro_bundle.val_dataset)[:2]
        streams = [s.frames() for s in snippets]
        generator = LoadGenerator(
            num_streams=2,
            frames_per_stream=min(len(s) for s in streams),
            pattern="bursty",
            rate_fps=100.0,
            seed=5,
        )
        with InferenceServer(micro_bundle, serving=serving_config) as server:
            requests = generator.run(server, streams, time_scale=0.0)
            assert server.drain(timeout=120.0)
        assert all(r.result(timeout=1.0).ok for r in requests)
        snap = server.telemetry()
        assert snap.completed == len(requests)
        assert snap.mean_batch_size >= 1.0
