"""Tests for ``repro.observability`` — tracing, metrics, sinks and exporters.

Covers tracer activation discipline (the profiler-style null path),
deterministic sampling, the bounded ring buffer, Chrome-trace and
Prometheus exporters (including their validators catching broken payloads),
SLO burn-rate series, JSONL span-log round trips, governor/autoscaler
decision events on a traced cluster run, and full frame-lifecycle trace
propagation through the real serving stack via the api facade.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

from repro import api
from repro.cluster import (
    ClusterConfig,
    ScenarioConfig,
    analytic_service_model,
)
from repro.cluster.governor import GovernorAction
from repro.config import AdaScaleConfig, ServingConfig, TelemetryConfig
from repro.evaluation.runtime import RuntimeStats
from repro.observability import (
    RingBufferSink,
    SpanEvent,
    SpanExportBuffer,
    Tracer,
    active_tracer,
    burn_rate_series,
    events_to_metrics,
    load_span_log,
    shard_rollup,
    stage_rollup,
    to_chrome_trace,
    to_prometheus_text,
    validate_chrome_trace,
    validate_prometheus_text,
    write_chrome_trace,
)
from repro.profiling import StageProfiler

ADA = AdaScaleConfig()
SERVING = ServingConfig(num_workers=2, max_batch_size=4, queue_capacity=64)


def _completion(
    trace_id: int,
    start_s: float,
    latency_ms: float,
    stream_id: int = 0,
    shard_id: int = 0,
) -> SpanEvent:
    return SpanEvent(
        name="serving/complete_frame",
        kind="instant",
        trace_id=trace_id,
        span_id=trace_id,
        parent_id=None,
        start_s=start_s,
        duration_s=0.0,
        stream_id=stream_id,
        shard_id=shard_id,
        attrs={"latency_ms": latency_ms},
    )


# -- tracer activation ---------------------------------------------------------
class TestTracerActivation:
    def test_disabled_tracer_never_activates(self):
        tracer = Tracer(TelemetryConfig(enabled=False))
        with tracer:
            assert active_tracer() is None
        assert active_tracer() is None

    def test_enabled_tracer_activates_and_clears(self):
        tracer = Tracer(TelemetryConfig(enabled=True))
        assert active_tracer() is None
        with tracer:
            assert active_tracer() is tracer
        assert active_tracer() is None

    def test_nested_activation_raises(self):
        with Tracer(TelemetryConfig(enabled=True)):
            with pytest.raises(RuntimeError, match="already active"):
                Tracer(TelemetryConfig(enabled=True)).__enter__()
        assert active_tracer() is None

    def test_events_survive_deactivation(self):
        tracer = Tracer(TelemetryConfig(enabled=True))
        with tracer:
            tracer.begin_trace(stream_id=0, frame_index=0, now=0.0)
        assert len(tracer.events()) == 1
        assert tracer.events()[0].name == "serving/admit"

    def test_constructor_overrides_apply(self):
        tracer = Tracer(TelemetryConfig(enabled=True), sample_rate=0.5)
        assert tracer.config.sample_rate == 0.5

    def test_invalid_config_rejected_at_construction(self):
        with pytest.raises(ValueError):
            Tracer(TelemetryConfig(enabled=True, sample_rate=1.5))


# -- sampling ------------------------------------------------------------------
class TestSampling:
    def test_rate_zero_samples_everything_out(self):
        tracer = Tracer(TelemetryConfig(enabled=True, sample_rate=0.0))
        for index in range(10):
            assert tracer.begin_trace(stream_id=0, frame_index=index, now=0.0) is None
        assert tracer.events() == ()

    def test_rate_one_traces_every_admission(self):
        tracer = Tracer(TelemetryConfig(enabled=True))
        contexts = [
            tracer.begin_trace(stream_id=3, frame_index=index, now=float(index))
            for index in range(5)
        ]
        assert all(context is not None for context in contexts)
        admits = [event for event in tracer.events() if event.name == "serving/admit"]
        assert len(admits) == 5
        assert len({context.trace_id for context in contexts}) == 5

    def test_sampling_is_deterministic_per_admission_order(self):
        config = TelemetryConfig(enabled=True, sample_rate=0.25)
        decisions = []
        for _ in range(2):
            tracer = Tracer(config)
            decisions.append(
                tuple(
                    tracer.begin_trace(stream_id=0, frame_index=i, now=0.0) is not None
                    for i in range(200)
                )
            )
        assert decisions[0] == decisions[1]

    def test_sampling_keeps_roughly_the_configured_fraction(self):
        tracer = Tracer(TelemetryConfig(enabled=True, sample_rate=0.25, ring_capacity=4096))
        total = 2000
        kept = sum(
            tracer.begin_trace(stream_id=0, frame_index=i, now=0.0) is not None
            for i in range(total)
        )
        assert 0.15 < kept / total < 0.35


# -- ring buffer ---------------------------------------------------------------
class TestRingBuffer:
    def test_capacity_bounds_and_evicts_oldest(self):
        tracer = Tracer(TelemetryConfig(enabled=True, ring_capacity=16))
        for index in range(50):
            tracer.begin_trace(stream_id=0, frame_index=index, now=float(index))
        events = tracer.events()
        assert len(events) == 16
        # Oldest events dropped: the survivors are the newest 16 admissions.
        assert [event.frame_index for event in events] == list(range(34, 50))

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            RingBufferSink(capacity=0)

    def test_len_tracks_contents(self):
        sink = RingBufferSink(capacity=4)
        assert len(sink) == 0
        sink.emit(_completion(1, 0.0, 10.0))
        assert len(sink) == 1


# -- exporters -----------------------------------------------------------------
class TestExporters:
    def _traced_events(self) -> tuple[SpanEvent, ...]:
        tracer = Tracer(TelemetryConfig(enabled=True))
        context = tracer.begin_trace(stream_id=2, frame_index=0, shard_id=1, now=0.0)
        tracer.emit_span("serving/queue_wait", context, start_s=0.0, duration_s=0.01)
        tracer.emit_span("serving/service", context, start_s=0.01, duration_s=0.02)
        tracer.instant("serving/complete_frame", context, now=0.03, latency_ms=30.0)
        action = GovernorAction(
            time_s=0.02, shard_id=1, action="degrade", knob="scale_cap",
            old=128, new=96, p95_ms=250.0, queue_depth=8, reason="pressure",
        )
        tracer.decision(action)
        return tracer.events()

    def test_chrome_trace_round_trip_is_valid(self, tmp_path):
        events = self._traced_events()
        path = write_chrome_trace(tmp_path / "trace.json", events)
        payload = json.loads(path.read_text())
        assert validate_chrome_trace(payload) == []
        records = payload["traceEvents"]
        assert len(records) == len(events)
        spans = [record for record in records if record["ph"] == "X"]
        assert {record["name"] for record in spans} == {
            "serving/queue_wait",
            "serving/service",
        }
        assert all("dur" in record for record in spans)
        decision = next(r for r in records if r["cat"] == "decision")
        assert decision["s"] == "p" and decision["args"]["old"] == 128

    def test_chrome_validator_catches_broken_payloads(self):
        assert validate_chrome_trace({}) == ["traceEvents missing or not a list"]
        broken = {"traceEvents": [{"name": "x", "ph": "X", "ts": 0, "pid": 0, "tid": 0}]}
        assert any("without dur" in problem for problem in validate_chrome_trace(broken))

    def test_prometheus_text_from_events_is_valid(self):
        text = to_prometheus_text(events_to_metrics(self._traced_events()))
        assert validate_prometheus_text(text) == []
        assert 'repro_trace_frames_completed_total{shard="1"} 1' in text
        assert "# TYPE repro_trace_frame_latency_seconds summary" in text
        assert 'quantile="0.95"' in text

    def test_prometheus_quantiles_follow_runtime_stats(self):
        """Summary quantiles use the one percentile rule of the repo."""
        latencies_ms = [float(v) for v in range(1, 11)]
        events = [
            _completion(index + 1, float(index), latency_ms, shard_id=0)
            for index, latency_ms in enumerate(latencies_ms)
        ]
        (sample,) = events_to_metrics(events)["repro_trace_frame_latency_seconds"]["samples"]
        reference = RuntimeStats(samples_s=[v / 1000.0 for v in latencies_ms])
        assert sample["labels"] == {"shard": "0"}
        assert sample["count"] == 10.0
        assert sample["sum"] == pytest.approx(0.055)
        for q in (50, 95, 99):
            assert sample[f"p{q}"] == pytest.approx(reference.percentile(q) / 1000.0)
        # Linear interpolation, not nearest rank (which would give 6 ms).
        assert sample["p50"] == pytest.approx(0.0055)

    def test_prometheus_families_and_label_sets(self):
        events = list(self._traced_events()) + [
            SpanEvent(
                name="serving/shed", kind="instant", trace_id=9, span_id=9,
                parent_id=None, start_s=0.5, duration_s=0.0, shard_id=1,
                attrs={"status": "dropped"},
            )
        ]
        snapshot = events_to_metrics(events)
        assert {name: family["type"] for name, family in snapshot.items()} == {
            "repro_trace_frames_completed_total": "counter",
            "repro_trace_frames_shed_total": "counter",
            "repro_trace_decisions_total": "counter",
            "repro_trace_spans_total": "counter",
            "repro_trace_frame_latency_seconds": "histogram",
        }
        labels = {
            name: [(sample["labels"], sample.get("value")) for sample in family["samples"]]
            for name, family in snapshot.items()
        }
        assert labels["repro_trace_frames_completed_total"] == [({"shard": "1"}, 1.0)]
        assert labels["repro_trace_frames_shed_total"] == [
            ({"shard": "1", "status": "dropped"}, 1.0)
        ]
        assert labels["repro_trace_decisions_total"] == [
            ({"action": "cluster/degrade", "shard": "1"}, 1.0)
        ]
        assert labels["repro_trace_spans_total"] == [
            ({"name": "serving/queue_wait", "shard": "1"}, 1.0),
            ({"name": "serving/service", "shard": "1"}, 1.0),
        ]
        text = to_prometheus_text(snapshot)
        assert validate_prometheus_text(text) == []
        assert 'repro_trace_frame_latency_seconds_count{shard="1"} 1' in text
        assert 'repro_trace_frame_latency_seconds_sum{shard="1"} 0.03' in text

    def test_prometheus_validator_catches_garbage(self):
        assert validate_prometheus_text("not a metric line at all!\n")
        assert validate_prometheus_text("metric_total notanumber\n")
        assert validate_prometheus_text("# just a comment\n") == []

    def test_stage_and_shard_rollups(self):
        events = self._traced_events()
        stages = stage_rollup(events)
        assert stages["serving/service"]["count"] == 1
        assert stages["serving/service"]["total_s"] == pytest.approx(0.02)
        # Sorted by descending total time.
        assert list(stages) == ["serving/service", "serving/queue_wait"]
        shards = shard_rollup(events)
        assert shards[1]["admitted"] == 1
        assert shards[1]["completed"] == 1
        assert shards[1]["decisions"] == 1
        assert shards[1]["busy_s"] == pytest.approx(0.02)


# -- burn rate -----------------------------------------------------------------
class TestBurnRate:
    def test_per_stream_buckets_and_rates(self):
        events = [
            _completion(1, 0.1, latency_ms=50.0, stream_id=0),
            _completion(2, 0.2, latency_ms=500.0, stream_id=0),
            _completion(3, 1.5, latency_ms=50.0, stream_id=0),
            _completion(4, 0.3, latency_ms=500.0, stream_id=1),
        ]
        series = burn_rate_series(events, target_ms=100.0, bucket_s=1.0, key="stream")
        assert series[0] == [(0.0, 0.5, 2), (1.0, 0.0, 1)]
        assert series[1] == [(0.0, 1.0, 1)]

    def test_per_shard_keying(self):
        events = [
            _completion(1, 0.0, latency_ms=500.0, shard_id=0),
            _completion(2, 0.0, latency_ms=50.0, shard_id=1),
        ]
        series = burn_rate_series(events, target_ms=100.0, key="shard")
        assert series[0][0][1] == 1.0
        assert series[1][0][1] == 0.0

    def test_invalid_arguments_raise(self):
        with pytest.raises(ValueError, match="key"):
            burn_rate_series([], target_ms=100.0, key="galaxy")
        with pytest.raises(ValueError, match="bucket_s"):
            burn_rate_series([], target_ms=100.0, bucket_s=0.0)

    def test_non_completion_events_ignored(self):
        tracer = Tracer(TelemetryConfig(enabled=True))
        tracer.begin_trace(stream_id=0, frame_index=0, now=0.0)
        assert burn_rate_series(tracer.events(), target_ms=100.0) == {}


# -- JSONL span log ------------------------------------------------------------
class TestJsonlRoundTrip:
    def test_span_log_round_trips_every_event(self, tmp_path):
        log_path = tmp_path / "spans.jsonl"
        tracer = Tracer(TelemetryConfig(enabled=True, jsonl_path=str(log_path)))
        with tracer:
            context = tracer.begin_trace(stream_id=1, frame_index=0, shard_id=0, now=0.0)
            tracer.emit_span("serving/service", context, 0.0, 0.01, service_s=0.005)
            tracer.instant("serving/complete_frame", context, now=0.01, latency_ms=10.0)
        loaded = load_span_log(log_path)
        assert loaded == tracer.events()
        # Attrs survive with their values intact.
        assert loaded[1].attrs["service_s"] == 0.005

    def test_event_dict_round_trip(self):
        event = _completion(7, 1.25, latency_ms=42.0, stream_id=3, shard_id=2)
        assert SpanEvent.from_dict(json.loads(json.dumps(event.to_dict()))) == event

    def test_truncated_final_line_returns_valid_prefix(self, tmp_path):
        """A SIGKILLed writer leaves half a line; the prefix must still load."""
        log_path = tmp_path / "spans.jsonl"
        good = [_completion(i, float(i), latency_ms=10.0) for i in range(3)]
        text = "".join(json.dumps(e.to_dict()) + "\n" for e in good)
        log_path.write_text(text + '{"name": "serving/compl')  # cut mid-write
        loaded = load_span_log(log_path)
        assert loaded == tuple(good)

    def test_corrupt_middle_line_still_raises(self, tmp_path):
        log_path = tmp_path / "spans.jsonl"
        good = _completion(1, 0.0, latency_ms=10.0)
        log_path.write_text(
            json.dumps(good.to_dict()) + "\n"
            + "not json at all\n"
            + json.dumps(good.to_dict()) + "\n"
        )
        with pytest.raises(ValueError, match="line 2"):
            load_span_log(log_path)

    def test_truncated_final_line_alone_yields_no_events(self, tmp_path):
        log_path = tmp_path / "spans.jsonl"
        log_path.write_text('{"half a rec')
        assert load_span_log(log_path) == ()


# -- span export buffer (the process-boundary staging sink) --------------------
class TestSpanExportBuffer:
    def test_emit_drain_preserves_order(self):
        buffer = SpanExportBuffer(capacity=8)
        events = [_completion(i, float(i), latency_ms=1.0) for i in range(5)]
        for event in events:
            buffer.emit(event)
        assert len(buffer) == 5
        assert buffer.drain() == events
        assert len(buffer) == 0
        assert buffer.drain() == []

    def test_overflow_sheds_and_counts_instead_of_blocking(self):
        buffer = SpanExportBuffer(capacity=2)
        for i in range(5):
            buffer.emit(_completion(i, float(i), latency_ms=1.0))
        assert len(buffer) == 2
        assert buffer.dropped == 3
        # The survivors are the oldest two — drain frees room again.
        kept = buffer.drain()
        assert [e.trace_id for e in kept] == [0, 1]
        buffer.emit(_completion(9, 9.0, latency_ms=1.0))
        assert len(buffer) == 1
        assert buffer.dropped == 3  # drop counter is cumulative, not reset

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            SpanExportBuffer(capacity=0)

    def test_attaches_to_tracer_as_extra_sink(self):
        tracer = Tracer(TelemetryConfig(enabled=True))
        buffer = SpanExportBuffer(capacity=16)
        tracer.add_sink(buffer)
        context = tracer.begin_trace(stream_id=0, frame_index=0, now=0.0)
        tracer.emit_span("serving/service", context, 0.0, 0.01)
        drained = buffer.drain()
        assert [e.name for e in drained] == ["serving/admit", "serving/service"]
        assert drained == list(tracer.events())


# -- free-standing spans and cross-process ingestion ---------------------------
class TestTracerSpanAndIngest:
    def test_span_emits_free_standing_duration_event(self):
        tracer = Tracer(TelemetryConfig(enabled=True))
        tracer.span(
            "supervisor/respawn", start_s=2.0, duration_s=0.5,
            shard_id=1, attempt=1, generation=1,
        )
        (event,) = tracer.events()
        assert event.kind == "span"
        assert event.trace_id == 0 and event.parent_id is None
        assert event.start_s == 2.0 and event.duration_s == 0.5
        assert event.shard_id == 1
        assert event.attrs == {"attempt": 1, "generation": 1}

    def test_ingest_bypasses_gating_and_hits_every_sink(self):
        # The producer already applied its own config; the merge side must
        # not re-sample or re-gate the shipped event.
        tracer = Tracer(TelemetryConfig(enabled=True, sample_rate=0.0))
        foreign = _completion(5, 1.0, latency_ms=3.0)
        tracer.ingest(foreign)
        assert tracer.events() == (foreign,)


# -- multi-process Chrome trace shape ------------------------------------------
class TestChromeFleetShape:
    def _fleet_events(self) -> list[SpanEvent]:
        rebased_child = SpanEvent(
            name="serving/service", kind="span", trace_id=(1 << 32) + 1,
            span_id=(1 << 32) + 2, parent_id=(1 << 32) + 1,
            start_s=1.0, duration_s=0.01, stream_id=3, frame_index=0,
            shard_id=0, attrs={"os_pid": 4242, "generation": 0},
        )
        supervisor = SpanEvent(
            name="supervisor/crash", kind="span", trace_id=0, span_id=9,
            parent_id=None, start_s=1.5, duration_s=0.2, shard_id=0,
            attrs={"fault": "kill-replica"},
        )
        decision = SpanEvent(
            name="cluster/crash", kind="decision", trace_id=0, span_id=10,
            parent_id=None, start_s=1.5, duration_s=0.0, shard_id=0, attrs={},
        )
        return [rebased_child, supervisor, decision]

    def test_os_pid_events_become_real_chrome_processes(self):
        payload = to_chrome_trace(self._fleet_events())
        assert validate_chrome_trace(payload) == []
        records = payload["traceEvents"]
        metadata = [r for r in records if r["ph"] == "M"]
        names = {
            (r["pid"], r["args"]["name"])
            for r in metadata if r["name"] == "process_name"
        }
        assert (4242, "shard 0 worker (pid 4242, gen 0)") in names
        assert any(label.startswith("control plane") for _, label in names)
        child = next(r for r in records if r["name"] == "serving/service")
        assert child["pid"] == 4242 and child["tid"] == 3
        crash = next(r for r in records if r["name"] == "supervisor/crash")
        assert crash["pid"] == 0  # control-plane lane keeps the shard mapping

    def test_single_process_trace_keeps_plain_shape(self):
        tracer = Tracer(TelemetryConfig(enabled=True))
        context = tracer.begin_trace(stream_id=1, frame_index=0, shard_id=0, now=0.0)
        tracer.emit_span("serving/service", context, 0.0, 0.01)
        payload = to_chrome_trace(tracer.events())
        assert validate_chrome_trace(payload) == []
        assert all(r["ph"] != "M" for r in payload["traceEvents"])
        assert {r["pid"] for r in payload["traceEvents"]} == {0}


# -- cluster decision events ---------------------------------------------------
class TestClusterTracing:
    def _facade(self, cluster: ClusterConfig) -> api.Cluster:
        return api.Cluster(
            cluster=cluster,
            serving=SERVING,
            adascale=ADA,
            service_model=analytic_service_model(ADA),
        )

    def test_traced_run_reconstructs_frame_lifecycles(self):
        facade = self._facade(ClusterConfig(num_shards=2))
        report = facade.run_scenario(
            ScenarioConfig(
                name="flash_crowd", duration_s=4.0, num_streams=4, rate_fps=20.0
            ),
            telemetry=TelemetryConfig(enabled=True, ring_capacity=1 << 16),
        )
        assert report.trace_events
        assert report.to_dict()["trace_event_count"] == len(report.trace_events)
        by_trace: dict[int, set[str]] = {}
        for event in report.trace_events:
            if event.trace_id > 0:
                by_trace.setdefault(event.trace_id, set()).add(event.name)
        lifecycle = {
            "serving/admit",
            "serving/queue_wait",
            "serving/service",
            "serving/complete_frame",
        }
        complete = [names for names in by_trace.values() if lifecycle <= names]
        assert len(complete) >= report.completed > 0
        assert active_tracer() is None  # facade deactivated its tracer

    def test_governor_decisions_appear_as_events(self):
        cluster = ClusterConfig(num_shards=1)
        facade = self._facade(cluster)
        scenario = ScenarioConfig(
            name="slo_surge", duration_s=10.0, num_streams=8, rate_fps=30.0,
            peak_multiplier=8.0, seed=4,
        )
        report = facade.run_scenario(
            scenario, telemetry=TelemetryConfig(enabled=True, ring_capacity=1 << 18)
        )
        decisions = [e for e in report.trace_events if e.kind == "decision"]
        assert report.timeline  # the surge must force control actions
        assert len(decisions) == len(report.timeline)
        for event, action in zip(decisions, report.timeline):
            assert event.name == f"cluster/{action.action}"
            assert event.start_s == pytest.approx(action.time_s)
            assert event.attrs["old"] == action.old
            assert event.attrs["new"] == action.new
            assert event.attrs["reason"] == action.reason

    def test_untraced_run_attaches_no_events(self):
        facade = self._facade(ClusterConfig(num_shards=1))
        report = facade.run_scenario(
            ScenarioConfig(name="steady", duration_s=2.0, num_streams=2, rate_fps=10.0)
        )
        assert report.trace_events == ()


# -- real serving stack --------------------------------------------------------
class TestServerTracing:
    def test_serve_load_traces_full_frame_lifecycle(self, micro_bundle):
        serving = ServingConfig(num_workers=2, max_batch_size=2, queue_capacity=16)
        with api.Server(micro_bundle, serving=serving) as server:
            report = server.serve_load(
                streams=2,
                frames_per_stream=3,
                rate_fps=100.0,
                seed=1,
                telemetry=TelemetryConfig(enabled=True, ring_capacity=1 << 14),
            )
        assert active_tracer() is None
        events = report.trace_events
        assert events
        names = {event.name for event in events}
        # Detector stage spans (the profiler bridge) appear for real workers.
        assert "serving/plan" in names
        assert "serving/backbone_batch" in names
        by_trace: dict[int, set[str]] = {}
        for event in events:
            if event.trace_id > 0:
                by_trace.setdefault(event.trace_id, set()).add(event.name)
        lifecycle = {
            "serving/admit",
            "serving/queue_wait",
            "serving/service",
            "serving/complete_frame",
        }
        complete = [trace for trace, seen in by_trace.items() if lifecycle <= seen]
        completed = sum(stream.completed for stream in report.streams)
        assert len(complete) >= completed > 0
        # Completions carry the adaptive-scale decision of the frame.
        completions = [e for e in events if e.name == "serving/complete_frame"]
        assert all("scale_used" in event.attrs for event in completions)
        assert all(event.attrs["latency_ms"] > 0.0 for event in completions)

    def test_worker_regions_span_each_traced_frame_once(self, micro_bundle):
        """Each worker region is one profiler stage and one span per traced frame."""
        regions = {
            "serving/plan",
            "serving/backbone_batch",
            "serving/head_batch",
            "serving/regress",
            "serving/complete",
        }
        serving = ServingConfig(
            num_workers=2, max_batch_size=2, queue_capacity=16, key_frame_interval=2
        )
        with StageProfiler() as profiler, api.Server(micro_bundle, serving=serving) as server:
            report = server.serve_load(
                streams=2,
                rate_fps=100.0,
                seed=1,
                telemetry=TelemetryConfig(enabled=True, ring_capacity=1 << 14),
            )
        spans: dict[int, Counter] = {}
        feedback: dict[int, dict] = {}
        for event in report.trace_events:
            if event.trace_id > 0:
                spans.setdefault(event.trace_id, Counter())[event.name] += 1
            if event.name == "serving/scale_feedback":
                feedback[event.trace_id] = event.attrs
        completed = [t for t, names in spans.items() if names["serving/complete_frame"]]
        assert len(completed) == sum(stream.completed for stream in report.streams) > 0
        assert {feedback[t]["kind"] for t in completed} == {"dff_key", "dff_warp"}
        for trace_id in completed:
            names = spans[trace_id]
            key_frame = feedback[trace_id]["kind"] == "dff_key"
            assert names["serving/plan"] == 1
            assert names["serving/complete"] == 1
            # Key frames run the backbone, warped frames only the head.
            assert names["serving/backbone_batch"] == int(key_frame)
            assert names["serving/head_batch"] == int(not key_frame)
            # Only key frames feed the regressor.  The regress region spans
            # its whole micro-batch, so every traced frame carries it once.
            assert (feedback[trace_id]["next_scale"] is not None) == key_frame
            assert names["serving/regress"] == 1
        # The profiler over the same load records the same five regions.
        assert {e.name for e in report.trace_events if e.name in regions} == regions
        top_level = {path for path in profiler.stages() if path.count("/") == 1}
        assert {path for path in top_level if path.startswith("serving/")} == regions

    def test_serve_load_without_telemetry_emits_nothing(self, micro_bundle):
        serving = ServingConfig(num_workers=1, max_batch_size=2, queue_capacity=8)
        with api.Server(micro_bundle, serving=serving) as server:
            report = server.serve_load(streams=1, frames_per_stream=2)
        assert report.trace_events == ()
