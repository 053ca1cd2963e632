"""Tests for the sharded serving cluster (``repro.cluster``).

Covers the acceptance gates of PR 5 — near-linear 1→2→4 shard throughput
scaling on the virtual-time engine and the ScaleGovernor holding p95 under
target by degrading scale instead of shedding — plus the unit behaviour of
every cluster component: service model, scenario suite (determinism + JSONL
round-trips), router policies and admission control, governor/autoscaler
feedback logic, the simulation engine, the control setters of the real shard
server, the ReplicaSpec process seam, and the CLI command.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro import api
from repro.cluster import (
    Autoscaler,
    AutoscalerConfig,
    ClusterConfig,
    ClusterController,
    GovernorConfig,
    ReplicaSpec,
    Router,
    RouterConfig,
    ScaleGovernor,
    ScenarioConfig,
    ServiceModel,
    WorkloadTrace,
    analytic_service_model,
    build_scenario,
    calibrate_service_model,
    run_scaling_suite,
    run_slo_suite,
)
from repro.config import AdaScaleConfig, ServingConfig
from repro.evaluation.runtime import RuntimeStats
from repro.cluster.controller import _build_autoscaler, _build_governor
from repro.registries import CLUSTER_SCENARIOS, ROUTING_POLICIES
from repro.serving.server import InferenceServer

ADA = AdaScaleConfig()  # ladder (128, 96, 72, 48, 32)
SERVING = ServingConfig(num_workers=2, max_batch_size=4, queue_capacity=64)


# -- service model -------------------------------------------------------------
class TestServiceModel:
    def test_analytic_tracks_area(self):
        model = analytic_service_model(ADA, base_frame_ms=8.0, overhead_ms=0.0)
        times = [model.frame_time_s(scale) for scale in ADA.regressor_scales]
        assert times == sorted(times, reverse=True)  # smaller scale, faster
        # Area proportionality: quartering the scale sixteenths the conv cost.
        assert model.frame_time_s(32) == pytest.approx(
            model.frame_time_s(128) / 16.0, rel=0.01
        )

    def test_interpolates_unprofiled_scales(self):
        model = analytic_service_model(ADA)
        t96, t72, t84 = (model.frame_time_s(s) for s in (96, 72, 84))
        assert t72 < t84 < t96

    def test_batch_amortisation(self):
        model = ServiceModel(
            scales=(96, 48), frame_ms=(8.0, 2.0), batch_marginal=0.5, overhead_ms=0.0
        )
        single = model.batch_time_s(96, 1)
        four = model.batch_time_s(96, 4)
        assert four == pytest.approx(single * (1 + 0.5 * 3))
        assert four / 4 < single  # per-frame cost drops inside a batch
        with pytest.raises(ValueError):
            model.batch_time_s(96, 0)

    def test_serializes_and_validates(self):
        model = analytic_service_model(ADA)
        clone = ServiceModel.from_dict(model.to_dict())
        assert clone == model
        with pytest.raises(ValueError):
            ServiceModel(scales=(48, 96), frame_ms=(1.0, 2.0)).validate()  # ascending
        with pytest.raises(ValueError):
            ServiceModel(scales=(96,), frame_ms=(0.0,)).validate()


# -- scenarios -----------------------------------------------------------------
class TestScenarios:
    def test_catalog_registered(self):
        names = set(CLUSTER_SCENARIOS.names())
        assert {"steady", "diurnal", "flash_crowd", "heavy_tail", "slo_surge", "trace"} <= names

    @pytest.mark.parametrize("name", ["steady", "diurnal", "flash_crowd", "heavy_tail", "slo_surge"])
    def test_deterministic_under_seed(self, name):
        config = ScenarioConfig(name=name, duration_s=5.0, num_streams=4, rate_fps=20.0, seed=9)
        first, second = build_scenario(config), build_scenario(config)
        assert first == second
        assert first != build_scenario(config.with_(seed=10))

    def test_traces_are_well_formed(self):
        for name in ("steady", "diurnal", "flash_crowd", "heavy_tail", "slo_surge"):
            trace = build_scenario(
                ScenarioConfig(name=name, duration_s=4.0, num_streams=3, rate_fps=15.0, seed=2)
            )
            assert trace.num_streams >= 3
            assert trace.num_frames > 0
            times = [event.time_s for event in trace]
            assert times == sorted(times)

    def test_flash_crowd_adds_and_removes_streams(self):
        config = ScenarioConfig(
            name="flash_crowd", duration_s=10.0, num_streams=4, rate_fps=20.0,
            peak_multiplier=3.0, seed=1,
        )
        trace = build_scenario(config)
        assert trace.num_streams == 4 + 2 * 4  # base + (peak-1) * base crowd
        closes = [e for e in trace if e.kind == "close"]
        # Crowd streams close before the trace ends; base streams at the end.
        assert min(e.time_s for e in closes) < config.duration_s - 1e-6

    def test_slo_surge_rate_steps_up(self):
        config = ScenarioConfig(
            name="slo_surge", duration_s=20.0, num_streams=4, rate_fps=10.0,
            peak_multiplier=5.0, surge_start_frac=0.4, surge_duration_frac=0.3, seed=3,
        )
        trace = build_scenario(config)
        frames = [e.time_s for e in trace if e.kind == "frame"]
        calm = sum(1 for t in frames if t < 8.0) / 8.0
        surged = sum(1 for t in frames if 8.0 <= t < 14.0) / 6.0
        assert surged > 3.0 * calm  # the plateau really is an overload

    def test_jsonl_round_trip(self, tmp_path):
        trace = build_scenario(
            ScenarioConfig(name="flash_crowd", duration_s=4.0, num_streams=3, seed=5)
        )
        path = trace.save_jsonl(tmp_path / "trace.jsonl")
        loaded = WorkloadTrace.load_jsonl(path)
        assert loaded == trace
        # And the `trace` scenario replays the same file.
        replayed = build_scenario(ScenarioConfig(name="trace", trace_path=str(path)))
        assert replayed == trace

    def test_malformed_trace_rejected(self):
        from repro.cluster.scenarios import TraceEvent

        with pytest.raises(ValueError, match="outside"):
            WorkloadTrace([TraceEvent(time_s=0.0, stream_id=0, kind="frame")])
        with pytest.raises(ValueError, match="opened twice"):
            WorkloadTrace(
                [
                    TraceEvent(time_s=0.0, stream_id=0, kind="open"),
                    TraceEvent(time_s=1.0, stream_id=0, kind="open"),
                ]
            )

    def test_new_arrival_patterns_registered(self):
        from repro.registries import ARRIVAL_PATTERNS
        from repro.serving import LoadGenerator

        assert "diurnal" in ARRIVAL_PATTERNS and "flash-crowd" in ARRIVAL_PATTERNS
        for pattern in ("diurnal", "flash-crowd"):
            events = LoadGenerator(
                num_streams=2, frames_per_stream=30, pattern=pattern, rate_fps=50.0, seed=4
            ).schedule()
            assert len(events) == 60
            for stream in range(2):
                stamps = [e.time_s for e in events if e.stream_id == stream]
                assert sorted(stamps) == stamps


# -- router --------------------------------------------------------------------
class _FakeShard:
    def __init__(self, shard_id, streams=0, accepting=True):
        self.shard_id = shard_id
        self.active_streams = streams
        self.accepting = accepting


class TestRouter:
    def test_least_loaded_balances(self):
        shards = [_FakeShard(0), _FakeShard(1), _FakeShard(2)]
        router = Router(RouterConfig(policy="least-loaded"))
        for stream_id in range(9):
            shard = router.assign(stream_id, shards)
            shard.active_streams += 1
        assert [s.active_streams for s in shards] == [3, 3, 3]

    def test_hash_placement_is_stable(self):
        shards = [_FakeShard(i) for i in range(4)]
        first = [
            Router(RouterConfig(policy="hash")).assign(stream, shards).shard_id
            for stream in range(16)
        ]
        second = [
            Router(RouterConfig(policy="hash")).assign(stream, shards).shard_id
            for stream in range(16)
        ]
        assert first == second  # stable across router instances (blake2, not hash())
        assert len(set(first)) > 1  # actually spreads
        salted = [
            Router(RouterConfig(policy="hash", hash_seed=7)).assign(s, shards).shard_id
            for s in range(16)
        ]
        assert salted != first  # the salt re-shuffles placement

    def test_admission_cap_rejects_streams(self):
        shards = [_FakeShard(0), _FakeShard(1)]
        router = Router(RouterConfig(policy="least-loaded", max_streams_per_shard=2))
        placed = 0
        for stream_id in range(6):
            shard = router.assign(stream_id, shards)
            if shard is not None:
                shard.active_streams += 1
                placed += 1
        assert placed == 4  # 2 shards x cap 2
        assert router.rejected_streams == 2

    def test_draining_shard_not_a_candidate(self):
        shards = [_FakeShard(0), _FakeShard(1, accepting=False)]
        router = Router(RouterConfig(policy="least-loaded"))
        for stream_id in range(4):
            assert router.assign(stream_id, shards).shard_id == 0

    def test_unrouted_frames_counted(self):
        router = Router(RouterConfig())
        assert router.lookup(42) is None
        assert router.rejected_frames == 1

    def test_release_forgets_assignment(self):
        shards = [_FakeShard(0)]
        router = Router(RouterConfig())
        shard = router.assign(5, shards)
        assert router.lookup(5) is shard
        assert router.release(5) is shard
        assert router.lookup(5) is None


# -- governor ------------------------------------------------------------------
class _FakeControlShard:
    """Minimal control-surface stub for exercising the feedback logic."""

    def __init__(self, shard_id=0, batch=4):
        self.shard_id = shard_id
        self.scale_cap = None
        self.max_batch_size = batch
        self.baseline_batch_size = batch
        self.queue_depth = 0
        self.latency_ms: list[float] = []

    def recent_latency(self, window):
        return RuntimeStats(samples_s=[ms / 1000.0 for ms in self.latency_ms[-window:]])

    def set_scale_cap(self, cap):
        self.scale_cap = cap

    def set_max_batch_size(self, size):
        self.max_batch_size = size


class TestScaleGovernor:
    LADDER = (96, 72, 48, 36, 24)

    def _governor(self, **overrides):
        return ScaleGovernor(
            self.LADDER,
            GovernorConfig(
                target_p95_ms=100.0, warmup_completions=4, window=16,
                release_steps=2, queue_alarm_depth=10,
            ).with_(**overrides),
        )

    def test_degrades_down_the_ladder_under_pressure(self):
        governor = self._governor()
        shard = _FakeControlShard()
        shard.latency_ms = [150.0] * 16  # over target, under the 2x panic line
        for expected in (72, 48, 36, 24):
            actions = governor.step([shard], now=1.0)
            assert [a.action for a in actions] == ["degrade"]
            assert actions[0].knob == "scale_cap" and actions[0].new == expected
            assert shard.scale_cap == expected
        # Ladder exhausted: the batch bound starts shrinking.
        actions = governor.step([shard], now=2.0)
        assert actions[0].knob == "max_batch_size" and shard.max_batch_size == 2
        governor.step([shard], now=3.0)
        assert shard.max_batch_size == 1
        # Fully degraded: nothing left to trade, no action.
        assert governor.step([shard], now=4.0) == []

    def test_panic_steps_two_rungs_on_extreme_pressure(self):
        governor = self._governor()
        shard = _FakeControlShard()
        shard.latency_ms = [400.0] * 16  # 4x over target: compound backlog
        actions = governor.step([shard], now=1.0)
        assert [a.new for a in actions] == [72, 48]
        assert shard.scale_cap == 48

    def test_queue_alarm_triggers_without_latency_signal(self):
        governor = self._governor()
        shard = _FakeControlShard()
        shard.queue_depth = 15  # nothing completed yet, but the queue is piling up
        actions = governor.step([shard], now=0.5)
        assert len(actions) == 1 and shard.scale_cap == 72
        # A queue 4x over the alarm escalates to panic stepping.
        panicked = _FakeControlShard(shard_id=1)
        panicked.queue_depth = 50
        actions = governor.step([panicked], now=0.5)
        assert len(actions) == 2 and panicked.scale_cap == 48

    def test_warmup_gates_the_latency_signal(self):
        governor = self._governor()
        shard = _FakeControlShard()
        shard.latency_ms = [500.0] * 2  # under warmup_completions
        assert governor.step([shard], now=0.5) == []

    def test_restores_only_after_consecutive_calm_steps(self):
        governor = self._governor()
        shard = _FakeControlShard()
        shard.latency_ms = [150.0] * 16
        governor.step([shard], now=1.0)
        assert shard.scale_cap == 72
        shard.latency_ms = [10.0] * 16  # calm (well under release fraction)
        assert governor.step([shard], now=2.0) == []  # first calm step: not yet
        actions = governor.step([shard], now=3.0)
        assert [a.action for a in actions] == ["restore"]
        assert shard.scale_cap is None  # back to full quality

    def test_hysteresis_band_holds_state(self):
        governor = self._governor()
        shard = _FakeControlShard()
        shard.latency_ms = [150.0] * 16
        governor.step([shard], now=1.0)
        shard.latency_ms = [80.0] * 16  # under target but above release fraction
        for tick in range(5):
            assert governor.step([shard], now=2.0 + tick) == []
        assert shard.scale_cap == 72  # neither degraded further nor restored

    def test_batch_restore_retraces_non_power_of_two_baselines(self):
        governor = self._governor()
        shard = _FakeControlShard(batch=6)
        # Keep the shard over target until the ladder AND the batch knob are
        # exhausted: 4 scale rungs, then batch 6 -> 3 -> 1.
        shard.latency_ms = [150.0] * 16
        for tick in range(8):
            if not governor.step([shard], now=1.0 + tick):
                break
        assert shard.scale_cap == min(self.LADDER)
        assert shard.max_batch_size == 1
        # Calm restores must retrace 1 -> 3 -> 6, not double into 1 -> 2 -> 4.
        shard.latency_ms = [10.0] * 16
        restored = []
        for tick in range(16):
            for action in governor.step([shard], now=20.0 + tick):
                if action.knob == "max_batch_size":
                    restored.append(action.new)
        assert restored == [3, 6]
        assert shard.max_batch_size == shard.baseline_batch_size

    def test_controller_builds_it_from_the_cluster_config(self):
        cluster = ClusterConfig(governor=GovernorConfig(target_p95_ms=50.0))
        governor = _build_governor(cluster, (96, 48))
        assert isinstance(governor, ScaleGovernor)
        assert governor.config.target_p95_ms == 50.0
        assert governor.ladder == (96, 48)
        disabled = cluster.with_(governor=cluster.governor.with_(enabled=False))
        assert _build_governor(disabled, (96, 48)) is None


class TestAutoscaler:
    def _shards(self, occupancies):
        shards = []
        for index, occupancy in enumerate(occupancies):
            shard = _FakeControlShard(shard_id=index)
            shard.occupancy = occupancy
            shard.accepting = True
            shards.append(shard)
        return shards

    def test_scales_up_on_pressure(self):
        scaler = Autoscaler(AutoscalerConfig(enabled=True, cooldown_s=0.0, max_shards=4))
        assert scaler.desired_shards(self._shards([2.0, 1.5]), now=0.0) == 3

    def test_scales_down_on_idle(self):
        scaler = Autoscaler(AutoscalerConfig(enabled=True, cooldown_s=0.0, min_shards=1))
        assert scaler.desired_shards(self._shards([0.1, 0.05]), now=0.0) == 1

    def test_cooldown_suppresses_flapping(self):
        scaler = Autoscaler(AutoscalerConfig(enabled=True, cooldown_s=10.0, max_shards=8))
        busy = self._shards([2.0, 2.0])
        assert scaler.desired_shards(busy, now=0.0) == 3
        assert scaler.desired_shards(busy, now=1.0) == 2  # cooling down: hold
        assert scaler.desired_shards(busy, now=11.0) == 3

    def test_bounds_respected(self):
        scaler = Autoscaler(AutoscalerConfig(enabled=True, cooldown_s=0.0, max_shards=2))
        assert scaler.desired_shards(self._shards([3.0, 3.0]), now=0.0) == 2

    def test_controller_builds_it_only_when_enabled(self):
        assert _build_autoscaler(ClusterConfig()) is None
        enabled = ClusterConfig(autoscaler=AutoscalerConfig(enabled=True, max_shards=3))
        scaler = _build_autoscaler(enabled)
        assert isinstance(scaler, Autoscaler) and scaler.config.max_shards == 3


# -- simulation ----------------------------------------------------------------
def _simulate(scenario: ScenarioConfig, cluster: ClusterConfig, serving=SERVING, seed=0):
    controller = ClusterController(
        cluster=cluster,
        serving=serving,
        adascale=ADA,
        model=analytic_service_model(ADA),
        seed=seed,
    )
    return controller.run(scenario)


class TestSimulation:
    def test_deterministic_report(self):
        scenario = ScenarioConfig(name="flash_crowd", duration_s=5.0, num_streams=4, seed=3)
        cluster = ClusterConfig(num_shards=2)
        first = _simulate(scenario, cluster).to_dict()
        second = _simulate(scenario, cluster).to_dict()
        assert first == second

    def test_lossless_block_serves_everything(self):
        scenario = ScenarioConfig(name="steady", duration_s=4.0, num_streams=4, rate_fps=30.0)
        report = _simulate(scenario, ClusterConfig(num_shards=2))
        assert report.shed == 0
        assert report.completed == report.submitted > 0
        assert report.streams_rejected == 0
        assert {shard.shard_id for shard in report.shards} == {0, 1}

    def test_reject_policy_sheds_under_overload(self):
        scenario = ScenarioConfig(
            name="steady", duration_s=4.0, num_streams=8, rate_fps=400.0, seed=1
        )
        serving = SERVING.with_(backpressure="reject", queue_capacity=8)
        report = _simulate(scenario, ClusterConfig(num_shards=1), serving=serving)
        assert report.shed > 0
        assert report.completed + report.shed == report.submitted
        assert 0.0 < report.shed_rate < 1.0

    def test_deadline_expiry_counts(self):
        scenario = ScenarioConfig(
            name="steady", duration_s=3.0, num_streams=8, rate_fps=300.0, seed=2
        )
        serving = SERVING.with_(deadline_ms=20.0)
        report = _simulate(scenario, ClusterConfig(num_shards=1), serving=serving)
        assert report.shed > 0  # overload + tight deadline must expire frames

    def test_fill_wait_wakes_the_shard_at_its_deadline(self):
        from repro.cluster.scenarios import TraceEvent
        from repro.cluster.simulation import ClusterSimulation

        trace = WorkloadTrace(
            [
                TraceEvent(time_s=0.0, stream_id=0, kind="open"),
                TraceEvent(time_s=0.0, stream_id=1, kind="open"),
                TraceEvent(time_s=0.0, stream_id=0, kind="frame"),
                TraceEvent(time_s=0.001, stream_id=1, kind="frame"),
            ]
        )
        model = ServiceModel()
        cluster = ClusterConfig(num_shards=1, governor=GovernorConfig(enabled=False))
        simulation = ClusterSimulation(cluster, SERVING, model, ADA.regressor_scales)
        simulation.run(trace)
        # Stream 1 arrives while stream 0 runs, so its batch waits out the
        # 2 ms fill wait and then dispatches, without waiting for another event.
        service_s = model.frame_time_s(max(ADA.regressor_scales))
        latencies = sorted(simulation.shards[0].recent_latency(10).samples_s)
        assert latencies == pytest.approx([service_s, SERVING.batch_wait_ms / 1000.0 + service_s])

    def test_block_backlog_resumes_when_expiry_frees_room(self):
        from repro.cluster.scenarios import TraceEvent
        from repro.cluster.simulation import ClusterSimulation

        trace = WorkloadTrace(
            [TraceEvent(time_s=0.0, stream_id=0, kind="open")]
            + [
                TraceEvent(time_s=0.0, stream_id=0, kind="frame", frame_index=index)
                for index in range(5)
            ]
        )
        model = ServiceModel(frame_ms=(7.8,) * 5, overhead_ms=0.2)  # 8 ms a frame
        serving = ServingConfig(
            num_workers=1, backpressure="block", queue_capacity=2, deadline_ms=10.0
        )
        cluster = ClusterConfig(num_shards=1, governor=GovernorConfig(enabled=False))
        simulation = ClusterSimulation(cluster, serving, model, ADA.regressor_scales)
        simulation.run(trace)
        # At 16 ms frames 2 and 3 expire; frame 4 must leave the backlog then
        # (and expire too) rather than strand with no event left to move it.
        (shard,) = simulation.shards
        snapshot = shard.metrics.snapshot()
        assert snapshot.submitted == 5
        assert snapshot.completed + snapshot.shed == snapshot.submitted
        assert (snapshot.completed, snapshot.shed) == (2, 3)
        assert shard.idle

    def test_router_cap_rejects_streams_in_simulation(self):
        cluster = ClusterConfig(
            num_shards=1, router=RouterConfig(max_streams_per_shard=2)
        )
        scenario = ScenarioConfig(name="steady", duration_s=2.0, num_streams=5, rate_fps=10.0)
        report = _simulate(scenario, cluster)
        assert report.streams_rejected == 3
        assert report.streams_opened == 2

    def test_autoscaler_grows_and_shrinks_fleet(self):
        cluster = ClusterConfig(
            num_shards=1,
            governor=GovernorConfig(enabled=False),
            autoscaler=AutoscalerConfig(
                enabled=True, interval_s=0.2, cooldown_s=0.4, max_shards=4
            ),
        )
        scenario = ScenarioConfig(
            name="slo_surge", duration_s=12.0, num_streams=8, rate_fps=30.0,
            peak_multiplier=8.0, seed=4,
        )
        report = _simulate(scenario, cluster)
        ups = [a for a in report.timeline if a.action == "scale-up"]
        downs = [a for a in report.timeline if a.action == "scale-down"]
        assert ups  # the surge forced the fleet to grow
        assert downs  # the calm tail drained it again
        assert report.num_shards > 1


# -- the acceptance gates ------------------------------------------------------
class TestScalingAndSLOGates:
    """The two claims BENCH_cluster_scaling.json ships (fast, analytic model)."""

    def test_near_linear_shard_scaling(self):
        # rate_fps=None derives a saturating offered load from the model's
        # capacity bound — the same sizing the benchmark uses on calibrated
        # models, exercised here on the analytic one.
        reports = run_scaling_suite(
            analytic_service_model(ADA), SERVING, ADA,
            shard_counts=(1, 2, 4), num_streams=32, duration_s=3.0,
        )
        base = reports[1].throughput_fps
        assert base > 0
        ratio_2 = reports[2].throughput_fps / base
        ratio_4 = reports[4].throughput_fps / base
        assert ratio_2 >= 1.7, f"2-shard scaling only {ratio_2:.2f}x"
        assert ratio_4 >= 3.0, f"4-shard scaling only {ratio_4:.2f}x"
        # Lossless and identical frame populations: capacity, not admission.
        for report in reports.values():
            assert report.shed == 0
            assert report.completed == reports[1].completed

    def test_governor_holds_p95_by_degrading_not_shedding(self):
        model = analytic_service_model(ADA)
        # Target sized relative to the model's top-scale cost, the same rule
        # the benchmark applies to calibrated models (floor at 200ms).
        target = max(200.0, 40.0 * 1000.0 * model.frame_time_s(max(ADA.regressor_scales)))
        reports = run_slo_suite(model, SERVING, ADA, target_p95_ms=target, num_shards=2)
        governed, ungoverned = reports["governed"], reports["ungoverned"]
        # Same offered workload on both legs.
        assert governed.submitted == ungoverned.submitted
        # The overload is real: open-loop full quality blows the SLO...
        assert ungoverned.p95_ms > target
        # ...while the governor holds it by walking scale caps down,
        assert governed.p95_ms <= target, (
            f"governed p95 {governed.p95_ms:.1f}ms over the {target}ms target"
        )
        degrades = [a for a in governed.timeline if a.action == "degrade"]
        assert degrades and any(a.knob == "scale_cap" for a in degrades)
        # ...without shedding a single frame (block policy, quality-only trade).
        assert governed.shed == 0 and ungoverned.shed == 0
        # And quality returns once the surge passes.
        restores = [a for a in governed.timeline if a.action == "restore"]
        assert restores


# -- the real shard server ------------------------------------------------------
class TestShardServerControl:
    """The control setters a process shard's child applies to its server.

    ``replica_main`` calls ``set_scale_cap`` / ``set_max_batch_size`` on its
    :class:`~repro.serving.InferenceServer` when the ``SetScaleCap`` /
    ``SetMaxBatchSize`` control messages arrive.
    """

    def test_scale_cap_clamps_real_server(self, micro_bundle):
        serving = ServingConfig(num_workers=1, max_batch_size=2, queue_capacity=16)
        with InferenceServer(micro_bundle, serving=serving, shard_id=0) as server:
            server.open_stream(0)
            frames = list(micro_bundle.val_dataset)[0].frames()
            server.set_scale_cap(32)
            assert server.scale_cap == 32
            requests = [
                server.submit(0, frame.image, index) for index, frame in enumerate(frames)
            ]
            assert server.drain(timeout=120.0)
            results = [request.result(timeout=1.0) for request in requests]
            assert all(result.ok for result in results)
            assert all(result.scale_used <= 32 for result in results)
        # Telemetry flowed through the real ServerMetrics.
        assert server.metrics.snapshot().completed == len(frames)

    def test_set_max_batch_size_applies_at_runtime(self, micro_bundle):
        serving = ServingConfig(num_workers=1, max_batch_size=4, queue_capacity=16)
        server = InferenceServer(micro_bundle, serving=serving)
        assert server.scheduler.max_batch_size == 4
        server.set_max_batch_size(1)
        assert server.scheduler.max_batch_size == 1
        with pytest.raises(ValueError):
            server.set_max_batch_size(0)


class TestReplicaSpec:
    def test_pickle_round_trip_and_build(self, micro_bundle, micro_config, tmp_path):
        bundle_dir = micro_bundle.save(tmp_path / "bundle")
        spec = ReplicaSpec.for_bundle_dir(
            3, micro_config, micro_config.serving, bundle_dir
        )
        assert spec.roundtrips_by_pickle()
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        # The spawn seam: a worker process would run exactly this.
        server = clone.build(dataset_cls=type(micro_bundle.val_dataset))
        assert isinstance(server, InferenceServer) and server.shard_id == 3
        server.start()
        try:
            server.open_stream(0)
            frame = list(micro_bundle.val_dataset)[0].frames()[0]
            result = server.submit(0, frame.image, 0).result(timeout=60.0)
            assert result.ok
        finally:
            server.stop()


# -- facade / config / CLI -----------------------------------------------------
class TestClusterConfigAndFacade:
    def test_cluster_config_round_trips(self):
        config = ClusterConfig(
            num_shards=3,
            router=RouterConfig(policy="hash", max_streams_per_shard=7),
            governor=GovernorConfig(target_p95_ms=123.0, release_steps=2),
            autoscaler=AutoscalerConfig(enabled=True, max_shards=5),
        )
        clone = ClusterConfig.from_dict(config.to_dict())
        assert clone == config
        assert ClusterConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config

    def test_validation_catches_inconsistencies(self):
        with pytest.raises(ValueError):
            ClusterConfig(num_shards=0).validate()
        with pytest.raises(ValueError):
            ClusterConfig(mode="warp").validate()
        with pytest.raises(ValueError):
            RouterConfig(policy="telepathy").validate()
        with pytest.raises(ValueError):
            GovernorConfig(target_p95_ms=-1.0).validate()
        with pytest.raises(ValueError):
            AutoscalerConfig(scale_down_at=0.9, scale_up_at=0.5).validate()
        with pytest.raises(ValueError):
            ScenarioConfig(duration_s=0.0).validate()
        with pytest.raises(ValueError):
            ClusterConfig(
                num_shards=9, autoscaler=AutoscalerConfig(enabled=True, max_shards=8)
            ).validate()

    def test_routing_policies_registered(self):
        assert {"hash", "least-loaded"} <= set(ROUTING_POLICIES.names())

    def test_facade_runs_scenario_without_training(self):
        facade = api.Cluster(
            cluster=ClusterConfig(num_shards=2),
            serving=SERVING,
            adascale=ADA,
            service_model=analytic_service_model(ADA),
        )
        report = facade.run_scenario(
            "flash_crowd", duration_s=4.0, num_streams=4, rate_fps=20.0
        )
        assert report.num_shards == 2
        assert report.completed > 0
        assert "Cluster report" in report.format()

    def test_facade_requires_model_or_bundle(self):
        with pytest.raises(ValueError):
            api.Cluster()

    def test_run_scenario_overrides_do_not_mutate_the_facade(self):
        facade = api.Cluster(
            cluster=ClusterConfig(num_shards=2),
            serving=SERVING,
            adascale=ADA,
            service_model=analytic_service_model(ADA),
        )
        report = facade.run_scenario(
            "steady", shards=4, duration_s=2.0, num_streams=4, rate_fps=15.0
        )
        assert report.num_shards == 4
        assert facade.cluster.num_shards == 2  # per-run override only

    def test_from_config_defers_training_for_analytic_simulation(self):
        # calibrate=False + simulate mode must never touch the training
        # pipeline; 'vid' would take minutes if it did.
        facade = api.Cluster.from_config(
            "vid", calibrate=False, cluster={"num_shards": 2}
        )
        report = facade.run_scenario(
            "steady", duration_s=1.0, num_streams=2, rate_fps=10.0
        )
        assert report.completed > 0
        assert facade._bundle is None  # still untrained

    def test_removed_inprocess_mode_is_refused(self):
        with pytest.raises(ValueError, match="mode must be 'simulate' or 'process'"):
            ClusterConfig(mode="inprocess").validate()

    def test_loader_refuses_removed_inprocess_mode(self, tmp_path):
        refusal = "mode must be 'simulate' or 'process'"
        with pytest.raises(ValueError, match=refusal):
            api.Cluster.from_config("tiny", cluster={"mode": "inprocess"}, calibrate=False)
        path = tmp_path / "cluster.json"
        path.write_text(json.dumps({"num_shards": 2, "mode": "inprocess"}))
        with pytest.raises(ValueError, match=refusal):
            api.Cluster.from_config(
                "tiny", cluster=ClusterConfig.load(path), calibrate=False
            )

    def test_flash_crowd_short_surge_still_valid(self):
        # A surge window narrower than the default join ramp must clamp the
        # ramp, not generate close-before-open events.
        trace = build_scenario(
            ScenarioConfig(
                name="flash_crowd", duration_s=30.0, num_streams=2,
                surge_duration_frac=0.01, seed=11,
            )
        )
        assert trace.num_streams > 2  # the crowd still joined

    def test_calibrated_model_measures_real_detector(self, micro_bundle):
        model = calibrate_service_model(micro_bundle, frames_per_scale=2, repeats=3, batch_size=2)
        assert model.scales == tuple(micro_bundle.config.adascale.regressor_scales)
        assert all(ms > 0 for ms in model.frame_ms)
        # Median-of-3 timings on a loaded single-core box still jitter, so only
        # pin the gross shape: the bottom of the ladder must not measurably
        # dominate the top (half price covers any realistic noise spike).
        assert model.frame_ms[-1] < 2.0 * model.frame_ms[0]
        assert 0.0 <= model.batch_marginal <= 1.0
        model.validate()


class TestClusterCLI:
    def test_cluster_command_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        output = tmp_path / "report.json"
        trace_path = tmp_path / "trace.jsonl"
        code = main(
            [
                "cluster", "--shards", "4", "--scenario", "flash_crowd",
                "--no-calibrate", "--duration", "5", "--streams", "4",
                "--rate", "15", "--save-trace", str(trace_path),
                "--output", str(output),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "Cluster report" in printed and "Per-shard telemetry" in printed
        payload = json.loads(output.read_text())
        assert payload["num_shards"] == 4
        assert payload["completed"] > 0
        assert trace_path.exists()

        # Replaying the saved trace reproduces the exact same workload.
        code = main(
            [
                "cluster", "--shards", "4", "--no-calibrate",
                "--trace", str(trace_path), "--output", str(output),
            ]
        )
        assert code == 0
        replayed = json.loads(output.read_text())
        assert replayed["submitted"] == payload["submitted"]
        assert replayed["completed"] == payload["completed"]

    def test_bench_list_includes_cluster_benchmark(self, capsys):
        from repro.cli import main

        assert main(["bench", "--list"]) == 0
        assert "cluster_scaling" in capsys.readouterr().out

    def test_bad_arguments_exit_cleanly(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["cluster", "--shards", "0", "--no-calibrate"])
        with pytest.raises(SystemExit):
            main(["cluster", "--scenario", "apocalypse"])


# -- simulated shard internals -------------------------------------------------
class TestSimulatedShard:
    def _shard(self, **serving_kwargs):
        from repro.cluster.simulation import SimulatedShard

        clock = {"now": 0.0}
        shard = SimulatedShard(
            shard_id=0,
            serving=ServingConfig(**{"num_workers": 1, "max_batch_size": 4, **serving_kwargs}),
            model=analytic_service_model(ADA),
            ladder=ADA.regressor_scales,
            clock=lambda: clock["now"],
        )
        return shard, clock

    @staticmethod
    def _run_to_idle(shard, clock):
        """Drive dispatch and completions in time order; returns every batch."""
        batches, running = [], []
        while True:
            started, _ = shard.start_batches(now=clock["now"])
            for finish_s, batch in started:
                batches.append(batch)
                running.append((finish_s, batch))
            if not running:
                return batches
            running.sort(key=lambda item: item[0])
            clock["now"], batch = running.pop(0)
            shard.finish_batch(batch, now=clock["now"])

    def test_batches_respect_per_stream_ordering(self):
        shard, clock = self._shard()
        shard.set_scale_cap(32)  # one bucket: every frame batches together
        for stream in range(3):
            shard.open_stream(stream)
        for index in range(2):
            for stream in range(3):
                shard.admit(stream, index, now=0.0)
        started, _ = shard.start_batches(now=0.0)
        assert len(started) == 1  # one worker
        _, batch = started[0]
        # Three distinct streams — a stream never batches with itself.
        assert sorted(frame.stream_id for frame in batch) == [0, 1, 2]
        assert shard.queue_depth == 3  # the second frames wait for task-done

    def test_later_frame_never_overtakes_a_scale_mismatched_earlier_one(self):
        """A stream's frames dispatch in order even when its scale parts ways.

        The scale walks drift apart, so batches form from one bucket while
        other streams' heads wait in another; no stream's later frame may run
        in their place.
        """
        shard, clock = self._shard(max_batch_size=4, num_workers=2)
        for stream in range(6):
            shard.open_stream(stream)
        for index in range(8):
            for stream in range(6):
                assert shard.admit(stream, index, now=0.0)
        batches = self._run_to_idle(shard, clock)
        dispatched: dict[int, list[int]] = {}
        for batch in batches:
            assert len({frame.stream_id for frame in batch}) == len(batch)
            assert len({frame.scale for frame in batch}) == 1
            for frame in batch:
                dispatched.setdefault(frame.stream_id, []).append(frame.frame_index)
        assert dispatched == {stream: list(range(8)) for stream in range(6)}
        # The walks did fragment the buckets, so the ordering was at stake.
        assert len({batch[0].scale for batch in batches}) > 1
        assert shard.idle and shard.metrics.completed == 48

    def test_block_holds_the_rest_outside_the_scheduler(self):
        shard, clock = self._shard(
            backpressure="block", queue_capacity=2, max_batch_size=1
        )
        shard.open_stream(0)
        for index in range(5):
            assert shard.admit(0, index, now=0.0)  # lossless: nothing refused
        assert shard.scheduler.depth == 2  # the scheduler holds its capacity
        assert shard.queue_depth == 5  # the blocked rest is backlog, not lost
        batches = self._run_to_idle(shard, clock)
        assert [batch[0].frame_index for batch in batches] == [0, 1, 2, 3, 4]
        # Latency counts from arrival, not from when the backlog let it in.
        assert all(batch[0].enqueue_time == 0.0 for batch in batches)
        latest = max(shard.recent_latency(10).samples_s)
        assert latest == pytest.approx(clock["now"])
        assert shard.metrics.completed == 5 and shard.metrics.snapshot().shed == 0

    def test_scale_cap_floor_is_ladder_minimum(self):
        shard, _ = self._shard()
        shard.open_stream(0)
        shard.set_scale_cap(1)  # absurd cap: clamps to ladder min, not below
        shard.admit(0, 0, now=0.0)
        ((_, batch),), _ = shard.start_batches(now=0.0)
        assert batch[0].scale == min(ADA.regressor_scales)

    def test_occupancy_signal(self):
        shard, _ = self._shard()
        shard.open_stream(0)
        shard.open_stream(1)
        assert shard.occupancy == 0.0
        shard.admit(0, 0, now=0.0)
        shard.admit(1, 0, now=0.0)
        shard.start_batches(now=0.0)
        assert shard.occupancy >= 1.0  # worker busy (+ possibly queued)
