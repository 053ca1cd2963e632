"""Process-parallel shard backend: spawn seam, crash supervision, migration.

Every test here crosses a real ``spawn`` process boundary — a replica child
is built from a :class:`ReplicaSpec` pickled across the seam and loads the
shared micro bundle from ``micro_bundle_dir``.  The fault-injection suite
kills children at the three interesting moments (frames still queue-waiting,
mid-batch with results flowing, and after a scale commit) and asserts the
supervisor's contract: every future resolves, live streams migrate with
their AdaScale scale re-seeded, nothing is stranded, and the shard respawns
within the bounded backoff.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.cluster import (
    ClusterConfig,
    ProcessPoolConfig,
    ProcessReplica,
    ReplicaSpec,
    ReplicaSupervisor,
    Router,
    RouterConfig,
    parse_fault_spec,
)
from repro.config import ServingConfig, TelemetryConfig
from repro.observability import Tracer
from repro.serving.request import RequestStatus
from repro.serving.server import InferenceServer

#: one worker, singleton batches, no batch-wait: frame results are a pure
#: function of (weights, frame, scale chain) — the determinism the
#: bit-identical migration comparison relies on
DETERMINISTIC_SERVING = ServingConfig(
    num_workers=1, max_batch_size=1, queue_capacity=16, batch_wait_ms=0.0
)
#: tight bounds so crash→respawn cycles finish in test time
FAST_RESPAWN = ProcessPoolConfig(respawn_backoff_s=0.05, respawn_backoff_max_s=0.2)


@pytest.fixture(scope="module")
def frames(micro_val_dataset):
    """Six validation images shared by every test in this module."""
    return [frame.image for snippet in micro_val_dataset for frame in snippet]


def _spec(micro_config, micro_bundle_dir, shard_id=0, serving=DETERMINISTIC_SERVING):
    return ReplicaSpec.for_bundle_dir(shard_id, micro_config, serving, micro_bundle_dir)


def _wait_for(predicate, timeout=20.0, message="condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            raise AssertionError(f"timed out waiting for {message}")
        time.sleep(0.02)


def _run_sequence(replica, frames, stream_id, frame_indices, timeout=60.0):
    """Submit frames in order and return their terminal FrameResults."""
    requests = [
        replica.submit(stream_id, frames[index % len(frames)], index)
        for index in frame_indices
    ]
    assert replica.drain(timeout=timeout)
    return [request.result(timeout=5.0) for request in requests]


class TestSpawnSeam:
    def test_process_results_match_built_server_bit_for_bit(
        self, micro_config, micro_bundle_dir, frames
    ):
        """The same spec, built on either side of the boundary, is one shard.

        The server ``spec.build()`` returns here and the spawned child load
        identical saved weights and run the identical sequential schedule, so
        detections must agree to the bit — the proof that ``replica_main``
        really runs ``ReplicaSpec.build`` unchanged.
        """
        spec = _spec(micro_config, micro_bundle_dir)
        assert spec.roundtrips_by_pickle()

        reference = spec.build().start()
        try:
            reference.open_stream(0)
            expected = _run_sequence(reference, frames, 0, range(6))
        finally:
            reference.stop()

        replica = ProcessReplica(spec, FAST_RESPAWN).start()
        try:
            assert replica.alive and replica.pid not in (None, os.getpid())
            replica.open_stream(0)
            actual = _run_sequence(replica, frames, 0, range(6))
        finally:
            replica.stop()

        assert [r.status for r in actual] == [RequestStatus.COMPLETED] * 6
        for mine, theirs in zip(actual, expected):
            assert mine.scale_used == theirs.scale_used
            assert mine.is_key_frame == theirs.is_key_frame
            np.testing.assert_array_equal(mine.detection.boxes, theirs.detection.boxes)
            np.testing.assert_array_equal(mine.detection.scores, theirs.detection.scores)
            np.testing.assert_array_equal(
                mine.detection.class_ids, theirs.detection.class_ids
            )
        assert not replica.alive
        assert replica._process.exitcode == 0

    def test_sigterm_exits_cleanly_with_no_orphans(
        self, micro_config, micro_bundle_dir
    ):
        """SIGTERM (the CI/pytest teardown signal) must mean exit 0, not -15."""
        replica = ProcessReplica(_spec(micro_config, micro_bundle_dir), FAST_RESPAWN)
        replica.start()
        try:
            os.kill(replica.pid, signal.SIGTERM)
            replica._process.join(15.0)
            assert replica._process.exitcode == 0
        finally:
            replica.stop()
        assert replica._process not in multiprocessing.active_children()


class TestServerClose:
    def test_close_is_idempotent_started_or_not(self, micro_bundle):
        never_started = InferenceServer(micro_bundle, serving=DETERMINISTIC_SERVING)
        never_started.close()
        never_started.close()  # second close on an un-started server: no-op

        server = InferenceServer(micro_bundle, serving=DETERMINISTIC_SERVING).start()
        server.close()
        server.close()
        server.stop()  # stop after close is equally harmless

    def test_context_manager_survives_redundant_stop(self, micro_bundle):
        with InferenceServer(micro_bundle, serving=DETERMINISTIC_SERVING) as server:
            server.close()
        server.close()


def _fleet(micro_config, micro_bundle_dir, count=2):
    """A started fleet + router + supervisor wired like the controller does."""
    replicas = [
        ProcessReplica(_spec(micro_config, micro_bundle_dir, shard_id), FAST_RESPAWN)
        for shard_id in range(count)
    ]
    for replica in replicas:
        replica.start(wait_ready=False)
    for replica in replicas:
        replica.wait_ready(ProcessPoolConfig().start_timeout_s)
    router = Router(RouterConfig())
    timeline = []
    supervisor = ReplicaSupervisor(
        replicas, router, FAST_RESPAWN, on_action=timeline.append
    )
    return replicas, router, supervisor, timeline


def _shutdown_fleet(fleet):
    for replica in fleet:
        replica.stop()


def _crash_and_recover(victim, fleet, supervisor, timeout=20.0):
    """Drive the supervisor through crash → migrate → respawn → ready."""
    _wait_for(lambda: victim.crashed, timeout, "crash detection")
    supervisor.poll(now=0.0)  # detect + migrate + schedule respawn
    supervisor.poll(now=FAST_RESPAWN.respawn_backoff_max_s)  # backoff elapsed
    assert supervisor.respawns == 1
    respawned = next(r for r in fleet if r.shard_id == victim.shard_id)
    assert respawned is not victim
    respawned.wait_ready(ProcessPoolConfig().start_timeout_s)
    return respawned


class TestFaultInjection:
    def test_kill_while_frames_queue_wait(self, micro_config, micro_bundle_dir, frames):
        """SIGKILL with a full queue: every waiting future resolves as migrated."""
        fleet, router, supervisor, timeline = _fleet(micro_config, micro_bundle_dir)
        try:
            home = router.assign(0, fleet)
            home.open_stream(0)
            requests = [
                home.submit(0, frames[index % len(frames)], index) for index in range(8)
            ]
            home.kill()  # most frames are still queue-waiting in the child

            survivor = _crash_and_recover(home, fleet, supervisor)
            results = [request.result(timeout=10.0) for request in requests]
            assert all(
                result.status in (RequestStatus.COMPLETED, RequestStatus.MIGRATED)
                for result in results
            )
            assert any(result.status is RequestStatus.MIGRATED for result in results)

            assert supervisor.crashes == 1
            assert supervisor.migrated_streams == 1
            assert supervisor.stranded_streams == 0
            assert home.metrics.snapshot().shed_by_cause["migrated"] >= 1
            assert [a.action for a in timeline].count("crash") == 1
            assert "migrate" in [a.action for a in timeline]
            assert "respawn" in [a.action for a in timeline]

            # The stream lives on: its new home serves the next frame.
            new_home = router.lookup(0)
            assert new_home is not home and new_home in fleet
            follow_up = new_home.submit(0, frames[0], 100)
            assert follow_up.result(timeout=30.0).status is RequestStatus.COMPLETED
            assert survivor.alive
        finally:
            _shutdown_fleet(fleet)

    def test_kill_mid_batch_after_first_commit(
        self, micro_config, micro_bundle_dir, frames
    ):
        """SIGKILL while results are flowing: completed frames stay completed,
        the rest migrate, and the re-seed scale is the last committed one."""
        fleet, router, supervisor, timeline = _fleet(micro_config, micro_bundle_dir)
        try:
            home = router.assign(0, fleet)
            home.open_stream(0)
            requests = [
                home.submit(0, frames[index % len(frames)], index) for index in range(6)
            ]
            first = requests[0].result(timeout=30.0)  # ≥1 frame committed
            assert first.status is RequestStatus.COMPLETED
            committed_scale = home.last_scale(0)
            assert committed_scale is not None
            home.kill()

            _crash_and_recover(home, fleet, supervisor)
            statuses = [request.result(timeout=10.0).status for request in requests]
            assert statuses[0] is RequestStatus.COMPLETED
            assert all(
                status in (RequestStatus.COMPLETED, RequestStatus.MIGRATED)
                for status in statuses
            )

            new_home = router.lookup(0)
            migrate = next(a for a in timeline if a.action == "migrate")
            assert f"scale re-seeded to {home.last_scale(0)}" in migrate.reason
            assert new_home.last_scale(0) == home.last_scale(0)
            assert supervisor.stranded_streams == 0
        finally:
            _shutdown_fleet(fleet)

    def test_post_commit_migration_is_bit_identical(
        self, micro_config, micro_bundle_dir, frames
    ):
        """Kill between frames: the migrated tail matches an uninterrupted run.

        With DFF off (``key_frame_interval=1``, the deterministic serving
        default here) a frame's detection depends only on the weights and the
        stream's scale chain.  Re-seeding the migrated stream with the last
        committed scale therefore continues the chain exactly — the migrated
        frames must be bit-identical to the same frames on an uninterrupted
        single server.  (With DFF *on*, a non-key frame after migration would
        be re-detected from a fresh key frame instead of flowed features —
        correct but not bit-identical, which is why this test pins DFF off.)
        """
        spec = _spec(micro_config, micro_bundle_dir)
        reference = spec.build().start()
        try:
            reference.open_stream(7)
            expected = _run_sequence(reference, frames, 7, range(6))
        finally:
            reference.stop()

        fleet, router, supervisor, _ = _fleet(micro_config, micro_bundle_dir)
        try:
            home = router.assign(7, fleet)
            home.open_stream(7)
            head = _run_sequence(home, frames, 7, range(3))
            assert [r.status for r in head] == [RequestStatus.COMPLETED] * 3
            home.kill()  # post-commit: nothing in flight, scale 3 committed

            _crash_and_recover(home, fleet, supervisor)
            new_home = router.lookup(7)
            assert new_home is not home
            tail = _run_sequence(new_home, frames, 7, range(3, 6))

            assert [r.status for r in tail] == [RequestStatus.COMPLETED] * 3
            for mine, theirs in zip(head + tail, expected):
                assert mine.scale_used == theirs.scale_used
                np.testing.assert_array_equal(
                    mine.detection.boxes, theirs.detection.boxes
                )
                np.testing.assert_array_equal(
                    mine.detection.scores, theirs.detection.scores
                )
                np.testing.assert_array_equal(
                    mine.detection.class_ids, theirs.detection.class_ids
                )
            assert supervisor.migrated_streams == 1
            assert supervisor.stranded_streams == 0
        finally:
            _shutdown_fleet(fleet)


class TestAutoscalerSeam:
    def test_spawned_shard_serves_and_drained_shard_hands_off(
        self, micro_config, micro_bundle_dir, frames
    ):
        """``spawn_shard`` / ``drain_shard`` — the autoscaler's two actions."""
        fleet, router, supervisor, timeline = _fleet(micro_config, micro_bundle_dir, count=1)
        original = fleet[0]
        spawned = None
        try:
            spawned = supervisor.spawn_shard(
                _spec(micro_config, micro_bundle_dir, shard_id=1), now=0.0
            )
            assert fleet == [original, spawned]
            spawned.wait_ready(ProcessPoolConfig().start_timeout_s)
            assert spawned.accepting and spawned.pid not in (None, original.pid)
            # Least-loaded placement (ties by shard id): stream 0 on the
            # original shard, stream 1 on the new one.
            for stream_id in (0, 1):
                router.assign(stream_id, fleet).open_stream(stream_id)
            assert router.lookup(1) is spawned
            served = _run_sequence(spawned, frames, 1, range(3))
            assert [r.status for r in served] == [RequestStatus.COMPLETED] * 3

            # Frames still in flight when the drain starts finish on the
            # drained shard: a drain abandons nothing.
            tail = [spawned.submit(1, frames[index], index) for index in range(3, 6)]
            supervisor.drain_shard(spawned, now=1.0)
            assert [r.result(timeout=5.0).status for r in tail] == (
                [RequestStatus.COMPLETED] * 3
            )
            assert spawned not in fleet and not spawned.alive
            assert spawned._process.exitcode == 0
            # The drained shard takes no new placements...
            assert not spawned.accepting
            assert router.assign(2, [spawned, original]) is original
            # ...and its stream moved to the surviving shard, where it keeps
            # serving from its committed scale.
            assert router.lookup(1) is original
            continued = _run_sequence(original, frames, 1, range(6, 8))
            assert [r.status for r in continued] == [RequestStatus.COMPLETED] * 2

            snapshot = spawned.metrics.snapshot()
            assert snapshot.submitted == snapshot.completed + snapshot.shed == 6
            assert snapshot.shed == 0 and snapshot.failed == 0
            actions = [(a.action, a.shard_id) for a in timeline]
            assert ("spawn", 1) in actions and ("drain", 1) in actions
            assert ("migrate", 0) in actions
        finally:
            # stop() is idempotent: a drained shard is already stopped.
            _shutdown_fleet([original] + ([spawned] if spawned is not None else []))


class TestFleetTracing:
    def test_child_spans_ship_rebased_into_parent_trace(
        self, micro_config, micro_bundle_dir, frames
    ):
        """A traced replica's serving spans land in the parent tracer, rebased.

        The child runs its own tracer on its own monotonic clock; what the
        parent's trace must show is the fleet view — timestamps on the parent
        timeline, ids disjoint from any other child, the worker's real OS pid
        attached, and zero spans lost on an orderly shutdown.
        """
        spec = ReplicaSpec.for_bundle_dir(
            0, micro_config, DETERMINISTIC_SERVING, micro_bundle_dir,
            telemetry=TelemetryConfig(enabled=True),
        )
        assert spec.telemetry is not None and spec.telemetry["jsonl_path"] == ""
        with Tracer(TelemetryConfig(enabled=True)) as tracer:
            parent_start = time.monotonic()
            replica = ProcessReplica(spec, FAST_RESPAWN).start()
            try:
                replica.open_stream(0)
                results = _run_sequence(replica, frames, 0, range(4))
            finally:
                replica.stop()
            parent_end = time.monotonic()
        assert [r.status for r in results] == [RequestStatus.COMPLETED] * 4

        # NTP-style handshake produced a bounded offset estimate.
        assert replica.clock_offset_s is not None
        assert replica.clock_uncertainty_s is not None
        assert replica.clock_uncertainty_s >= 0.0
        assert replica.span_drops == 0
        assert replica._pending_spans == []

        child_events = [
            e for e in tracer.events() if e.attrs.get("os_pid") == replica.pid
        ]
        names = {e.name for e in child_events}
        assert {"serving/admit", "serving/queue_wait", "serving/service",
                "serving/backbone_batch", "serving/complete_frame"} <= names
        slack = replica.clock_uncertainty_s + 0.05
        base = 1 << 32
        for event in child_events:
            assert event.attrs["generation"] == 0
            assert event.span_id >= base  # re-namespaced parent-side
            if event.trace_id > 0:
                assert event.trace_id >= base
            # Rebased onto the parent clock: inside the parent-side window.
            assert parent_start - slack <= event.start_s
            assert event.start_s + event.duration_s <= parent_end + slack
        completions = [e for e in child_events if e.name == "serving/complete_frame"]
        assert len(completions) == 4
        # The parent counts the same frames from the child's Done messages.
        assert replica.metrics.snapshot().completed == 4

    def test_untraced_replica_ships_nothing(self, micro_config, micro_bundle_dir, frames):
        with Tracer(TelemetryConfig(enabled=True)) as tracer:
            replica = ProcessReplica(_spec(micro_config, micro_bundle_dir), FAST_RESPAWN).start()
            try:
                replica.open_stream(0)
                _run_sequence(replica, frames, 0, range(2))
            finally:
                replica.stop()
        assert replica.span_drops == 0
        # No telemetry in the spec: the child runs no tracer and ships no spans.
        assert not any("os_pid" in event.attrs for event in tracer.events())

    def test_metrics_continuity_across_respawn_generations(
        self, micro_config, micro_bundle_dir, frames
    ):
        """One shard's story spans its crash: counters continue, traces fork.

        The respawned replica reuses its predecessor's parent-side
        ServerMetrics (per-shard reporting never resets) while the fleet
        trace tells generation-0 and generation-1 spans apart by their
        ``generation`` and ``os_pid`` attrs.
        """
        replicas = [
            ProcessReplica(
                ReplicaSpec.for_bundle_dir(
                    shard_id, micro_config, DETERMINISTIC_SERVING, micro_bundle_dir,
                    telemetry=TelemetryConfig(enabled=True),
                ),
                FAST_RESPAWN,
            )
            for shard_id in range(2)
        ]
        tracer = Tracer(TelemetryConfig(enabled=True, ring_capacity=1 << 16))

        def _shard_spans(shard_id: int) -> list:
            return [
                event for event in tracer.events()
                if event.shard_id == shard_id and "os_pid" in event.attrs
            ]

        with tracer:
            for replica in replicas:
                replica.start(wait_ready=False)
            for replica in replicas:
                replica.wait_ready(ProcessPoolConfig().start_timeout_s)
            router = Router(RouterConfig())
            supervisor = ReplicaSupervisor(replicas, router, FAST_RESPAWN)
            try:
                home = router.assign(0, replicas)
                home.open_stream(0)
                head = _run_sequence(home, frames, 0, range(2))
                assert [r.status for r in head] == [RequestStatus.COMPLETED] * 2

                # SIGKILL loses anything not yet shipped, so wait out one span
                # cadence — generation 0 must be in the trace before it dies.
                _wait_for(
                    lambda: any(
                        e.attrs["generation"] == 0 for e in _shard_spans(home.shard_id)
                    ),
                    10.0,
                    "generation-0 spans",
                )
                # Queue more work, then kill: the in-flight frames migrate.
                requests = [home.submit(0, frames[i % len(frames)], 10 + i) for i in range(4)]
                home.kill()
                _crash_and_recover(home, replicas, supervisor)
                statuses = [r.result(timeout=10.0).status for r in requests]
                assert RequestStatus.MIGRATED in statuses

                respawned = next(r for r in replicas if r.shard_id == home.shard_id)
                assert respawned is not home
                assert respawned.metrics is home.metrics  # continuity across the crash
                assert respawned.generation == home.generation + 1

                respawned.open_stream(5)
                tail = _run_sequence(respawned, frames, 5, range(3))
                assert [r.status for r in tail] == [RequestStatus.COMPLETED] * 3

                # The shared snapshot merges both generations' completions and
                # keeps the migrated-vs-dropped shed distinction.
                merged = respawned.metrics.snapshot()
                assert merged.completed >= 5  # 2 before the crash + 3 after
                assert merged.shed_by_cause.get("migrated", 0) >= 1
                assert merged.shed == sum(merged.shed_by_cause.values())
            finally:
                _shutdown_fleet(replicas)
        assert supervisor.span_drops + sum(r.span_drops for r in replicas) == 0

        crashed_shard = _shard_spans(home.shard_id)
        generations = {event.attrs["generation"] for event in crashed_shard}
        assert {0, 1} <= generations
        pids = {event.attrs["os_pid"] for event in crashed_shard}
        assert len(pids) >= 2  # the respawn really was a fresh OS process


class TestProcessModeEndToEnd:
    def test_traced_scenario_with_injected_kill(
        self, micro_bundle, micro_bundle_dir
    ):
        """The full stack, traced: scheduled kill, one coherent fleet trace."""
        import repro.api as api

        cluster = api.Cluster(
            bundle=micro_bundle,
            cluster=ClusterConfig(
                num_shards=2,
                mode="process",
                governor=ClusterConfig().governor.with_(enabled=False),
            ),
        )
        cluster._bundle_dir = micro_bundle_dir
        report = cluster.run_scenario(
            "flash_crowd",
            fault="kill-replica:shard=0,at=1.0",
            time_scale=0.5,
            duration_s=4.0,
            num_streams=4,
            rate_fps=6.0,
            telemetry=TelemetryConfig(enabled=True, ring_capacity=1 << 18),
        )

        assert report.mode == "process"
        assert report.completed > 0
        assert report.crashes == 1
        assert report.respawns >= 1
        assert report.streams_migrated >= 1
        assert report.streams_stranded == 0
        assert report.shed_by_cause.get("migrated", 0) >= 0
        actions = [action.action for action in report.timeline]
        for expected in ("fault", "crash", "migrate", "respawn"):
            assert expected in actions
        # The SIGKILLed child is reaped before its exit status is read.
        crash_action = next(a for a in report.timeline if a.action == "crash")
        assert "exitcode -9" in crash_action.reason, crash_action.reason
        # Conservation: every submitted frame reached exactly one terminal state.
        assert report.submitted == report.completed + report.shed

        # -- the fleet trace ------------------------------------------------
        events = report.trace_events
        assert events
        # (b) supervision is a first-class swimlane, fault annotated.
        spans = {e.name for e in events if e.kind == "span"}
        assert {"supervisor/crash", "supervisor/migrate", "supervisor/respawn"} <= spans
        crash = next(e for e in events if e.name == "supervisor/crash")
        assert crash.attrs["fault"] == "kill-replica"
        respawn = next(e for e in events if e.name == "supervisor/respawn")
        assert respawn.attrs["generation"] == 1

        # (a) detector-stage spans arrived from real worker processes of
        # both shards — each tagged with its worker's OS pid.
        child_events = [
            e for e in events
            if isinstance(e.attrs.get("os_pid"), int) and e.attrs["os_pid"] > 0
        ]
        assert child_events
        child_shards = {e.shard_id for e in child_events}
        assert child_shards == {0, 1}
        stage_pids = {
            e.attrs["os_pid"] for e in child_events
            if e.name in ("serving/service", "serving/backbone_batch")
        }
        assert len(stage_pids) >= 2
        parent_pid = os.getpid()
        assert parent_pid not in stage_pids

        # (c) every rebased child timestamp sits inside the parent's run
        # envelope (small slack for the clock-offset uncertainty).
        run = next(e for e in events if e.name == "cluster/run")
        assert run.attrs["mode"] == "process" and run.attrs["shards"] == 2
        lo, hi = run.start_s - 0.1, run.start_s + run.duration_s + 0.1
        for event in child_events:
            assert lo <= event.start_s <= hi
            assert event.start_s + event.duration_s <= hi

        # Shipping never blocked and never shed: the trace is complete.
        assert report.span_drops == 0
        assert report.to_dict()["span_drops"] == 0

        # The run is exportable as one valid multi-process Chrome trace.
        from repro.observability import to_chrome_trace, validate_chrome_trace

        payload = to_chrome_trace(events)
        assert validate_chrome_trace(payload) == []
        chrome_pids = {
            r["pid"] for r in payload["traceEvents"]
            if r.get("ph") == "M" and r["name"] == "process_name"
        }
        assert stage_pids <= chrome_pids

    def test_governor_degrades_real_cluster_under_impossible_slo(
        self, micro_bundle, micro_bundle_dir
    ):
        """The governor acting on real shards: caps cross the process boundary."""
        import repro.api as api

        cluster = api.Cluster(
            bundle=micro_bundle,
            cluster=ClusterConfig(
                num_shards=1,
                mode="process",
                governor=ClusterConfig().governor.with_(
                    target_p95_ms=0.01,  # unmeetable: force the feedback loop to act
                    interval_s=0.01,
                    warmup_completions=2,
                    window=8,
                ),
            ),
            serving=ServingConfig(num_workers=1, max_batch_size=2, queue_capacity=64),
        )
        cluster._bundle_dir = micro_bundle_dir
        report = cluster.run_scenario(
            "steady", time_scale=0.5, duration_s=1.5, num_streams=3, rate_fps=30.0, seed=7
        )
        assert report.mode == "process"
        assert report.submitted == report.completed + report.shed > 0
        degrades = [a for a in report.timeline if a.action == "degrade"]
        assert degrades, "governor never acted on a real cluster"
        assert any(a.knob == "scale_cap" for a in degrades)
        # Out of scale rungs, the governor halves the batch bound (2 -> 1).
        assert any(a.knob == "max_batch_size" and a.new == 1 for a in degrades)
        # The cap is live in the child: the final scale cap comes from the
        # child's last telemetry (ladder (64, 48, 32, 24): capped < 64).
        assert report.shards[0].final_scale_cap in (24, 32, 48)

    def test_fault_spec_parsing_round_trip(self):
        fault = parse_fault_spec("kill:shard=1,at=2.5")
        assert (fault.kind, fault.shard_id, fault.at_s) == ("kill-replica", 1, 2.5)
        with pytest.raises(ValueError):
            parse_fault_spec("kill:shard=1,typo=2.5")
        with pytest.raises(ValueError):
            parse_fault_spec("unknown-kind")
