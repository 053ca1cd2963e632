"""The cluster runtime: trace replay over real or simulated shards.

:class:`ClusterController` owns the pieces — shards, router, governor,
autoscaler — and replays a :class:`~repro.cluster.scenarios.WorkloadTrace`
through them:

* ``mode="simulate"`` — the calibrated virtual-time engine
  (:class:`~repro.cluster.simulation.ClusterSimulation`): deterministic,
  machine-independent, used by the scenario suite and the scaling benchmark;
* ``mode="process"`` — one spawned OS process per shard
  (:class:`~repro.cluster.procpool.ProcessReplica`), each running a real
  :class:`~repro.serving.InferenceServer` on real frames in wall-clock time
  (optionally time-compressed), under a
  :class:`~repro.cluster.procpool.ReplicaSupervisor`; the governor and the
  autoscaler tick on the wall clock between submissions.

Both paths end in the same :class:`~repro.cluster.report.ClusterReport`.

:func:`run_scaling_suite` and :func:`run_slo_suite` are the two canned
experiments the ``BENCH_cluster_scaling`` benchmark and ``tests/test_cluster``
share: throughput scaling across shard counts under a saturating trace, and
the governed-vs-ungoverned SLO comparison on the ``slo_surge`` scenario.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from typing import Mapping, Sequence

from repro.config import ClusterConfig
from repro.cluster.scenarios import ScenarioConfig
from repro.cluster.faults import build_fault_injector
from repro.cluster.governor import Autoscaler, GovernorAction, ScaleGovernor
from repro.cluster.procpool import ProcessReplica, ReplicaSupervisor
from repro.cluster.replica import ReplicaSpec
from repro.cluster.report import ClusterReport
from repro.cluster.router import Router
from repro.cluster.scenarios import WorkloadTrace, build_scenario
from repro.cluster.service_model import ServiceModel
from repro.cluster.simulation import ClusterSimulation
from repro.config import AdaScaleConfig, ServingConfig
from repro.observability.trace import active_tracer
from repro.serving.loadgen import round_robin_streams

__all__ = ["ClusterController", "fleet_capacity_fps", "run_scaling_suite", "run_slo_suite"]


def _build_governor(cluster: ClusterConfig, ladder: tuple[int, ...]) -> ScaleGovernor | None:
    if not cluster.governor.enabled:
        return None
    return ScaleGovernor(ladder=ladder, config=cluster.governor)


def _build_autoscaler(cluster: ClusterConfig) -> Autoscaler | None:
    if not cluster.autoscaler.enabled:
        return None
    return Autoscaler(config=cluster.autoscaler)


class ClusterController:
    """Runs trace-driven scenarios over a shard fleet and reports the outcome."""

    def __init__(
        self,
        cluster: ClusterConfig,
        serving: ServingConfig,
        adascale: AdaScaleConfig,
        model: ServiceModel | None = None,
        bundle=None,
        bundle_dir: str | None = None,
        seed: int = 0,
    ) -> None:
        cluster.validate()
        serving.validate()
        if cluster.mode == "simulate" and model is None:
            raise ValueError(
                "simulate mode needs a ServiceModel — calibrate one from a bundle "
                "or use analytic_service_model()"
            )
        if cluster.mode == "process" and bundle is None:
            raise ValueError("process mode needs a trained ExperimentBundle")
        self.cluster = cluster
        self.serving = serving
        self.adascale = adascale
        self.model = model
        self.bundle = bundle
        #: saved-bundle directory the spawned replicas load from (process
        #: mode); None = save ``bundle`` to a temporary directory per run
        self.bundle_dir = bundle_dir
        self.seed = seed
        self.ladder = tuple(int(s) for s in adascale.regressor_scales)

    # -- entry point -----------------------------------------------------------
    def run(
        self,
        scenario: ScenarioConfig | WorkloadTrace,
        time_scale: float = 0.25,
    ) -> ClusterReport:
        """Replay ``scenario`` (a config or a pre-built trace) to completion.

        ``time_scale`` paces the wall-clock replay of process mode (the
        simulation runs on virtual time and ignores it): 1.0 = real-time
        arrivals, smaller = compressed, 0 = as fast as admission allows (the
        governor then steers on wall-clock latency under burst conditions).
        """
        if isinstance(scenario, WorkloadTrace):
            trace, name = scenario, scenario.name
        else:
            trace, name = build_scenario(scenario), scenario.name
        if self.cluster.mode == "simulate":
            return self._run_simulated(trace, name)
        return self._run_process(trace, name, time_scale)

    # -- simulate --------------------------------------------------------------
    def _run_simulated(self, trace: WorkloadTrace, name: str) -> ClusterReport:
        simulation = ClusterSimulation(
            cluster=self.cluster,
            serving=self.serving,
            model=self.model,
            ladder=self.ladder,
            governor=_build_governor(self.cluster, self.ladder),
            autoscaler=_build_autoscaler(self.cluster),
            seed=self.seed,
        )
        simulation.run(trace)
        snapshots = {shard.shard_id: shard.metrics.snapshot() for shard in simulation.shards}
        caps = {shard.shard_id: shard.scale_cap for shard in simulation.shards}
        return ClusterReport.build(
            scenario=name,
            mode="simulate",
            snapshots=snapshots,
            scale_caps=caps,
            streams_opened=trace.num_streams - simulation.router.rejected_streams,
            streams_rejected=simulation.router.rejected_streams,
            frames_unrouted=simulation.router.rejected_frames,
            timeline=tuple(simulation.timeline),
        )

    # -- process -----------------------------------------------------------------
    def _run_process(
        self, trace: WorkloadTrace, name: str, time_scale: float
    ) -> ClusterReport:
        """Replay over real OS-process shards with supervision and faults.

        Each shard is a :class:`~repro.cluster.procpool.ProcessReplica` built
        from a pickled :class:`ReplicaSpec` pointing at a saved bundle.  The
        tick loop runs the :class:`~repro.cluster.procpool.ReplicaSupervisor`
        (crash → migrate → respawn), the configured fault injector, the
        governor and the autoscaler (shard add/drain).

        When a tracer is active, its config rides inside every spawned
        replica's spec: the children trace their own serving stacks and ship
        spans/metric deltas back over IPC, the proxies rebase them onto this
        process's clock, and one ``cluster/run`` envelope span brackets the
        whole run — so every rebased child timestamp must land inside it.
        """
        governor = _build_governor(self.cluster, self.ladder)
        autoscaler = _build_autoscaler(self.cluster)
        router = Router(self.cluster.router)
        bundle_dir = self.bundle_dir
        scratch_dir = None
        if bundle_dir is None:
            scratch_dir = tempfile.mkdtemp(prefix="repro-cluster-bundle-")
            self.bundle.save(scratch_dir)
            bundle_dir = scratch_dir
        run_tracer = active_tracer()
        run_start = time.monotonic()

        def spec_for(shard_id: int) -> ReplicaSpec:
            return ReplicaSpec.for_bundle_dir(
                shard_id, self.bundle.config, self.serving, bundle_dir,
                telemetry=run_tracer.config if run_tracer is not None else None,
            )

        timeline: list[GovernorAction] = []
        fleet: list[ProcessReplica] = [
            ProcessReplica(spec_for(shard_id), self.cluster.procpool)
            for shard_id in range(self.cluster.num_shards)
        ]
        supervisor = ReplicaSupervisor(
            fleet, router, self.cluster.procpool, on_action=timeline.append
        )
        injector = build_fault_injector(self.cluster.fault)
        next_shard_id = self.cluster.num_shards
        # Per-shard metrics must survive respawns: remember every shard's
        # first ServerMetrics so the final report sees the whole run.
        shard_metrics = {replica.shard_id: replica.metrics for replica in fleet}
        # Stream sources: validation snippets assigned round-robin by id; a
        # trace longer than a snippet wraps around (video loop replay).
        max_stream_id = max(
            (event.stream_id for event in trace if event.kind == "open"), default=-1
        )
        sources = round_robin_streams(self.bundle.val_dataset, max(max_stream_id + 1, 1))
        try:
            for replica in fleet:
                replica.start(wait_ready=False)
            startup_deadline = time.monotonic() + self.cluster.procpool.start_timeout_s
            for replica in fleet:
                replica.wait_ready(max(startup_deadline - time.monotonic(), 0.1))
            start = time.monotonic()
            interval_s = self.cluster.governor.interval_s
            next_tick = start + interval_s
            next_autoscale = start + self.cluster.autoscaler.interval_s

            def tick() -> None:
                """Supervision + fault + control-period governor/autoscaler."""
                nonlocal next_tick, next_autoscale, next_shard_id
                now = time.monotonic()
                rel = now - start
                supervisor.poll(rel)
                injector.maybe_fire(rel, fleet, supervisor)
                if governor is not None and now >= next_tick:
                    timeline.extend(governor.step(list(fleet), rel))
                    next_tick = now + interval_s
                if autoscaler is not None and now >= next_autoscale:
                    next_autoscale = now + self.cluster.autoscaler.interval_s
                    live = [replica for replica in fleet if replica.accepting]
                    desired = autoscaler.desired_shards(live, rel)
                    if desired > len(live):
                        replica = supervisor.spawn_shard(spec_for(next_shard_id), rel)
                        shard_metrics[replica.shard_id] = replica.metrics
                        next_shard_id += 1
                    elif desired < len(live) and live:
                        victim = max(live, key=lambda replica: replica.shard_id)
                        supervisor.drain_shard(victim, rel)

            for event in trace:
                if time_scale > 0:
                    target = start + event.time_s * time_scale
                    while True:
                        tick()
                        delay = target - time.monotonic()
                        if delay <= 0:
                            break
                        time.sleep(min(delay, interval_s))
                else:
                    tick()
                if event.kind == "open":
                    shard = router.assign(event.stream_id, fleet)
                    if shard is not None:
                        shard.open_stream(event.stream_id)
                elif event.kind == "frame":
                    shard = router.lookup(event.stream_id)
                    if shard is not None:
                        frames = sources[event.stream_id]
                        image = frames[event.frame_index % len(frames)].image
                        shard.submit(event.stream_id, image, event.frame_index)
                elif event.kind == "close":
                    shard = router.release(event.stream_id)
                    if shard is not None:
                        shard.close_stream(event.stream_id)
            # Supervised drain: keep ticking so a crash *during* the drain
            # still migrates and the backlog keeps moving.
            deadline = time.monotonic() + 600.0
            while time.monotonic() < deadline:
                tick()
                if all(replica.drain(timeout=0.05) for replica in list(fleet)):
                    break
        finally:
            for replica in list(fleet):
                replica.stop()
            if scratch_dir is not None:
                shutil.rmtree(scratch_dir, ignore_errors=True)
        if run_tracer is not None:
            # The run envelope: every child span, rebased, must land inside
            # this window — the cross-process clock alignment's acceptance
            # check, and Perfetto's outermost context for the fleet.
            run_tracer.span(
                "cluster/run",
                start_s=run_start,
                duration_s=time.monotonic() - run_start,
                shard_id=-1,
                scenario=name,
                mode="process",
                shards=self.cluster.num_shards,
            )
        snapshots = {
            shard_id: metrics.snapshot()
            for shard_id, metrics in sorted(shard_metrics.items())
        }
        caps = {replica.shard_id: replica.scale_cap for replica in fleet}
        return ClusterReport.build(
            scenario=name,
            mode="process",
            snapshots=snapshots,
            scale_caps=caps,
            streams_opened=trace.num_streams - router.rejected_streams,
            streams_rejected=router.rejected_streams,
            frames_unrouted=router.rejected_frames,
            timeline=tuple(sorted(timeline, key=lambda action: action.time_s)),
            streams_migrated=supervisor.migrated_streams,
            streams_stranded=supervisor.stranded_streams,
            crashes=supervisor.crashes,
            respawns=supervisor.respawns,
            span_drops=supervisor.span_drops
            + sum(replica.span_drops for replica in fleet),
        )


# -- canned experiments --------------------------------------------------------
def fleet_capacity_fps(
    model: ServiceModel,
    serving: ServingConfig,
    ladder: Sequence[int],
    shards: int = 1,
) -> float:
    """Optimistic service-capacity bound of ``shards`` replicas (frames/s).

    Assumes full micro-batches and the stationary scale mix of the simulated
    streams (uniform over the ladder — the reflecting random walk's long-run
    distribution).  Real throughput lands at or under this; the suites use it
    to size offered load relative to what the fleet can actually serve, so
    one experiment definition stays saturating (or calm) for *any* calibrated
    model — fast workstation or throttled CI runner alike.
    """
    batch = serving.max_batch_size
    per_frame_s = sum(
        model.batch_time_s(int(scale), batch) / batch for scale in ladder
    ) / len(ladder)
    return shards * serving.num_workers / per_frame_s


def run_scaling_suite(
    model: ServiceModel,
    serving: ServingConfig,
    adascale: AdaScaleConfig,
    shard_counts: Sequence[int] = (1, 2, 4),
    num_streams: int = 32,
    rate_fps: float | None = None,
    duration_s: float = 6.0,
    max_total_frames: int = 80_000,
    seed: int = 0,
) -> Mapping[int, ClusterReport]:
    """Throughput scaling across shard counts under one saturating trace.

    The trace deliberately offers far more load than any of the shard counts
    can serve at full quality; with the lossless ``block`` policy and the
    governor off, every configuration serves the *same* frame population and
    aggregate throughput measures pure service capacity — the near-linear
    scaling claim, isolated from admission effects.  When ``rate_fps`` is
    None the per-stream rate is derived from the calibrated model so offered
    load is ~2× even the *largest* fleet's capacity bound, whatever machine
    the calibration ran on; ``num_streams / shards`` stays large enough to
    fill ``num_workers × max_batch_size`` slots despite per-stream ordering.
    """
    if rate_fps is None:
        bound = fleet_capacity_fps(
            model, serving, adascale.regressor_scales, max(shard_counts)
        )
        rate_fps = 2.0 * bound / num_streams
    total = rate_fps * num_streams * duration_s
    if total > max_total_frames:
        duration_s = max_total_frames / (rate_fps * num_streams)
    scenario = ScenarioConfig(
        name="steady",
        duration_s=duration_s,
        num_streams=num_streams,
        rate_fps=rate_fps,
        seed=seed,
    )
    trace = build_scenario(scenario)
    reports: dict[int, ClusterReport] = {}
    for shards in shard_counts:
        cluster = ClusterConfig(
            num_shards=int(shards),
            mode="simulate",
            governor=ClusterConfig().governor.with_(enabled=False),
        )
        controller = ClusterController(
            cluster=cluster,
            serving=serving.with_(backpressure="block"),
            adascale=adascale,
            model=model,
            seed=seed,
        )
        reports[int(shards)] = controller.run(trace)
    return reports


def run_slo_suite(
    model: ServiceModel,
    serving: ServingConfig,
    adascale: AdaScaleConfig,
    target_p95_ms: float,
    num_shards: int = 2,
    scenario: ScenarioConfig | None = None,
) -> Mapping[str, ClusterReport]:
    """The governed-vs-ungoverned SLO comparison on the ``slo_surge`` scenario.

    Both legs replay the identical overload trace with the lossless ``block``
    policy (no frames can be shed — quality is the only degree of freedom).
    ``governed`` runs the ScaleGovernor against ``target_p95_ms``;
    ``ungoverned`` runs open-loop at full quality.  A working governor holds
    the aggregate p95 under target by walking scale caps down during the
    surge — visible in the report's timeline — while the ungoverned leg's
    tail blows out with the backlog.
    """
    if scenario is None:
        # Size the surge *between* the fleet's full-quality capacity and its
        # fully-degraded (min-scale) capacity: clearly over the former — the
        # ungoverned leg must drown — while the governed leg, once degraded,
        # has real drain margin.  Both bounds come from the same calibrated
        # model, so the sizing holds for any machine's calibration.
        ladder = adascale.regressor_scales
        full_capacity = fleet_capacity_fps(model, serving, ladder, num_shards)
        floor_capacity = fleet_capacity_fps(model, serving, (min(ladder),), num_shards)
        peak = full_capacity + 0.45 * (floor_capacity - full_capacity)
        num_streams = 16
        calm_rate = 0.35 * full_capacity / num_streams
        scenario = ScenarioConfig(
            name="slo_surge",
            duration_s=30.0,
            num_streams=num_streams,
            rate_fps=calm_rate,
            peak_multiplier=max(peak / (calm_rate * num_streams), 1.5),
        )
    trace = build_scenario(scenario)
    reports: dict[str, ClusterReport] = {}
    for leg, enabled in (("governed", True), ("ungoverned", False)):
        cluster = ClusterConfig(
            num_shards=num_shards,
            mode="simulate",
            governor=ClusterConfig().governor.with_(
                enabled=enabled, target_p95_ms=target_p95_ms
            ),
        )
        controller = ClusterController(
            cluster=cluster,
            serving=serving.with_(backpressure="block"),
            adascale=adascale,
            model=model,
            seed=scenario.seed,
        )
        reports[leg] = controller.run(trace)
    return reports
