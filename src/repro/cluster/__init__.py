"""Sharded multi-replica serving with an SLO-aware adaptive control plane.

``repro.cluster`` is the layer above :mod:`repro.serving`: where the server
turns a trained bundle into *one* multi-stream service, the cluster turns N
of those shards into a deployment that survives planetary traffic shapes —
and closes the loop between observed latency and the quality the system
chooses, the co-design the paper's scale/speed trade-off enables:

The deployment itself is data: :class:`ClusterConfig` (router, governor,
autoscaler, process pool, fault) is the ``cluster`` section of
:class:`~repro.config.ExperimentConfig`, so presets, config files and
``--set cluster.…`` reach it.

* :mod:`~repro.cluster.router` — stream→shard placement (hash /
  least-loaded) with per-shard admission caps and front-door overload
  rejection;
* :mod:`~repro.cluster.governor` — the control plane: a
  :class:`ScaleGovernor` that holds each shard's rolling p95 under an SLO by
  stepping AdaScale scale caps (then batch bounds) down under pressure and
  back up with headroom, and an occupancy-targeted :class:`Autoscaler` that
  adds/drains shards;
* :mod:`~repro.cluster.scenarios` — the trace-driven workload catalog
  (steady, diurnal, flash_crowd, heavy_tail, slo_surge, recorded JSONL
  traces), every trace deterministic and replayable;
* :mod:`~repro.cluster.replica` — the pickled-config :class:`ReplicaSpec`
  spawn seam that builds one shard's :class:`~repro.serving.InferenceServer`;
* :mod:`~repro.cluster.procpool` / :mod:`~repro.cluster.ipc` /
  :mod:`~repro.cluster.faults` — the real-shard backend: one spawned OS
  process per shard behind the shard control surface, frames over a
  framed length-prefixed pipe protocol, with crash supervision,
  cross-shard stream migration and scheduled fault injection;
* :mod:`~repro.cluster.simulation` — the calibrated virtual-time engine that
  makes scaling and SLO experiments exact and machine-independent: each
  shard runs the real :class:`~repro.serving.scheduler.FrameScheduler` on
  the virtual clock, with measured service times in place of the detector;
* :mod:`~repro.cluster.service_model` — per-scale service costs measured on
  the real detector (:func:`calibrate_service_model`);
* :mod:`~repro.cluster.controller` / :mod:`~repro.cluster.report` — scenario
  replay over either backend, ending in one typed :class:`ClusterReport`.

The user-facing entry points are :class:`repro.api.Cluster` and the
``repro cluster`` CLI command.
"""

from repro.config import (
    AutoscalerConfig,
    ClusterConfig,
    FaultConfig,
    GovernorConfig,
    ProcessPoolConfig,
    RouterConfig,
)
from repro.cluster.faults import build_fault_injector, parse_fault_spec
from repro.cluster.controller import (
    ClusterController,
    fleet_capacity_fps,
    run_scaling_suite,
    run_slo_suite,
)
from repro.cluster.governor import Autoscaler, GovernorAction, ScaleGovernor
from repro.cluster.procpool import ProcessReplica, ReplicaSupervisor
from repro.cluster.replica import ReplicaSpec
from repro.cluster.report import ClusterReport, ShardReport
from repro.cluster.router import Router
from repro.cluster.scenarios import ScenarioConfig, TraceEvent, WorkloadTrace, build_scenario
from repro.cluster.service_model import (
    ServiceModel,
    analytic_service_model,
    calibrate_service_model,
)
from repro.cluster.simulation import ClusterSimulation, SimulatedShard

__all__ = [
    "Autoscaler",
    "AutoscalerConfig",
    "ClusterConfig",
    "ClusterController",
    "ClusterReport",
    "ClusterSimulation",
    "FaultConfig",
    "GovernorAction",
    "GovernorConfig",
    "ProcessPoolConfig",
    "ProcessReplica",
    "ReplicaSpec",
    "ReplicaSupervisor",
    "Router",
    "RouterConfig",
    "ScaleGovernor",
    "ScenarioConfig",
    "ServiceModel",
    "ShardReport",
    "SimulatedShard",
    "TraceEvent",
    "WorkloadTrace",
    "analytic_service_model",
    "build_fault_injector",
    "build_scenario",
    "calibrate_service_model",
    "parse_fault_spec",
    "fleet_capacity_fps",
    "run_scaling_suite",
    "run_slo_suite",
]
