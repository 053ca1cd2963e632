"""Configuration dataclasses of the ``repro.cluster`` subsystem.

Every class inherits :class:`~repro.config.SerializableConfig`, so cluster
deployments are *data*: they round-trip losslessly through dict / JSON / TOML
(the same :mod:`repro.configio` path experiment configs take), accept dotted
``--set``-style overrides, and can be committed next to the experiment config
that trains the bundle they serve.

The composition mirrors the subsystem layout:

* :class:`RouterConfig` — stream→shard placement policy and per-shard
  admission limits;
* :class:`GovernorConfig` — the SLO feedback loop (rolling-p95 target, step
  cadence, hysteresis) that trades AdaScale quality for latency headroom;
* :class:`AutoscalerConfig` — occupancy-targeted shard add/drain policy;
* :class:`ScenarioConfig` — one trace-driven workload (shape + intensity +
  seed), resolved by name through ``CLUSTER_SCENARIOS``;
* :class:`ClusterConfig` — the deployment: shard count, per-shard serving
  parameters come from the experiment's :class:`~repro.config.ServingConfig`,
  plus the three policies above.

``enabled`` flags replace optional sub-configs on purpose: TOML has no null,
and an omitted table must mean "defaults", never "feature off".
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.config import SerializableConfig

__all__ = [
    "AutoscalerConfig",
    "ClusterConfig",
    "FaultConfig",
    "GovernorConfig",
    "ProcessPoolConfig",
    "RouterConfig",
    "ScenarioConfig",
]


@dataclass(frozen=True)
class RouterConfig(SerializableConfig):
    """Stream placement and per-shard admission control."""

    #: placement policy, resolved through ``ROUTING_POLICIES``: "least-loaded"
    #: (fewest assigned streams, ties by shard id) or "hash" (stable
    #: stream-id hash, placement independent of arrival order)
    policy: str = "least-loaded"
    #: per-shard admission cap: a shard already serving this many streams is
    #: not a placement candidate; when every live shard is at the cap the
    #: stream itself is rejected (overload rejection at the front door)
    max_streams_per_shard: int = 64
    #: salt of the "hash" policy so deployments can re-shuffle placement
    hash_seed: int = 0

    def with_(self, **kwargs: object) -> "RouterConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    def validate(self) -> None:
        """Sanity checks; raises ``ValueError`` on inconsistency."""
        if self.max_streams_per_shard < 1:
            raise ValueError(
                f"max_streams_per_shard must be >= 1, got {self.max_streams_per_shard}"
            )
        from repro.registries import ROUTING_POLICIES

        if self.policy not in ROUTING_POLICIES:
            raise ValueError(
                f"unknown routing policy {self.policy!r}; "
                f"registered policies: {', '.join(ROUTING_POLICIES.names())}"
            )


@dataclass(frozen=True)
class GovernorConfig(SerializableConfig):
    """SLO feedback loop: degrade AdaScale quality instead of shedding frames.

    The governor watches each shard's *rolling* p95 end-to-end latency and
    queue depth.  Above target it steps the shard's scale cap one rung down
    the AdaScale ladder (and shrinks the micro-batch bound once the ladder is
    exhausted); once the rolling p95 has stayed under ``release_fraction``
    of the target for ``release_steps`` consecutive control periods it steps
    quality back up.  Asymmetric on purpose: degrade fast, restore cautiously.
    """

    #: policy name resolved through ``CLUSTER_GOVERNORS``
    kind: str = "slo-scale"
    enabled: bool = True
    #: the SLO: rolling p95 end-to-end latency each shard must stay under
    target_p95_ms: float = 250.0
    #: control period (seconds — virtual in simulation, wall-clock live)
    interval_s: float = 0.25
    #: rolling window (completions) the p95 is computed over
    window: int = 32
    #: completions a shard must have seen before the governor acts on it
    warmup_completions: int = 8
    #: queue depth that signals pressure even while the p95 still looks fine
    #: (the queue is the leading indicator; latency is the lagging one)
    queue_alarm_depth: int = 32
    #: restore quality only after p95 < release_fraction * target ...
    release_fraction: float = 0.6
    #: ... for this many consecutive control periods
    release_steps: int = 4
    #: lowest batch bound the governor may impose once out of scale rungs
    min_batch_size: int = 1

    def with_(self, **kwargs: object) -> "GovernorConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    def validate(self) -> None:
        """Sanity checks; raises ``ValueError`` on inconsistency."""
        if self.target_p95_ms <= 0:
            raise ValueError(f"target_p95_ms must be positive, got {self.target_p95_ms}")
        if self.interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {self.interval_s}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if not 0.0 < self.release_fraction <= 1.0:
            raise ValueError(
                f"release_fraction must be in (0, 1], got {self.release_fraction}"
            )
        if self.release_steps < 1:
            raise ValueError(f"release_steps must be >= 1, got {self.release_steps}")
        if self.min_batch_size < 1:
            raise ValueError(f"min_batch_size must be >= 1, got {self.min_batch_size}")


@dataclass(frozen=True)
class AutoscalerConfig(SerializableConfig):
    """Occupancy-targeted shard add/drain policy.

    Occupancy is offered work per unit of shard service capacity (1.0 = every
    worker busy, >1.0 = queue building).  One step per decision keeps the
    loop stable; the cooldown prevents add/drain flapping on load transients.
    """

    #: policy name resolved through ``CLUSTER_AUTOSCALERS``
    kind: str = "occupancy"
    enabled: bool = False
    #: mean shard occupancy the policy steers toward
    target_occupancy: float = 0.7
    #: add a shard when mean occupancy exceeds this
    scale_up_at: float = 0.95
    #: drain a shard when mean occupancy falls below this
    scale_down_at: float = 0.35
    min_shards: int = 1
    max_shards: int = 8
    #: control period (seconds)
    interval_s: float = 0.5
    #: minimum time between two scaling actions
    cooldown_s: float = 2.0

    def with_(self, **kwargs: object) -> "AutoscalerConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    def validate(self) -> None:
        """Sanity checks; raises ``ValueError`` on inconsistency."""
        if not 0 < self.target_occupancy:
            raise ValueError(
                f"target_occupancy must be positive, got {self.target_occupancy}"
            )
        if self.scale_down_at >= self.scale_up_at:
            raise ValueError(
                "scale_down_at must be below scale_up_at "
                f"({self.scale_down_at} >= {self.scale_up_at})"
            )
        if not 1 <= self.min_shards <= self.max_shards:
            raise ValueError(
                f"need 1 <= min_shards <= max_shards, got "
                f"[{self.min_shards}, {self.max_shards}]"
            )
        if self.interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {self.interval_s}")
        if self.cooldown_s < 0:
            raise ValueError(f"cooldown_s must be >= 0, got {self.cooldown_s}")


@dataclass(frozen=True)
class ScenarioConfig(SerializableConfig):
    """One trace-driven workload: shape, intensity, and seed.

    ``name`` selects a generator from ``CLUSTER_SCENARIOS`` (``diurnal``,
    ``flash_crowd``, ``heavy_tail``, ``slo_surge``, ``steady``, ``trace``);
    the remaining fields parameterise it.  Shape-specific fields are ignored
    by scenarios that do not use them, so one config class covers the whole
    catalog and stays trivially serializable.
    """

    name: str = "flash_crowd"
    #: trace horizon in (virtual) seconds; streams still open at the end close
    duration_s: float = 30.0
    #: baseline number of concurrent streams
    num_streams: int = 8
    #: per-stream mean arrival rate at baseline intensity
    rate_fps: float = 30.0
    seed: int = 0
    #: peak workload intensity as a multiple of baseline (diurnal peak height,
    #: flash-crowd crowd size, slo_surge overload factor)
    peak_multiplier: float = 4.0
    #: when the perturbation starts / how long it lasts, as trace fractions
    surge_start_frac: float = 0.35
    surge_duration_frac: float = 0.3
    #: Pareto tail index of heavy_tail session lengths (smaller = heavier)
    tail_alpha: float = 1.3
    #: JSONL file of a recorded trace (the ``trace`` scenario replays it)
    trace_path: str = ""

    def with_(self, **kwargs: object) -> "ScenarioConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    def validate(self) -> None:
        """Sanity checks; raises ``ValueError`` on inconsistency."""
        if self.duration_s <= 0:
            raise ValueError(f"duration_s must be positive, got {self.duration_s}")
        if self.num_streams < 1:
            raise ValueError(f"num_streams must be >= 1, got {self.num_streams}")
        if self.rate_fps <= 0:
            raise ValueError(f"rate_fps must be positive, got {self.rate_fps}")
        if self.peak_multiplier < 1.0:
            raise ValueError(
                f"peak_multiplier must be >= 1, got {self.peak_multiplier}"
            )
        if not 0.0 <= self.surge_start_frac < 1.0:
            raise ValueError(
                f"surge_start_frac must be in [0, 1), got {self.surge_start_frac}"
            )
        if not 0.0 < self.surge_duration_frac <= 1.0:
            raise ValueError(
                f"surge_duration_frac must be in (0, 1], got {self.surge_duration_frac}"
            )
        if self.tail_alpha <= 1.0:
            raise ValueError(
                f"tail_alpha must be > 1 (finite mean), got {self.tail_alpha}"
            )


@dataclass(frozen=True)
class ProcessPoolConfig(SerializableConfig):
    """Process-mode replica pool: spawn, IPC flow control, crash recovery.

    ``max_inflight_per_shard`` is the parent-side submission window — at most
    this many frames of one shard may be between ``submit`` and a terminal
    state before the router's replay loop blocks.  It is clamped to the
    shard's ``serving.queue_capacity`` at runtime so a child running the
    lossless ``block`` policy can never stall its own control loop on
    admission (the pipe would back up behind it and deadlock both sides).
    """

    #: parent-side cap on frames in flight to one shard (≤ queue_capacity)
    max_inflight_per_shard: int = 64
    #: cadence of the child's telemetry snapshots back to the parent proxy
    metrics_interval_s: float = 0.2
    #: first respawn delay after a crash; doubles per consecutive crash ...
    respawn_backoff_s: float = 0.25
    #: ... up to this bound (the "bounded backoff" of the supervisor)
    respawn_backoff_max_s: float = 2.0
    #: crashes after which a shard is abandoned instead of respawned
    max_respawns: int = 3
    #: how long to wait for a spawned child's Hello before declaring it dead
    start_timeout_s: float = 120.0

    def with_(self, **kwargs: object) -> "ProcessPoolConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    def validate(self) -> None:
        """Sanity checks; raises ``ValueError`` on inconsistency."""
        if self.max_inflight_per_shard < 1:
            raise ValueError(
                f"max_inflight_per_shard must be >= 1, got {self.max_inflight_per_shard}"
            )
        if self.metrics_interval_s <= 0:
            raise ValueError(
                f"metrics_interval_s must be positive, got {self.metrics_interval_s}"
            )
        if self.respawn_backoff_s <= 0:
            raise ValueError(
                f"respawn_backoff_s must be positive, got {self.respawn_backoff_s}"
            )
        if self.respawn_backoff_max_s < self.respawn_backoff_s:
            raise ValueError(
                "respawn_backoff_max_s must be >= respawn_backoff_s "
                f"({self.respawn_backoff_max_s} < {self.respawn_backoff_s})"
            )
        if self.max_respawns < 0:
            raise ValueError(f"max_respawns must be >= 0, got {self.max_respawns}")
        if self.start_timeout_s <= 0:
            raise ValueError(
                f"start_timeout_s must be positive, got {self.start_timeout_s}"
            )


@dataclass(frozen=True)
class FaultConfig(SerializableConfig):
    """One scheduled fault injection (resolved through ``FAULT_INJECTORS``).

    ``kind="none"`` disables injection; ``kind="kill-replica"`` SIGKILLs
    shard ``shard_id``'s worker process ``at_s`` wall-clock seconds into the
    run — the supervisor must then detect the crash, migrate the shard's live
    streams and respawn it within the backoff bound.
    """

    kind: str = "none"
    shard_id: int = 0
    #: wall-clock seconds after replay start (process mode runs in real time)
    at_s: float = 1.0

    def with_(self, **kwargs: object) -> "FaultConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    def validate(self) -> None:
        """Sanity checks; raises ``ValueError`` on inconsistency."""
        if self.shard_id < 0:
            raise ValueError(f"shard_id must be >= 0, got {self.shard_id}")
        if self.at_s < 0:
            raise ValueError(f"at_s must be >= 0, got {self.at_s}")
        from repro.registries import FAULT_INJECTORS, load_components

        load_components()
        if self.kind not in FAULT_INJECTORS:
            raise ValueError(
                f"unknown fault injector {self.kind!r}; "
                f"registered injectors: {', '.join(FAULT_INJECTORS.names())}"
            )


@dataclass(frozen=True)
class ClusterConfig(SerializableConfig):
    """A sharded deployment: replica count plus the control-plane policies."""

    num_shards: int = 2
    #: "simulate" — calibrated virtual-time engine (deterministic, used by the
    #: scenario suite and scaling benchmarks); "process" — real
    #: :class:`~repro.serving.InferenceServer` shards, one spawned OS process
    #: per shard, frames over framed pipes
    mode: str = "simulate"
    router: RouterConfig = field(default_factory=RouterConfig)
    governor: GovernorConfig = field(default_factory=GovernorConfig)
    autoscaler: AutoscalerConfig = field(default_factory=AutoscalerConfig)
    procpool: ProcessPoolConfig = field(default_factory=ProcessPoolConfig)
    fault: FaultConfig = field(default_factory=FaultConfig)

    def with_(self, **kwargs: object) -> "ClusterConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    def validate(self) -> None:
        """Sanity checks; raises ``ValueError`` on inconsistency."""
        if self.num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {self.num_shards}")
        if self.mode not in ("simulate", "process"):
            raise ValueError(f"mode must be 'simulate' or 'process', got {self.mode!r}")
        self.router.validate()
        self.governor.validate()
        self.autoscaler.validate()
        self.procpool.validate()
        self.fault.validate()
        if self.autoscaler.enabled and self.num_shards > self.autoscaler.max_shards:
            raise ValueError(
                f"num_shards {self.num_shards} exceeds autoscaler.max_shards "
                f"{self.autoscaler.max_shards}"
            )
        if self.fault.kind != "none" and self.mode != "process":
            raise ValueError(
                "fault injection targets spawned replica processes — it needs "
                f"mode='process', got mode={self.mode!r}"
            )
