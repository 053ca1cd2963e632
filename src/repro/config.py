"""Configuration dataclasses for every subsystem of the reproduction.

The defaults encode the *reduced-resolution* setting described in DESIGN.md:
our synthetic frames have a shortest side of 128 pixels and the scale sets
``{128, 96, 72, 48}`` / ``{128, 96, 72, 48, 32}`` stand in for the paper's
``{600, 480, 360, 240}`` / ``{600, 480, 360, 240, 128}``.  The ratios between
the scales — which is what controls both the speed-up and the anchor-coverage
effects AdaScale exploits — match the paper's 600 → 128 range.

Every config is a frozen dataclass, so experiment presets can be shared safely
between tests, examples and the benchmark harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Mapping, Sequence, TypeVar

from repro import configio

__all__ = [
    "SerializableConfig",
    "DatasetConfig",
    "DetectorConfig",
    "TrainingConfig",
    "RegressorConfig",
    "AdaScaleConfig",
    "ServingConfig",
    "TelemetryConfig",
    "RouterConfig",
    "GovernorConfig",
    "AutoscalerConfig",
    "ProcessPoolConfig",
    "FaultConfig",
    "ClusterConfig",
    "ExperimentConfig",
    "PAPER_SCALES",
    "REDUCED_SCALES",
    "PAPER_REGRESSOR_SCALES",
    "REDUCED_REGRESSOR_SCALES",
    "BACKPRESSURE_POLICIES",
]

#: Admission-control policies of the serving frame scheduler.
BACKPRESSURE_POLICIES: tuple[str, ...] = ("block", "drop-oldest", "reject")

#: Scale sets used by the paper (pixels of the shortest image side).
PAPER_SCALES: tuple[int, ...] = (600, 480, 360, 240)
PAPER_REGRESSOR_SCALES: tuple[int, ...] = (600, 480, 360, 240, 128)

#: Reduced scale sets used by default in this reproduction (see DESIGN.md).
REDUCED_SCALES: tuple[int, ...] = (128, 96, 72, 48)
REDUCED_REGRESSOR_SCALES: tuple[int, ...] = (128, 96, 72, 48, 32)

_C = TypeVar("_C", bound="SerializableConfig")


class SerializableConfig:
    """Lossless dict/file serialization shared by every config dataclass.

    ``to_dict``/``from_dict`` round-trip exactly (strict on unknown keys,
    typed coercion of lists → tuples and ints → floats), ``save``/``load``
    speak ``.json`` and ``.toml`` files, and ``with_overrides`` applies
    dotted-path field overrides — the primitives the declarative API
    (:mod:`repro.api`, ``--config`` / ``--set`` on the CLI) is built from.
    """

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form with only JSON/TOML-serializable values."""
        return configio.config_to_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any] | "SerializableConfig") -> "SerializableConfig":
        """Rebuild from :meth:`to_dict` output; missing keys keep defaults."""
        return configio.config_from_dict(cls, data)

    def save(self, path: str | Path) -> Path:
        """Write this config to a ``.json`` or ``.toml`` file (by suffix)."""
        return configio.save_config_file(path, self.to_dict())

    @classmethod
    def load(cls, path: str | Path) -> "SerializableConfig":
        """Read a config saved by :meth:`save` (or written by hand)."""
        return configio.config_from_dict(cls, configio.load_config_file(path))

    def with_overrides(self, overrides: Mapping[str, Any]) -> "SerializableConfig":
        """Apply dotted-path overrides, e.g. ``{"serving.batch_wait_ms": "5"}``."""
        return configio.apply_overrides(self, overrides)

    def with_(self: _C, **kwargs: object) -> _C:
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class DatasetConfig(SerializableConfig):
    """Synthetic video dataset parameters (stands in for ImageNet VID / YT-BB)."""

    name: str = "synthetic-vid"
    num_classes: int = 8
    #: shortest side of the natively rendered frame
    base_scale: int = 128
    #: aspect ratio (longest / shortest side) of rendered frames
    aspect_ratio: float = 1.33
    num_train_snippets: int = 24
    num_val_snippets: int = 8
    frames_per_snippet: int = 8
    #: min / max object shortest-side as a fraction of the frame's shortest side
    min_object_frac: float = 0.12
    max_object_frac: float = 0.95
    max_objects_per_frame: int = 3
    #: amount of high-frequency background clutter in [0, 1]
    clutter: float = 0.5
    #: strength of simulated motion blur in [0, 1]
    motion_blur: float = 0.3
    seed: int = 0


@dataclass(frozen=True)
class DetectorConfig(SerializableConfig):
    """R-FCN-style detector architecture and inference parameters."""

    num_classes: int = 8
    #: channel widths of the backbone stages (each stage downsamples by 2)
    backbone_channels: tuple[int, ...] = (8, 16, 32)
    #: total stride of the backbone (product of per-stage strides)
    feature_stride: int = 8
    #: anchor box sizes in pixels (shortest-side of the *reduced* setting);
    #: analogue of R-FCN's {128, 256, 512} anchors at 600-pixel scale
    anchor_sizes: tuple[int, ...] = (16, 32, 64)
    anchor_ratios: tuple[float, ...] = (0.5, 1.0, 2.0)
    #: RPN proposal filtering
    rpn_pre_nms_top_n: int = 200
    rpn_post_nms_top_n: int = 40
    rpn_nms_threshold: float = 0.7
    rpn_min_size: float = 2.0
    #: position-sensitive grid (k x k); the paper / R-FCN use k = 7, we use 3
    psroi_group_size: int = 3
    #: final detection filtering — NMS threshold 0.3 follows the paper
    nms_threshold: float = 0.3
    score_threshold: float = 0.05
    max_detections: int = 50
    #: λ in Eq. (1) — weight of the bounding-box regression loss
    bbox_loss_weight: float = 1.0


@dataclass(frozen=True)
class TrainingConfig(SerializableConfig):
    """Detector fine-tuning hyper-parameters (Sec. 4.2 of the paper)."""

    #: multi-scale training set S_train; single-element tuple means SS training
    train_scales: tuple[int, ...] = REDUCED_SCALES
    #: maximum bound for the longer image side (paper: 2000 at 600-scale)
    max_long_side: int = 426
    #: "adam" (default; robust when training the compact detector from
    #: scratch) or "sgd" (the paper's fine-tuning recipe)
    optimizer: str = "adam"
    learning_rate: float = 2e-3
    momentum: float = 0.9
    weight_decay: float = 1e-4
    #: number of SGD iterations (images seen); the paper uses 4 epochs
    iterations: int = 400
    #: iterations after which the learning rate is divided by 10
    lr_decay_at: tuple[int, ...] = (260,)
    #: RPN / head sampling
    rpn_batch_size: int = 32
    rpn_fg_fraction: float = 0.5
    roi_batch_size: int = 32
    roi_fg_fraction: float = 0.5
    fg_iou_threshold: float = 0.5
    #: RoIs with IoU in [bg_iou_threshold, fg_iou_threshold) are ignored during
    #: head training; partially-overlapping boxes are too ambiguous for the
    #: compact head to treat as hard negatives
    bg_iou_threshold: float = 0.3
    seed: int = 0


@dataclass(frozen=True)
class RegressorConfig(SerializableConfig):
    """Scale-regressor architecture / training parameters (Sec. 3.2, Fig. 4)."""

    #: parallel conv kernel sizes; Table 3 ablates (1,), (1, 3), (1, 3, 5)
    kernel_sizes: tuple[int, ...] = (1, 3)
    #: channels produced by each conv stream
    stream_channels: int = 8
    #: "adam" (default) or "sgd"
    optimizer: str = "adam"
    learning_rate: float = 3e-3
    momentum: float = 0.9
    weight_decay: float = 1e-4
    iterations: int = 400
    lr_decay_at: tuple[int, ...] = (280,)
    seed: int = 0


@dataclass(frozen=True)
class AdaScaleConfig(SerializableConfig):
    """Scale sets used for optimal-scale labelling and deployment (Sec. 3)."""

    #: S — scales compared when computing the optimal-scale label (Eq. 2)
    scales: tuple[int, ...] = REDUCED_SCALES
    #: S_reg — scales the regressor's inputs are drawn from during training
    regressor_scales: tuple[int, ...] = REDUCED_REGRESSOR_SCALES
    #: maximum bound of the longer side after resizing
    max_long_side: int = 426
    #: number of top-loss foreground boxes is truncated to n_min (Sec. 3.1)
    use_foreground_truncation: bool = True
    #: snap the decoded next-frame scale to the nearest member of
    #: ``regressor_scales`` instead of keeping the raw rounded integer.
    #: Deployments serving many streams enable this so the scheduler's scale
    #: buckets actually coincide across streams (a continuous scale makes
    #: nearly every bucket a singleton and defeats micro-batching); the
    #: regressor only ever saw the discrete scales during training, so the
    #: accuracy impact is marginal.  Off by default to preserve the paper's
    #: continuous Algorithm-1 decoding.
    quantize_predicted_scale: bool = False

    @property
    def min_scale(self) -> int:
        """S_min used when clipping the decoded regressed scale (Alg. 1)."""
        return min(self.regressor_scales)

    @property
    def max_scale(self) -> int:
        """S_max used when clipping the decoded regressed scale (Alg. 1)."""
        return max(self.regressor_scales)


@dataclass(frozen=True)
class ServingConfig(SerializableConfig):
    """Concurrent inference-server parameters (``repro.serving``).

    The server turns a trained bundle into a multi-stream video service:
    frames arrive per stream, a bounded scheduler groups same-scale frames
    into micro-batches, and a thread pool executes each micro-batch as one
    stacked tensor through a shared detector.  That is the only execution
    path: ``max_batch_size=1`` is the per-frame case, and any worker count or
    batch size serves each stream bit-identical to offline Algorithm 1.
    """

    #: worker threads sharing one detector/regressor (inference-mode forwards
    #: are side-effect free, so no per-worker replicas are needed)
    num_workers: int = 2
    #: maximum frames per scale-bucketed micro-batch
    max_batch_size: int = 4
    #: bound of the scheduler's request queue (admitted, not yet completed)
    queue_capacity: int = 64
    #: what happens when the queue is full: "block" the submitter,
    #: "drop-oldest" (shed the oldest queued frame), or "reject" the new one
    backpressure: str = "block"
    #: per-frame latency deadline; queued frames older than this are shed at
    #: dispatch time (None disables deadline shedding)
    deadline_ms: float | None = None
    #: how long an idle worker waits for more same-scale frames before
    #: dispatching a partial batch
    batch_wait_ms: float = 2.0
    #: apply Seq-NMS rescoring to each stream's history at finalize time
    use_seqnms: bool = False
    #: Deep-Feature-Flow key-frame interval; 1 = full detection on every frame
    key_frame_interval: int = 1
    #: scale of each stream's first frame (None = AdaScale's S_max)
    initial_scale: int | None = None

    def validate(self) -> None:
        """Sanity checks; raises ``ValueError`` on inconsistency."""
        if self.num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {self.num_workers}")
        if self.max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {self.max_batch_size}")
        if self.queue_capacity < 1:
            raise ValueError(f"queue_capacity must be >= 1, got {self.queue_capacity}")
        # Built-in policies plus anything downstream code registered, so
        # declarative configs can select custom policies too.
        from repro.registries import SCHEDULER_POLICIES

        valid_policies = set(BACKPRESSURE_POLICIES) | set(SCHEDULER_POLICIES.names())
        if self.backpressure not in valid_policies:
            raise ValueError(
                f"backpressure must be one of {tuple(sorted(valid_policies))}, "
                f"got {self.backpressure!r}"
            )
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError(f"deadline_ms must be positive, got {self.deadline_ms}")
        if self.batch_wait_ms < 0:
            raise ValueError(f"batch_wait_ms must be >= 0, got {self.batch_wait_ms}")
        if self.key_frame_interval < 1:
            raise ValueError(
                f"key_frame_interval must be >= 1, got {self.key_frame_interval}"
            )


@dataclass(frozen=True)
class TelemetryConfig(SerializableConfig):
    """Tracing/metrics-export parameters (``repro.observability``).

    When ``enabled`` is false the tracer is never activated and every
    instrumentation site reduces to a null check — the same no-op discipline
    as :func:`repro.profiling.stage`.  ``jsonl_path = ""`` disables the JSONL
    span sink (the empty string stands in for "off" on purpose: TOML has no
    null, mirroring the cluster config's enabled-flag rule).
    """

    #: master switch; a disabled config never activates a tracer
    enabled: bool = False
    #: fraction of frame traces kept, in [0, 1]; sampling is deterministic in
    #: the admission order, so the same run traces the same frames
    sample_rate: float = 1.0
    #: capacity of the bounded in-memory ring buffer (oldest events drop)
    ring_capacity: int = 8192
    #: JSONL span-log path; "" keeps the sink off
    jsonl_path: str = ""

    def validate(self) -> None:
        """Sanity checks; raises ``ValueError`` on inconsistency."""
        if not 0.0 <= self.sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], got {self.sample_rate}")
        if self.ring_capacity < 1:
            raise ValueError(f"ring_capacity must be >= 1, got {self.ring_capacity}")


# -- the deployment half: a sharded cluster (``repro.cluster``) -------------
# ``enabled`` flags replace optional sub-configs on purpose: TOML has no null,
# and an omitted table must mean "defaults", never "feature off".


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

    def validate(self) -> None:
        """Sanity checks; raises ``ValueError`` on inconsistency."""
        if self.max_streams_per_shard < 1:
            raise ValueError(
                f"max_streams_per_shard must be >= 1, got {self.max_streams_per_shard}"
            )
        from repro.registries import ROUTING_POLICIES, load_components

        load_components()
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
    """A sharded deployment: replica count plus the control-plane policies.

    The ``cluster`` section of :class:`ExperimentConfig`; each shard serves
    with the experiment's :class:`ServingConfig`.
    """

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


@dataclass(frozen=True)
class ExperimentConfig(SerializableConfig):
    """Top-level experiment composition used by the pipeline and benchmarks."""

    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    regressor: RegressorConfig = field(default_factory=RegressorConfig)
    adascale: AdaScaleConfig = field(default_factory=AdaScaleConfig)
    serving: ServingConfig = field(default_factory=ServingConfig)
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    seed: int = 0

    def validate(self) -> None:
        """Cross-field sanity checks; raises ``ValueError`` on inconsistency."""
        if self.detector.num_classes != self.dataset.num_classes:
            raise ValueError(
                "detector.num_classes must match dataset.num_classes "
                f"({self.detector.num_classes} != {self.dataset.num_classes})"
            )
        if not set(self.adascale.scales) <= set(self.adascale.regressor_scales):
            raise ValueError("adascale.scales must be a subset of regressor_scales")
        if max(self.training.train_scales) > self.adascale.max_scale:
            raise ValueError("train_scales exceed the AdaScale maximum scale")
        _require_descending(self.adascale.scales, "adascale.scales")
        _require_descending(self.adascale.regressor_scales, "adascale.regressor_scales")
        self.serving.validate()
        self.telemetry.validate()
        self.cluster.validate()
        if self.serving.initial_scale is not None and not (
            self.adascale.min_scale <= self.serving.initial_scale <= self.adascale.max_scale
        ):
            raise ValueError(
                "serving.initial_scale must lie within the AdaScale scale range "
                f"[{self.adascale.min_scale}, {self.adascale.max_scale}]"
            )


def _require_descending(values: Sequence[int], name: str) -> None:
    ordered = tuple(sorted(values, reverse=True))
    if tuple(values) != ordered:
        raise ValueError(f"{name} must be listed from largest to smallest, got {values}")
