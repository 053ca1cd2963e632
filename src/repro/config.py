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
from typing import Any, Mapping, Sequence

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

    def with_(self, **kwargs: object) -> "DatasetConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


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

    def with_(self, **kwargs: object) -> "DetectorConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


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

    def with_(self, **kwargs: object) -> "TrainingConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


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

    def with_(self, **kwargs: object) -> "RegressorConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


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

    def with_(self, **kwargs: object) -> "AdaScaleConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


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

    def with_(self, **kwargs: object) -> "ServingConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

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
    #: emit per-frame spans (queue wait, batch assembly, detector stages)
    spans: bool = True
    #: emit governor/autoscaler decision events
    decisions: bool = True
    #: capacity of the bounded in-memory ring buffer (oldest events drop)
    ring_capacity: int = 8192
    #: JSONL span-log path; "" keeps the sink off
    jsonl_path: str = ""

    def with_(self, **kwargs: object) -> "TelemetryConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    def validate(self) -> None:
        """Sanity checks; raises ``ValueError`` on inconsistency."""
        if not 0.0 <= self.sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], got {self.sample_rate}")
        if self.ring_capacity < 1:
            raise ValueError(f"ring_capacity must be >= 1, got {self.ring_capacity}")


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
    seed: int = 0

    def with_(self, **kwargs: object) -> "ExperimentConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

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
