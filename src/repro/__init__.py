"""AdaScale reproduction: adaptive-scale video object detection.

This package is a from-scratch, NumPy-only reproduction of

    Chin, Ding, Marculescu.
    "AdaScale: Towards Real-time Video Object Detection using Adaptive Scaling."
    SysML (MLSys) 2019.

It contains every substrate the paper depends on:

* :mod:`repro.nn` — a small neural-network framework (conv / pooling / linear
  layers with explicit forward *and* backward passes, SGD, LR schedules).
* :mod:`repro.data` — synthetic video-object-detection datasets standing in for
  ImageNet VID and mini YouTube-BoundingBoxes.
* :mod:`repro.detection` — a compact R-FCN-style two-stage detector (anchors,
  RPN, position-sensitive RoI pooling, detection losses, multi-scale training).
* :mod:`repro.core` — the paper's contribution: the optimal-scale metric, the
  scale regressor, scale-target coding, and the AdaScale video-inference loop.
* :mod:`repro.acceleration` — Deep Feature Flow and Seq-NMS baselines plus their
  AdaScale combinations (Fig. 7 of the paper).
* :mod:`repro.evaluation` — VOC-style mAP, precision-recall curves, TP/FP
  accounting and runtime/FLOP profiling with tail-latency percentiles.
* :mod:`repro.serving` — a concurrent multi-stream inference server: per-stream
  AdaScale sessions, scale-bucketed micro-batching with backpressure, a
  thread worker pool over detector replicas, latency telemetry and a
  deterministic load generator.
* :mod:`repro.api` — the stable declarative facade: component registries,
  ``{"type": name, **kwargs}`` builders, serializable layered configs
  (preset < file < override) and the :class:`~repro.api.Pipeline` /
  :class:`~repro.api.Server` entry points everything above is wired through.

Quickstart
----------
>>> from repro import api
>>> pipeline = api.Pipeline.from_config("tiny", seed=0)   # doctest: +SKIP
>>> report = pipeline.evaluate(["MS/AdaScale"])           # doctest: +SKIP
"""

from repro.config import (
    AdaScaleConfig,
    DatasetConfig,
    DetectorConfig,
    ExperimentConfig,
    RegressorConfig,
    ServingConfig,
    TrainingConfig,
)
from repro.nn.runtime import pin_blas_threads
from repro.version import __version__

# One executor, one core — for every entry point, spawned shard children too.
pin_blas_threads()

__all__ = [
    "__version__",
    "AdaScaleConfig",
    "DatasetConfig",
    "DetectorConfig",
    "ExperimentConfig",
    "RegressorConfig",
    "ServingConfig",
    "TrainingConfig",
]
