"""AdaScale video inference (Algorithm 1 of the paper).

Every video snippet starts at the maximum scale.  After detecting frame ``k``
the scale regressor — reading the backbone features that the detector already
computed — predicts the relative scale ``t``; the prediction is decoded
against the current frame's shortest side, rounded, clipped to
``[S_min, S_max]`` and used to resize frame ``k + 1``.  This leans on the
temporal-consistency assumption: the optimal scales of consecutive frames are
similar.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.config import AdaScaleConfig
from repro.core.regressor import ScaleRegressor
from repro.core.scale_coding import decode_scale
from repro.core.scale_set import ScaleSet
from repro.profiling import stage
from repro.utils.grouping import group_indices, stack_group
from repro.data.synthetic_vid import VideoFrame
from repro.detection.rfcn import DetectionResult, RFCNDetector
from repro.evaluation.voc_ap import DetectionRecord

__all__ = ["FrameOutput", "VideoDetectionResult", "AdaScaleDetector"]


@dataclass(frozen=True)
class FrameOutput:
    """Detection output of one frame plus the adaptive-scaling bookkeeping."""

    detection: DetectionResult
    scale_used: int
    next_scale: int
    regressed_target: float
    runtime_s: float


@dataclass
class VideoDetectionResult:
    """Per-frame outputs for one processed video snippet."""

    outputs: list[FrameOutput] = field(default_factory=list)
    snippet_id: int = -1

    def __len__(self) -> int:
        return len(self.outputs)

    @property
    def scales_used(self) -> list[int]:
        """Scale at which each frame was processed (the Fig. 9 trace)."""
        return [output.scale_used for output in self.outputs]

    @property
    def mean_scale(self) -> float:
        """Average processing scale over the snippet."""
        if not self.outputs:
            return float("nan")
        return float(np.mean(self.scales_used))

    @property
    def runtimes_s(self) -> list[float]:
        """Per-frame runtimes in seconds (detector + regressor)."""
        return [output.runtime_s for output in self.outputs]

    @property
    def mean_runtime_ms(self) -> float:
        """Mean per-frame runtime in milliseconds."""
        if not self.outputs:
            return float("nan")
        return 1000.0 * float(np.mean(self.runtimes_s))

    def to_records(self, frames: Sequence[VideoFrame]) -> list[DetectionRecord]:
        """Pair the outputs with ground truth for evaluation."""
        if len(frames) != len(self.outputs):
            raise ValueError(
                f"{len(frames)} frames but {len(self.outputs)} outputs — lengths must match"
            )
        records = []
        for frame, output in zip(frames, self.outputs):
            records.append(
                DetectionRecord(
                    boxes=output.detection.boxes,
                    scores=output.detection.scores,
                    class_ids=output.detection.class_ids,
                    gt_boxes=frame.boxes,
                    gt_labels=frame.labels,
                    frame_id=(frame.snippet_id, frame.frame_index),
                )
            )
        return records


class AdaScaleDetector:
    """Couples a detector with a scale regressor for adaptive video inference."""

    def __init__(
        self,
        detector: RFCNDetector,
        regressor: ScaleRegressor,
        config: AdaScaleConfig | None = None,
    ) -> None:
        self.detector = detector
        self.regressor = regressor
        self.config = config if config is not None else AdaScaleConfig()
        # Snap predictions to the discrete regressor scale set so concurrent
        # streams land in shared scheduler buckets (see AdaScaleConfig).
        self._quantize_to = (
            ScaleSet.from_sequence(self.config.regressor_scales)
            if self.config.quantize_predicted_scale
            else None
        )

    def predict_next_scale(
        self, detection: DetectionResult, image_shape: tuple[int, int]
    ) -> tuple[int, float, float]:
        """Predict the next frame's scale from an existing detection.

        This is the feedback half of Algorithm 1, split out so stream-oriented
        callers (``repro.serving.StreamSession``) can run it on detections that
        were produced elsewhere — e.g. by a serving worker or a DFF key frame.
        Returns ``(next_scale, regressed_target, seconds)``.
        """
        return self.predict_next_scales([detection], [image_shape])[0]

    def predict_next_scales(
        self,
        detections: Sequence[DetectionResult],
        image_shapes: Sequence[tuple[int, int]],
    ) -> list[tuple[int, float, float]]:
        """Batched feedback half of Algorithm 1.

        Feature maps of the same spatial shape are stacked and regressed in
        one batch-invariant forward, so the predicted scales are bit-identical
        to calling :meth:`predict_next_scale` per frame.  Returns one
        ``(next_scale, regressed_target, seconds)`` triple per detection,
        where ``seconds`` is the frame's amortised share of its batch.
        """
        if len(detections) != len(image_shapes):
            raise ValueError(
                f"{len(detections)} detections but {len(image_shapes)} image shapes"
            )
        targets = np.empty(len(detections), dtype=np.float32)
        shares = np.empty(len(detections), dtype=np.float64)
        with stage("adascale/regress"):
            for indices in group_indices(
                detections, key=lambda detection: detection.features.shape[1:]
            ):
                start = time.perf_counter()
                values = self.regressor.predict_batch(
                    stack_group([detections[i].features for i in indices])
                )
                share = (time.perf_counter() - start) / len(indices)
                for position, value in zip(indices, values):
                    targets[position] = value
                    shares[position] = share

        results: list[tuple[int, float, float]] = []
        for detection, image_shape, target, share in zip(
            detections, image_shapes, targets, shares
        ):
            # base_size: shortest side of the image as the detector saw it.
            base_size = float(min(image_shape[0], image_shape[1]) * detection.scale_factor)
            next_scale = decode_scale(
                float(target), base_size, self.config.min_scale, self.config.max_scale
            )
            if self._quantize_to is not None:
                next_scale = self._quantize_to.nearest(next_scale)
            results.append((int(next_scale), float(target), float(share)))
        return results

    def detect_frame(self, image: np.ndarray, scale: int) -> FrameOutput:
        """Detect one frame at ``scale`` and predict the scale for the next frame."""
        return self.detect_frames([image], [scale])[0]

    def detect_frames(
        self, images: Sequence[np.ndarray], scales: Sequence[int]
    ) -> list[FrameOutput]:
        """Batched detector phase of Algorithm 1 over independent frames.

        Frames are detected as scale-grouped stacked tensors and the scale
        regressor runs once per feature-shape group; results are bit-identical
        to calling :meth:`detect_frame` per frame.  The per-frame sequential
        feedback (frame ``k`` choosing frame ``k+1``'s scale) stays with the
        caller — this method only batches frames that are already independent,
        e.g. frames of *different* streams in the serving scheduler or frames
        of one video under a fixed-scale policy.
        """
        if len(images) != len(scales):
            raise ValueError(f"{len(images)} images but {len(scales)} scales")
        detections = self.detector.detect_batch(
            images,
            [int(scale) for scale in scales],
            max_long_side=self.config.max_long_side,
        )
        feedback = self.predict_next_scales(
            detections, [(image.shape[0], image.shape[1]) for image in images]
        )
        return [
            FrameOutput(
                detection=detection,
                scale_used=int(scale),
                next_scale=next_scale,
                regressed_target=target,
                runtime_s=detection.runtime_s + regressor_time,
            )
            for detection, scale, (next_scale, target, regressor_time) in zip(
                detections, scales, feedback
            )
        ]

    def process_video(
        self,
        frames: Iterable[VideoFrame] | Sequence[np.ndarray],
        initial_scale: int | None = None,
    ) -> VideoDetectionResult:
        """Algorithm 1: adaptively re-scale a whole snippet frame by frame."""
        scale = int(initial_scale) if initial_scale is not None else self.config.max_scale
        result = VideoDetectionResult()
        for frame in frames:
            image = frame.image if isinstance(frame, VideoFrame) else np.asarray(frame)
            if isinstance(frame, VideoFrame) and result.snippet_id < 0:
                result.snippet_id = frame.snippet_id
            output = self.detect_frame(image, scale)
            result.outputs.append(output)
            scale = output.next_scale
        return result

    def overhead_ms(self, image_height: int, image_width: int, reference_ms: float) -> float:
        """Estimated regressor overhead in milliseconds.

        Scales the detector's measured ``reference_ms`` (runtime of a full
        detection at the same input size) by the FLOP ratio between the
        regressor and the detector trunk — the paper reports roughly 3%.
        """
        feature_stride = self.detector.config.feature_stride
        feature_h = max(image_height // feature_stride, 1)
        feature_w = max(image_width // feature_stride, 1)
        regressor_flops = self.regressor.overhead_flops(feature_h, feature_w)
        detector_flops = self.detector.estimate_flops(image_height, image_width)
        if detector_flops <= 0:
            return 0.0
        return reference_ms * regressor_flops / detector_flops
