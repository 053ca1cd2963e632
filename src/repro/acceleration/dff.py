"""Deep Feature Flow (Zhu et al., 2017b) on top of the R-FCN detector.

DFF runs the expensive backbone only on sparse *key frames*.  For every other
frame it estimates the motion between the key frame and the current frame,
warps the cached key-frame features accordingly, and runs only the light
detection head on the warped features.  The key-frame interval is the
speed/accuracy knob swept in Fig. 7 of the AdaScale paper.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.acceleration.optical_flow import estimate_flow, warp_features
from repro.config import AdaScaleConfig
from repro.data.synthetic_vid import VideoFrame
from repro.data.transforms import preprocess_frame, resize_image
from repro.detection.rfcn import DetectionResult, RFCNDetector
from repro.nn.layers import inference_mode
from repro.evaluation.voc_ap import DetectionRecord
from repro.registries import ACCELERATORS

__all__ = ["DFFFrameOutput", "DFFFramePlan", "DFFOutput", "DFFStream", "DFFDetector"]


@dataclass(frozen=True)
class DFFFrameOutput:
    """Output of one frame processed through a :class:`DFFStream`."""

    detection: DetectionResult
    is_key_frame: bool
    runtime_s: float
    scale_used: int


@dataclass(frozen=True)
class DFFFramePlan:
    """Read-only preparation of one DFF frame, produced by :meth:`DFFStream.plan_frame`.

    Splitting DFF into a *plan* phase (resize, flow estimation, feature
    warping — no stream-state mutation) and a *commit* phase (cache updates)
    lets the serving worker batch the detector work of many streams between
    the two phases: key-frame tensors stack through the backbone, warped
    non-key features stack through the detection head.

    ``tensor`` is the normalised (1, 3, h, w) backbone input (key frames
    only); ``warped_features`` are head-ready features (non-key frames only).
    """

    is_key_frame: bool
    scale: int
    image_size: tuple[int, int]
    working_shape: tuple[int, int]
    scale_factor: float
    tensor: np.ndarray | None = None
    resized_image: np.ndarray | None = None
    warped_features: np.ndarray | None = None


@dataclass
class DFFOutput:
    """Per-frame outputs of a DFF run over one snippet."""

    detections: list[DetectionResult] = field(default_factory=list)
    is_key_frame: list[bool] = field(default_factory=list)
    runtimes_s: list[float] = field(default_factory=list)
    scales_used: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.detections)

    @property
    def mean_runtime_ms(self) -> float:
        """Mean per-frame runtime in milliseconds."""
        if not self.runtimes_s:
            return float("nan")
        return 1000.0 * float(np.mean(self.runtimes_s))

    def to_records(self, frames: Sequence[VideoFrame]) -> list[DetectionRecord]:
        """Pair outputs with ground truth for evaluation."""
        if len(frames) != len(self.detections):
            raise ValueError("frames and detections must have equal length")
        return [
            DetectionRecord(
                boxes=det.boxes,
                scores=det.scores,
                class_ids=det.class_ids,
                gt_boxes=frame.boxes,
                gt_labels=frame.labels,
                frame_id=(frame.snippet_id, frame.frame_index),
            )
            for frame, det in zip(frames, self.detections)
        ]


class DFFStream:
    """Explicit per-stream DFF state: cached key frame, features and scale.

    The original :meth:`DFFDetector.process_video` kept the key-frame cache in
    local variables, so DFF could only be applied to a complete snippet at
    once.  A stream object owns that state explicitly — one per video stream —
    which lets the serving layer interleave frames of many streams without
    their key-frame caches bleeding into each other, and lets a stream be
    :meth:`reset` between snippets.

    Frame ``k`` is a key frame when ``k % key_frame_interval == 0`` (counted
    since the last reset).  The processing scale may only change at key
    frames; non-key frames reuse the key frame's scale so the cached features
    stay aligned.
    """

    def __init__(
        self,
        detector: RFCNDetector,
        key_frame_interval: int = 4,
        config: AdaScaleConfig | None = None,
        flow_cell_size: int = 8,
        flow_search_radius: int = 3,
    ) -> None:
        if key_frame_interval < 1:
            raise ValueError(f"key_frame_interval must be >= 1, got {key_frame_interval}")
        self.detector = detector
        self.key_frame_interval = key_frame_interval
        self.config = config if config is not None else AdaScaleConfig()
        self.flow_cell_size = flow_cell_size
        self.flow_search_radius = flow_search_radius
        self._key_image: np.ndarray | None = None
        self._key_features: np.ndarray | None = None
        self._key_scale: int = self.config.max_scale
        self._key_scale_factor: float = 1.0
        self._key_working_shape: tuple[int, int] = (0, 0)
        self._frame_count: int = 0

    @property
    def frame_count(self) -> int:
        """Frames processed since the last :meth:`reset`."""
        return self._frame_count

    @property
    def next_is_key_frame(self) -> bool:
        """Whether the next processed frame will run the full backbone."""
        return self._frame_count % self.key_frame_interval == 0

    @property
    def key_scale(self) -> int:
        """Scale of the current key frame (inherited by non-key frames)."""
        return self._key_scale

    def reset(self) -> None:
        """Clear the cached key frame; the next frame becomes a key frame."""
        self._key_image = None
        self._key_features = None
        self._key_scale = self.config.max_scale
        self._key_scale_factor = 1.0
        self._key_working_shape = (0, 0)
        self._frame_count = 0

    def plan_frame(
        self,
        image: np.ndarray | VideoFrame,
        scale: int | None = None,
        detector: RFCNDetector | None = None,
    ) -> DFFFramePlan:
        """Prepare the stream's next frame without mutating stream state.

        Key frames are resized and normalised into a backbone-ready tensor;
        non-key frames are resized, the key→current optical flow is estimated
        and the cached key features are warped into head-ready features.  The
        returned plan must be passed to :meth:`commit_frame` after the
        detector ran — only then does the stream advance.
        """
        detector = detector if detector is not None else self.detector
        array = image.image if isinstance(image, VideoFrame) else np.asarray(image)
        if self.next_is_key_frame:
            key_scale = int(scale) if scale is not None else self._key_scale
            # The resized HWC frame is kept for flow estimation against the
            # following non-key frames, so only the normalise half is fused.
            resized = resize_image(array, key_scale, self.config.max_long_side)
            tensor, working_shape, _ = preprocess_frame(resized.image, None)
            return DFFFramePlan(
                is_key_frame=True,
                scale=key_scale,
                image_size=array.shape[:2],
                working_shape=working_shape,
                scale_factor=resized.scale_factor,
                tensor=tensor,
                resized_image=resized.image,
            )
        if self._key_features is None or self._key_image is None:
            raise RuntimeError("non-key frame encountered before any key frame")
        resized = resize_image(array, self._key_scale, self.config.max_long_side)
        current = _match_shape(resized.image, self._key_image.shape[:2])
        flow = estimate_flow(
            self._key_image,
            current,
            cell_size=self.flow_cell_size,
            search_radius=self.flow_search_radius,
        )
        warped = warp_features(self._key_features, flow, detector.config.feature_stride)
        return DFFFramePlan(
            is_key_frame=False,
            scale=self._key_scale,
            image_size=array.shape[:2],
            working_shape=self._key_working_shape,
            scale_factor=self._key_scale_factor,
            warped_features=warped,
        )

    def commit_frame(
        self,
        plan: DFFFramePlan,
        detection: DetectionResult,
        features: np.ndarray | None = None,
        runtime_s: float = 0.0,
    ) -> DFFFrameOutput:
        """Fold one executed plan back into the stream state.

        ``features`` are the backbone features of the planned tensor (key
        frames only); they become the cache that non-key frames warp from.
        """
        if plan.is_key_frame:
            if features is None:
                raise ValueError("key-frame commit requires the backbone features")
            self._key_scale = plan.scale
            self._key_image = plan.resized_image
            # Copy: batched workers hand over a view into a whole stacked
            # micro-batch; caching the view would pin every batch-mate's
            # features in memory for the full key-frame interval.  (A plain
            # .copy() — a leading-axis slice is already contiguous, so
            # ascontiguousarray would return the view unchanged.)
            self._key_features = features.copy()
            self._key_scale_factor = plan.scale_factor
            self._key_working_shape = plan.working_shape
        self._frame_count += 1
        return DFFFrameOutput(
            detection=detection,
            is_key_frame=plan.is_key_frame,
            runtime_s=runtime_s,
            scale_used=plan.scale,
        )

    def process_frame(
        self, image: np.ndarray | VideoFrame, scale: int | None = None
    ) -> DFFFrameOutput:
        """Process the stream's next frame (plan + detect + commit in one call).

        ``scale`` is honoured only at key frames (non-key frames must reuse
        the key frame's scale).
        """
        detector = self.detector
        start = time.perf_counter()
        # inference_mode keeps the detector free of side effects (no layer
        # caches), so a shared detector stays safe even on this per-frame path.
        with inference_mode():
            plan = self.plan_frame(image, scale=scale)
            if plan.is_key_frame:
                features = detector.extract_features(plan.tensor)
            else:
                features = None
            detection = detector.detect_from_features(
                features if plan.is_key_frame else plan.warped_features,
                working_shape=plan.working_shape,
                scale_factor=plan.scale_factor,
                image_size=plan.image_size,
                target_scale=plan.scale,
            )
        runtime = time.perf_counter() - start
        return self.commit_frame(plan, detection, features=features, runtime_s=runtime)


@ACCELERATORS.register("dff")
class DFFDetector:
    """Key-frame detection with flow-warped features on intermediate frames."""

    def __init__(
        self,
        detector: RFCNDetector,
        key_frame_interval: int = 4,
        config: AdaScaleConfig | None = None,
        flow_cell_size: int = 8,
        flow_search_radius: int = 3,
    ) -> None:
        if key_frame_interval < 1:
            raise ValueError(f"key_frame_interval must be >= 1, got {key_frame_interval}")
        self.detector = detector
        self.key_frame_interval = key_frame_interval
        self.config = config if config is not None else AdaScaleConfig()
        self.flow_cell_size = flow_cell_size
        self.flow_search_radius = flow_search_radius

    def new_stream(self) -> DFFStream:
        """A fresh per-stream state object (one per concurrent video stream)."""
        return DFFStream(
            self.detector,
            self.key_frame_interval,
            self.config,
            self.flow_cell_size,
            self.flow_search_radius,
        )

    # -- single-snippet processing ------------------------------------------
    def process_video(
        self,
        frames: Sequence[VideoFrame] | Sequence[np.ndarray],
        scale: int | None = None,
        scale_schedule: Sequence[int] | None = None,
    ) -> DFFOutput:
        """Process one snippet with a fresh :class:`DFFStream`.

        ``scale`` fixes the processing scale for every frame; alternatively
        ``scale_schedule`` provides a per-key-frame scale (used by the
        AdaScale+DFF combination).  Non-key frames always reuse the key
        frame's scale so the cached features stay aligned.
        """
        if scale is None and scale_schedule is None:
            scale = self.config.max_scale
        stream = self.new_stream()
        output = DFFOutput()
        for index, frame in enumerate(frames):
            frame_scale: int | None
            if stream.next_is_key_frame:
                if scale_schedule is not None:
                    key_index = index // self.key_frame_interval
                    frame_scale = int(scale_schedule[min(key_index, len(scale_schedule) - 1)])
                else:
                    frame_scale = int(scale) if scale is not None else None
            else:
                frame_scale = None
            result = stream.process_frame(frame, scale=frame_scale)
            output.detections.append(result.detection)
            output.is_key_frame.append(result.is_key_frame)
            output.runtimes_s.append(result.runtime_s)
            output.scales_used.append(result.scale_used)
        return output


def _match_shape(image: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Crop/pad ``image`` so its spatial size equals ``shape`` (edge padding)."""
    height, width = shape
    out = image[:height, :width]
    pad_h = height - out.shape[0]
    pad_w = width - out.shape[1]
    if pad_h > 0 or pad_w > 0:
        out = np.pad(out, ((0, max(pad_h, 0)), (0, max(pad_w, 0)), (0, 0)), mode="edge")
    return out
