"""R-FCN-style detector: backbone + RPN + position-sensitive head.

The detector exposes three levels of API:

* :meth:`RFCNDetector.extract_features` / :meth:`RFCNDetector.head_forward` —
  the differentiable building blocks used by the trainer and by AdaScale's
  regressor (which consumes the backbone's deep features, Sec. 3.2);
* :meth:`RFCNDetector.detect_batch` — batch-first inference: resize a list of
  frames to their target scales, stack same-shape frames into one NCHW
  tensor, run backbone + RPN + head once per stack, and fan per-image NMS
  back out.  :meth:`RFCNDetector.detect` is its batch-of-1 wrapper (the
  ``detector.detect`` call of Algorithm 1);
* :meth:`RFCNDetector.train_step` — one fully backpropagated training step on
  an already-resized image (used by :class:`~repro.detection.trainer.DetectorTrainer`).

Inference runs inside :func:`repro.nn.inference_mode`, which makes every
forward side-effect free (safe to share one detector across serving worker
threads) and batch-invariant (a frame detected inside a micro-batch is
bit-identical to the same frame detected alone).  In that mode the head's
class and box position-sensitive GEMMs write into one buffer that a single
PS-RoI pass pools and votes on, NMS stops at the boxes it keeps, and the
score threshold selects every class's candidates in one pass; the training
path (separate maps and pools, cached for backward) computes the same bytes.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.config import DetectorConfig, TrainingConfig
from repro.data.transforms import preprocess_frame
from repro.detection.boxes import clip_boxes_, decode_boxes, encode_boxes
from repro.detection.losses import DetectionLossResult, detection_loss
from repro.detection.matcher import match_boxes
from repro.detection.nms import batched_nms
from repro.detection.psroi import PSRoIPool, psroi_votes
from repro.detection.rpn import RPNHead, RPNOutput
from repro.nn.functional import softmax
from repro.nn.layers import Conv2d, Module, ReLU, Sequential, inference_mode, is_inference
from repro.profiling import stage
from repro.utils.grouping import group_indices, stack_group

__all__ = ["Detection", "DetectionResult", "RFCNDetector", "build_backbone"]


def build_backbone(
    channels: tuple[int, ...], rng: np.random.Generator
) -> tuple[Sequential, int]:
    """Build the convolutional backbone.

    Each stage is a stride-2 3x3 convolution followed by ReLU and a stride-1
    3x3 convolution + ReLU, so a backbone with three stages has a total stride
    of 8 — the ``feature_stride`` the anchors and PS-RoI pooling assume.
    Returns the backbone and its output channel count.
    """
    if not channels:
        raise ValueError("backbone needs at least one stage")
    layers: list[Module] = []
    in_channels = 3
    for stage, out_channels in enumerate(channels):
        layers.append(
            Conv2d(in_channels, out_channels, 3, stride=2, rng=rng, name=f"backbone.s{stage}.down")
        )
        layers.append(ReLU())
        layers.append(
            Conv2d(out_channels, out_channels, 3, stride=1, rng=rng, name=f"backbone.s{stage}.conv")
        )
        layers.append(ReLU())
        in_channels = out_channels
    return Sequential(*layers), in_channels


@dataclass(frozen=True)
class Detection:
    """A single detected object in original-image coordinates."""

    box: np.ndarray
    score: float
    class_id: int


@dataclass
class DetectionResult:
    """Full output of :meth:`RFCNDetector.detect` for one frame.

    Attributes
    ----------
    boxes:
        (N, 4) detections in *original* image coordinates.
    scores:
        (N,) confidence of the reported class.
    class_ids:
        (N,) 0-based dataset class ids.
    probs:
        (N, num_classes + 1) full class distributions (needed by the
        optimal-scale metric, Sec. 3.1).
    proposals:
        (P, 4) RPN proposals in resized-image coordinates.
    features:
        (1, C, H', W') backbone deep features at the scale the image was
        processed — the input of the AdaScale scale regressor.
    scale_factor:
        Factor mapping original coordinates to resized coordinates.
    target_scale:
        The shortest-side scale the image was resized to (None = native).
    image_size:
        (height, width) of the original image.
    runtime_s:
        Wall-clock seconds spent inside the detector for this frame.
    """

    boxes: np.ndarray
    scores: np.ndarray
    class_ids: np.ndarray
    probs: np.ndarray
    proposals: np.ndarray
    features: np.ndarray
    scale_factor: float
    target_scale: int | None
    image_size: tuple[int, int]
    runtime_s: float = 0.0

    def __len__(self) -> int:
        return int(self.boxes.shape[0])

    def top(self, count: int) -> "DetectionResult":
        """Return a copy keeping only the ``count`` highest-scoring detections."""
        order = np.argsort(-self.scores, kind="stable")[:count]
        return DetectionResult(
            boxes=self.boxes[order],
            scores=self.scores[order],
            class_ids=self.class_ids[order],
            probs=self.probs[order],
            proposals=self.proposals,
            features=self.features,
            scale_factor=self.scale_factor,
            target_scale=self.target_scale,
            image_size=self.image_size,
            runtime_s=self.runtime_s,
        )

    def as_detections(self) -> list[Detection]:
        """Convert to a list of :class:`Detection` records."""
        return [
            Detection(box=self.boxes[i].copy(), score=float(self.scores[i]), class_id=int(self.class_ids[i]))
            for i in range(len(self))
        ]


class RFCNDetector(Module):
    """Region-based fully convolutional detector (compact R-FCN)."""

    def __init__(self, config: DetectorConfig | None = None, seed: int = 0) -> None:
        super().__init__()
        self.config = config if config is not None else DetectorConfig()
        rng = np.random.default_rng(seed)
        self.backbone, self.feature_channels = build_backbone(
            self.config.backbone_channels, rng
        )
        self.rpn = RPNHead(self.feature_channels, self.config, rng)

        k = self.config.psroi_group_size
        num_cls_out = self.config.num_classes + 1
        # A light non-linear "neck" between the shared features and the
        # position-sensitive maps (R-FCN places a 1024-channel conv here; ours
        # is proportionally small but serves the same purpose).
        self.neck_conv = Conv2d(
            self.feature_channels, self.feature_channels, 3, rng=rng, name="head.neck"
        )
        self.neck_relu = ReLU()
        self.cls_ps_conv = Conv2d(
            self.feature_channels, k * k * num_cls_out, 1, rng=rng, name="head.cls_ps"
        )
        self.bbox_ps_conv = Conv2d(
            self.feature_channels, k * k * 4, 1, rng=rng, name="head.bbox_ps"
        )
        spatial_scale = 1.0 / self.config.feature_stride
        self.cls_pool = PSRoIPool(k, num_cls_out, spatial_scale)
        self.bbox_pool = PSRoIPool(k, 4, spatial_scale)
        self._head_cache: dict[str, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # differentiable building blocks
    # ------------------------------------------------------------------
    def extract_features(self, image_chw: np.ndarray) -> np.ndarray:
        """Backbone forward pass on an (N, 3, H, W) stack of normalised images."""
        with stage("detect/backbone"):
            return self.backbone(image_chw)

    def head_forward(
        self,
        features: np.ndarray,
        rois: np.ndarray,
        batch_indices: np.ndarray | None = None,
        cols: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Position-sensitive head: per-RoI class logits and box deltas.

        ``features`` may stack several images; ``batch_indices`` then selects,
        per RoI, the image it pools from (defaults to zeros for B == 1).
        ``cols`` may hand over ``self.neck_conv.unfold(features)`` at inference.
        """
        with stage("detect/head"):
            rois = np.asarray(rois, dtype=np.float32).reshape(-1, 4)
            neck = self.neck_relu(self.neck_conv(features, cols=cols))
            if is_inference():
                # Both position-sensitive GEMMs write their own channel range
                # of one buffer, which one PS-RoI pass pools and votes on.
                batch, _, height, width = neck.shape
                split = self.cls_pool.expected_channels
                channels = split + self.bbox_pool.expected_channels
                maps = np.empty((batch, channels, height, width), dtype=np.float32)
                self.cls_ps_conv(neck, out=maps[:, :split])
                self.bbox_ps_conv(neck, out=maps[:, split:])
                roi_logits, roi_deltas = psroi_votes(
                    (self.cls_pool, self.bbox_pool), maps, rois, batch_indices
                )
                return roi_logits, roi_deltas
            cls_maps = self.cls_ps_conv(neck)
            bbox_maps = self.bbox_ps_conv(neck)
            pooled_cls = self.cls_pool.forward(cls_maps, rois, batch_indices)
            pooled_bbox = self.bbox_pool.forward(bbox_maps, rois, batch_indices)
            # Voting: average over the k x k position-sensitive bins.
            roi_logits = pooled_cls.mean(axis=(2, 3))
            roi_deltas = pooled_bbox.mean(axis=(2, 3))
        self._head_cache = {
            "num_rois": np.asarray(rois.shape[0]),
            "pooled_shape_cls": np.asarray(pooled_cls.shape),
            "pooled_shape_bbox": np.asarray(pooled_bbox.shape),
        }
        return roi_logits, roi_deltas

    def head_backward(self, grad_logits: np.ndarray, grad_deltas: np.ndarray) -> np.ndarray:
        """Backpropagate head gradients; returns gradient w.r.t. the features."""
        if self._head_cache is None:
            raise RuntimeError("head_backward called before head_forward")
        k = self.config.psroi_group_size
        bins = float(k * k)
        cls_shape = tuple(int(v) for v in self._head_cache["pooled_shape_cls"])
        bbox_shape = tuple(int(v) for v in self._head_cache["pooled_shape_bbox"])
        grad_pooled_cls = np.broadcast_to(
            grad_logits[:, :, None, None] / bins, cls_shape
        ).astype(np.float32)
        grad_pooled_bbox = np.broadcast_to(
            grad_deltas[:, :, None, None] / bins, bbox_shape
        ).astype(np.float32)
        grad_cls_maps = self.cls_pool.backward(grad_pooled_cls)
        grad_bbox_maps = self.bbox_pool.backward(grad_pooled_bbox)
        grad_neck = self.cls_ps_conv.backward(grad_cls_maps)
        grad_neck = grad_neck + self.bbox_ps_conv.backward(grad_bbox_maps)
        return self.neck_conv.backward(self.neck_relu.backward(grad_neck))

    def clone(self) -> "RFCNDetector":
        """An independent replica with identical weights.

        Inference runs in :func:`repro.nn.inference_mode` and is thread-safe
        on a shared instance, so cloning is only needed when two callers must
        *train* (or otherwise cache activations) concurrently.  A replica
        built from the same weights produces bit-identical outputs.
        """
        return self.with_config(self.config)

    def with_config(self, config: DetectorConfig) -> "RFCNDetector":
        """A replica with identical weights but a different runtime config.

        Used to re-home trained weights under inference-time settings the
        architecture does not depend on (e.g. score or NMS thresholds).
        Architecture-defining fields must match or the weight shapes will not
        load.
        """
        replica = RFCNDetector(config, seed=0)
        replica.load_state_dict(self.state_dict())
        replica.train(self.training)
        return replica

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------
    def detect(
        self,
        image: np.ndarray,
        target_scale: int | None = None,
        max_long_side: int | None = None,
        score_threshold: float | None = None,
    ) -> DetectionResult:
        """Run detection on an (H, W, 3) float image in [0, 1].

        When ``target_scale`` is given the image is resized (shortest side =
        ``target_scale``, Fast R-CNN protocol) before the forward pass and the
        reported boxes are mapped back to the original coordinates.  This is a
        batch-of-1 wrapper around :meth:`detect_batch`.
        """
        return self.detect_batch(
            [image],
            [target_scale],
            max_long_side=max_long_side,
            score_threshold=score_threshold,
        )[0]

    def detect_batch(
        self,
        images: Sequence[np.ndarray],
        target_scales: Sequence[int | None] | int | None = None,
        max_long_side: int | None = None,
        score_threshold: float | None = None,
    ) -> list[DetectionResult]:
        """Run detection on a list of (H, W, 3) float images as micro-batches.

        Every image is resized to its target scale, frames whose resized
        tensors share a spatial shape are stacked into one NCHW tensor, and
        backbone + RPN + head each run once per stack; only the final per-image
        NMS fans back out.  ``target_scales`` may be a single scale applied to
        every image or one (possibly ``None``) scale per image; any integer type
        (Python or NumPy) is accepted and stored as a Python ``int``.

        Outputs are bit-identical to calling :meth:`detect` frame by frame —
        inference-mode kernels are batch-invariant — so batching is purely a
        throughput optimisation.
        """
        images = list(images)
        if target_scales is None or isinstance(target_scales, numbers.Integral):
            target_scales = [target_scales] * len(images)
        scales = [None if scale is None else int(scale) for scale in target_scales]
        if len(scales) != len(images):
            raise ValueError(f"{len(images)} images but {len(scales)} target scales")
        if not images:
            return []

        start = time.perf_counter()
        with inference_mode():
            tensors: list[np.ndarray] = []
            metas: list[tuple[tuple[int, int], float, tuple[int, int], int | None]] = []
            with stage("detect/preprocess"):
                for image, scale in zip(images, scales):
                    original_size = (int(image.shape[0]), int(image.shape[1]))
                    tensor, working_shape, scale_factor = preprocess_frame(
                        image, scale, max_long_side
                    )
                    tensors.append(tensor)
                    metas.append((working_shape, scale_factor, original_size, scale))

            # Stacking requires identical spatial dims; frames of one scale
            # bucket can still differ (different source aspect ratios), so
            # each distinct tensor shape becomes its own stack.
            results: list[DetectionResult | None] = [None] * len(images)
            for indices in group_indices(tensors, key=lambda tensor: tensor.shape):
                features = self.extract_features(
                    stack_group([tensors[i] for i in indices])
                )
                group = self.detect_from_features_batch(
                    features,
                    working_shapes=[metas[i][0] for i in indices],
                    scale_factors=[metas[i][1] for i in indices],
                    image_sizes=[metas[i][2] for i in indices],
                    target_scales=[metas[i][3] for i in indices],
                    score_threshold=score_threshold,
                )
                for position, result in zip(indices, group):
                    results[position] = result

        # Wall-clock cost is shared by the whole batch; report the amortised
        # per-frame figure so runtime accounting stays per-frame.
        per_frame_s = (time.perf_counter() - start) / len(images)
        for result in results:
            assert result is not None
            result.runtime_s = per_frame_s
        return [result for result in results if result is not None]

    def detect_from_features(
        self,
        features: np.ndarray,
        working_shape: tuple[int, int],
        scale_factor: float,
        image_size: tuple[int, int],
        target_scale: int | None = None,
        score_threshold: float | None = None,
    ) -> DetectionResult:
        """Run the RPN + head on precomputed backbone features of one image.

        This is the path Deep Feature Flow uses on non-key frames: the backbone
        is skipped and the head runs on features warped from the key frame.
        ``working_shape`` is the (height, width) of the resized image the
        features correspond to; reported boxes are divided by ``scale_factor``.
        """
        return self.detect_from_features_batch(
            features,
            working_shapes=[working_shape],
            scale_factors=[scale_factor],
            image_sizes=[image_size],
            target_scales=[target_scale],
            score_threshold=score_threshold,
        )[0]

    def detect_from_features_batch(
        self,
        features: np.ndarray,
        working_shapes: Sequence[tuple[int, int]],
        scale_factors: Sequence[float],
        image_sizes: Sequence[tuple[int, int]],
        target_scales: Sequence[int | None] | None = None,
        score_threshold: float | None = None,
    ) -> list[DetectionResult]:
        """RPN + position-sensitive head over a (B, C, H', W') feature stack.

        The RPN and head convolutions run once for the whole stack; RoIs from
        every image are pooled in one pass through a batch-index column; the
        score threshold + per-class NMS fan out per image at the very end.
        ``rpn.conv`` and ``neck_conv`` are both 3x3 / stride 1 / padding 1
        convs of ``features``, so one unfold is handed to both.
        """
        start = time.perf_counter()
        batch = int(features.shape[0])
        if not (len(working_shapes) == len(scale_factors) == len(image_sizes) == batch):
            raise ValueError("per-image metadata must match the feature batch size")
        if target_scales is None:
            target_scales = [None] * batch
        threshold = self.config.score_threshold if score_threshold is None else score_threshold

        with inference_mode():
            cols = self.rpn.conv.unfold(features)
            rpn_outs = self.rpn.forward_batch(features, cols)
            proposals_per_image = [
                proposals
                for proposals, _ in self.rpn.generate_proposals_batch(
                    rpn_outs, [tuple(shape) for shape in working_shapes]
                )
            ]

            counts = [int(p.shape[0]) for p in proposals_per_image]
            results: list[DetectionResult | None] = [None] * batch
            populated = [index for index in range(batch) if counts[index] > 0]
            if populated:
                rois = np.concatenate([proposals_per_image[i] for i in populated], axis=0)
                batch_indices = np.concatenate(
                    [np.full(counts[i], i, dtype=np.int64) for i in populated]
                )
                roi_logits, roi_deltas = self.head_forward(features, rois, batch_indices, cols)
                probs = softmax(roi_logits, axis=1)
                refined = decode_boxes(rois, roi_deltas)

                offset = 0
                for index in populated:
                    span = slice(offset, offset + counts[index])
                    offset += counts[index]
                    height, width = working_shapes[index]
                    results[index] = self._finalize_image(
                        probs=probs[span],
                        # refined is freshly decoded and locally owned, so the
                        # disjoint per-image spans may be clipped in place.
                        refined=clip_boxes_(refined[span], height, width),
                        proposals=proposals_per_image[index],
                        features=features[index : index + 1],
                        scale_factor=float(scale_factors[index]),
                        target_scale=target_scales[index],
                        image_size=image_sizes[index],
                        threshold=threshold,
                    )
            for index in range(batch):
                if results[index] is None:
                    results[index] = self._empty_result(
                        features[index : index + 1],
                        proposals_per_image[index],
                        float(scale_factors[index]),
                        target_scales[index],
                        image_sizes[index],
                    )

        per_frame_s = (time.perf_counter() - start) / batch
        for result in results:
            assert result is not None
            result.runtime_s = per_frame_s
        return [result for result in results if result is not None]

    def _finalize_image(
        self,
        probs: np.ndarray,
        refined: np.ndarray,
        proposals: np.ndarray,
        features: np.ndarray,
        scale_factor: float,
        target_scale: int | None,
        image_size: tuple[int, int],
        threshold: float,
    ) -> DetectionResult:
        """Score-threshold + per-class NMS fan-out for one image of a batch."""
        with stage("detect/nms"):
            return self._finalize_image_inner(
                probs, refined, proposals, features, scale_factor, target_scale, image_size, threshold
            )

    def _finalize_image_inner(
        self,
        probs: np.ndarray,
        refined: np.ndarray,
        proposals: np.ndarray,
        features: np.ndarray,
        scale_factor: float,
        target_scale: int | None,
        image_size: tuple[int, int],
        threshold: float,
    ) -> DetectionResult:
        # Class-major candidates (every RoI of class 1, then class 2, ...),
        # the order batched_nms breaks score ties in.
        class_index, roi_index = np.nonzero(probs[:, 1:].T >= threshold)
        if roi_index.size == 0:
            return self._empty_result(features, proposals, scale_factor, target_scale, image_size)

        all_boxes = refined[roi_index]
        all_scores = probs[roi_index, class_index + 1]
        all_classes = class_index.astype(np.int64, copy=False)
        all_probs = probs[roi_index]
        keep = batched_nms(
            all_boxes,
            all_scores,
            all_classes,
            self.config.nms_threshold,
            max_keep=self.config.max_detections,
        )

        return DetectionResult(
            boxes=(all_boxes[keep] / scale_factor).astype(np.float32),
            scores=all_scores[keep].astype(np.float32),
            class_ids=all_classes[keep],
            probs=all_probs[keep].astype(np.float32),
            proposals=proposals,
            features=features,
            scale_factor=scale_factor,
            target_scale=target_scale,
            image_size=image_size,
        )

    def _empty_result(
        self,
        features: np.ndarray,
        proposals: np.ndarray,
        scale_factor: float,
        target_scale: int | None,
        image_size: tuple[int, int],
    ) -> DetectionResult:
        num_cls = self.config.num_classes + 1
        return DetectionResult(
            boxes=np.zeros((0, 4), dtype=np.float32),
            scores=np.zeros((0,), dtype=np.float32),
            class_ids=np.zeros((0,), dtype=np.int64),
            probs=np.zeros((0, num_cls), dtype=np.float32),
            proposals=proposals,
            features=features,
            scale_factor=scale_factor,
            target_scale=target_scale,
            image_size=image_size,
        )

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def train_step(
        self,
        image: np.ndarray,
        gt_boxes: np.ndarray,
        gt_labels: np.ndarray,
        train_config: TrainingConfig,
        rng: np.random.Generator,
    ) -> dict[str, float]:
        """One fully backpropagated step on an already-resized image.

        Accumulates gradients into the detector's parameters (the caller owns
        the optimiser step).  Returns the individual loss values.
        """
        gt_boxes = np.asarray(gt_boxes, dtype=np.float32).reshape(-1, 4)
        gt_labels = np.asarray(gt_labels, dtype=np.int64).reshape(-1)
        height, width = image.shape[:2]
        tensor = preprocess_frame(image, None)[0]
        features = self.extract_features(tensor)
        rpn_out = self.rpn(features)

        rpn_loss = self._rpn_loss(rpn_out, gt_boxes, train_config, rng)
        proposals, _ = self.rpn.generate_proposals(rpn_out, height, width)
        rois, roi_labels, roi_targets = self._sample_rois(
            proposals, gt_boxes, gt_labels, train_config, rng
        )
        roi_logits, roi_deltas = self.head_forward(features, rois)
        head_loss = detection_loss(
            roi_logits,
            roi_labels,
            roi_deltas,
            roi_targets,
            reg_weight=self.config.bbox_loss_weight,
        )

        grad_features = self.head_backward(head_loss.grad_logits, head_loss.grad_deltas)
        grad_features = grad_features + self.rpn.backward(
            rpn_loss.grad_logits, rpn_loss.grad_deltas
        )
        self.backbone.backward(grad_features)

        return {
            "rpn_cls": rpn_loss.cls_loss,
            "rpn_reg": rpn_loss.reg_loss,
            "head_cls": head_loss.cls_loss,
            "head_reg": head_loss.reg_loss,
            "total": rpn_loss.total + head_loss.total,
            "num_fg_rois": float(head_loss.num_foreground),
        }

    def _rpn_loss(
        self,
        rpn_out: RPNOutput,
        gt_boxes: np.ndarray,
        train_config: TrainingConfig,
        rng: np.random.Generator,
    ) -> DetectionLossResult:
        """Sampled binary objectness + box-regression loss for the RPN."""
        anchors = rpn_out.anchors
        match = match_boxes(
            anchors,
            gt_boxes,
            fg_threshold=train_config.fg_iou_threshold,
            bg_threshold=0.3,
            force_match_best=gt_boxes.shape[0] > 0,
        )
        labels = match.labels.copy()
        sampled = _sample_labels(
            labels, train_config.rpn_batch_size, train_config.rpn_fg_fraction, rng
        )
        weights = np.zeros(anchors.shape[0], dtype=np.float32)
        weights[sampled] = 1.0

        targets = np.zeros_like(rpn_out.deltas)
        positive = np.where((labels == 1) & (weights > 0))[0]
        if positive.size and gt_boxes.shape[0]:
            targets[positive] = encode_boxes(anchors[positive], gt_boxes[match.gt_index[positive]])

        loss = detection_loss(
            rpn_out.objectness,
            np.clip(labels, 0, 1),
            rpn_out.deltas,
            targets,
            reg_weight=1.0,
            sample_weights=weights,
        )
        return loss

    def _sample_rois(
        self,
        proposals: np.ndarray,
        gt_boxes: np.ndarray,
        gt_labels: np.ndarray,
        train_config: TrainingConfig,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sample RoIs for head training (proposals + ground-truth boxes)."""
        if gt_boxes.shape[0]:
            candidates = np.concatenate([proposals, gt_boxes], axis=0)
        else:
            candidates = proposals
        if candidates.shape[0] == 0:
            return (
                np.zeros((0, 4), dtype=np.float32),
                np.zeros((0,), dtype=np.int64),
                np.zeros((0, 4), dtype=np.float32),
            )

        match = match_boxes(
            candidates,
            gt_boxes,
            fg_threshold=train_config.fg_iou_threshold,
            bg_threshold=train_config.bg_iou_threshold,
        )
        labels = match.labels.copy()
        sampled = _sample_labels(
            labels, train_config.roi_batch_size, train_config.roi_fg_fraction, rng
        )
        rois = candidates[sampled]
        roi_match_labels = labels[sampled]
        roi_gt_index = match.gt_index[sampled]

        roi_labels = np.zeros(rois.shape[0], dtype=np.int64)
        roi_targets = np.zeros((rois.shape[0], 4), dtype=np.float32)
        foreground = np.where(roi_match_labels == 1)[0]
        if foreground.size and gt_boxes.shape[0]:
            matched = roi_gt_index[foreground]
            roi_labels[foreground] = gt_labels[matched] + 1
            roi_targets[foreground] = encode_boxes(rois[foreground], gt_boxes[matched])
        return rois, roi_labels, roi_targets

    # ------------------------------------------------------------------
    # cost model
    # ------------------------------------------------------------------
    def estimate_flops(self, image_height: int, image_width: int) -> int:
        """Analytical multiply–accumulate count of the convolutional trunk.

        Covers the backbone, the RPN convs and the position-sensitive maps —
        the parts whose cost scales with the input resolution, which is what
        AdaScale trades against accuracy.
        """
        total = 0
        height, width = image_height, image_width
        for layer in self.backbone.layers:
            if isinstance(layer, Conv2d):
                total += layer.flops(height, width)
                height, width = layer.output_shape(height, width)
        for conv in (
            self.rpn.conv,
            self.rpn.cls_conv,
            self.rpn.reg_conv,
            self.neck_conv,
            self.cls_ps_conv,
            self.bbox_ps_conv,
        ):
            total += conv.flops(height, width)
        return total


def _sample_labels(
    labels: np.ndarray, batch_size: int, fg_fraction: float, rng: np.random.Generator
) -> np.ndarray:
    """Pick indices for a fixed-size batch with the requested foreground share."""
    positive = np.where(labels == 1)[0]
    negative = np.where(labels == 0)[0]
    num_fg = min(int(round(batch_size * fg_fraction)), positive.size)
    num_bg = min(batch_size - num_fg, negative.size)
    chosen_fg = (
        rng.choice(positive, size=num_fg, replace=False) if num_fg > 0 else np.zeros(0, dtype=np.int64)
    )
    chosen_bg = (
        rng.choice(negative, size=num_bg, replace=False) if num_bg > 0 else np.zeros(0, dtype=np.int64)
    )
    return np.concatenate([chosen_fg, chosen_bg]).astype(np.int64)
