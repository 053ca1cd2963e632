"""Region Proposal Network head.

A shared 3x3 convolution followed by two 1x1 convolutions that predict, for
each of the ``A`` anchors at every feature-map position, an objectness score
(2 logits) and a 4-dimensional box refinement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import DetectorConfig
from repro.detection.anchors import generate_anchors
from repro.detection.boxes import clip_boxes_, decode_boxes, valid_boxes
from repro.detection.nms import nms
from repro.nn.layers import Conv2d, Module, ReLU, is_inference
from repro.profiling import stage

__all__ = ["RPNHead", "RPNOutput", "foreground_scores"]


@dataclass
class RPNOutput:
    """Raw RPN predictions reshaped to per-anchor layout.

    ``objectness`` is (num_anchors, 2) logits (background, foreground);
    ``deltas`` is (num_anchors, 4); ``anchors`` is (num_anchors, 4) in image
    coordinates.
    """

    objectness: np.ndarray
    deltas: np.ndarray
    anchors: np.ndarray
    feature_shape: tuple[int, int]


class RPNHead(Module):
    """RPN head operating on the backbone's deep features."""

    def __init__(self, in_channels: int, config: DetectorConfig, rng: np.random.Generator) -> None:
        super().__init__()
        self.config = config
        self.num_anchors = len(config.anchor_sizes) * len(config.anchor_ratios)
        self.conv = Conv2d(in_channels, in_channels, 3, rng=rng, name="rpn.conv")
        self.relu = ReLU()
        self.cls_conv = Conv2d(
            in_channels, 2 * self.num_anchors, 1, rng=rng, name="rpn.cls"
        )
        self.reg_conv = Conv2d(
            in_channels, 4 * self.num_anchors, 1, rng=rng, name="rpn.reg"
        )
        self._feature_shape: tuple[int, int] | None = None
        self._hidden: np.ndarray | None = None

    # -- forward -----------------------------------------------------------
    def forward(self, features: np.ndarray) -> RPNOutput:
        """Compute per-anchor objectness and deltas for a (1, C, H, W) input."""
        if features.shape[0] != 1:
            raise ValueError(
                f"forward expects a single image, got batch {features.shape[0]}; "
                "use forward_batch for stacked inference inputs"
            )
        return self.forward_batch(features)[0]

    def forward_batch(
        self, features: np.ndarray, cols: np.ndarray | None = None
    ) -> list[RPNOutput]:
        """Per-anchor predictions for an (N, C, H, W) stack, one output per image.

        The three convolutions run once over the whole stack; the per-image
        outputs are bit-identical to running each image alone (the conv layers
        are batch-invariant in inference mode).  Anchors depend only on the
        shared feature shape, so every output aliases one anchor array.
        ``cols`` may hand over ``self.conv.unfold(features)`` at inference.
        """
        with stage("detect/rpn"):
            hidden = self.relu(self.conv(features, cols=cols))
            cls_map = self.cls_conv(hidden)
            reg_map = self.reg_conv(hidden)
            batch, _, height, width = cls_map.shape
            if not is_inference():
                self._hidden = hidden
                self._feature_shape = (height, width)

            objectness = self._map_to_anchor_layout(cls_map, 2)
            deltas = self._map_to_anchor_layout(reg_map, 4)
            anchors = generate_anchors(
                height,
                width,
                self.config.feature_stride,
                self.config.anchor_sizes,
                self.config.anchor_ratios,
            )
        return [
            RPNOutput(
                objectness=objectness[index],
                deltas=deltas[index],
                anchors=anchors,
                feature_shape=(height, width),
            )
            for index in range(batch)
        ]

    def backward(self, grad_objectness: np.ndarray, grad_deltas: np.ndarray) -> np.ndarray:
        """Backpropagate per-anchor gradients to the backbone features."""
        if self._feature_shape is None or self._hidden is None:
            raise RuntimeError("backward called before forward")
        height, width = self._feature_shape
        grad_cls_map = self._anchor_layout_to_map(grad_objectness, 2, height, width)
        grad_reg_map = self._anchor_layout_to_map(grad_deltas, 4, height, width)
        grad_hidden = self.cls_conv.backward(grad_cls_map) + self.reg_conv.backward(grad_reg_map)
        grad_hidden = self.relu.backward(grad_hidden)
        return self.conv.backward(grad_hidden)

    # -- layout helpers ------------------------------------------------------
    def _map_to_anchor_layout(self, feature_map: np.ndarray, channels_per_anchor: int) -> np.ndarray:
        """(N, A*c, H, W) → (N, H*W*A, c), anchors fastest within a position."""
        batch, _, height, width = feature_map.shape
        anchors = self.num_anchors
        reshaped = feature_map.reshape(batch, anchors, channels_per_anchor, height, width)
        reshaped = reshaped.transpose(0, 3, 4, 1, 2)
        return np.ascontiguousarray(reshaped.reshape(batch, -1, channels_per_anchor))

    def _anchor_layout_to_map(
        self, per_anchor: np.ndarray, channels_per_anchor: int, height: int, width: int
    ) -> np.ndarray:
        """Inverse of :meth:`_map_to_anchor_layout`."""
        anchors = self.num_anchors
        reshaped = per_anchor.reshape(height, width, anchors, channels_per_anchor)
        reshaped = reshaped.transpose(2, 3, 0, 1)
        return np.ascontiguousarray(
            reshaped.reshape(1, anchors * channels_per_anchor, height, width)
        )

    # -- proposal generation ---------------------------------------------------
    def generate_proposals(
        self,
        output: RPNOutput,
        image_height: int,
        image_width: int,
        pre_nms_top_n: int | None = None,
        post_nms_top_n: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Turn raw RPN predictions into scored region proposals.

        Returns ``(proposals, scores)`` where ``proposals`` is (P, 4) in image
        coordinates.  This is pure inference; no gradients flow through it
        (standard approximate joint training).
        """
        return self.generate_proposals_batch(
            [output], [(image_height, image_width)], pre_nms_top_n, post_nms_top_n
        )[0]

    def generate_proposals_batch(
        self,
        outputs: list[RPNOutput],
        image_shapes: list[tuple[int, int]],
        pre_nms_top_n: int | None = None,
        post_nms_top_n: int | None = None,
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Proposals for every image of a batch, one ``(boxes, scores)`` each.

        Images are independent, so their feature shapes may differ; each
        result is bit-identical to :meth:`generate_proposals` on that image.
        """
        config = self.config
        pre_nms = pre_nms_top_n if pre_nms_top_n is not None else config.rpn_pre_nms_top_n
        post_nms = post_nms_top_n if post_nms_top_n is not None else config.rpn_post_nms_top_n
        if len(outputs) != len(image_shapes):
            raise ValueError(f"{len(outputs)} RPN outputs but {len(image_shapes)} image shapes")
        with stage("detect/proposals"):
            return [
                self._proposals(output, height, width, pre_nms, post_nms)
                for output, (height, width) in zip(outputs, image_shapes)
            ]

    def _proposals(
        self, output: RPNOutput, height: int, width: int, pre_nms: int, post_nms: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Decode, clip and filter the best anchors, then greedy NMS.

        The result equals decoding, clipping and size-filtering *every*
        anchor and keeping the ``pre_nms`` best valid ones in stable score
        order (ties keep the lower anchor index).  Only the stable top
        ``take`` anchors are decoded, and ``take`` doubles until ``pre_nms``
        of them are valid or every anchor is taken: box validity does not
        depend on the score, so the valid anchors among the top ``take`` are
        exactly the first valid anchors of the full order.
        """
        scores = foreground_scores(output.objectness)
        ranking = -scores

        take = pre_nms
        while True:
            order = _stable_top_k(ranking, take)
            boxes = clip_boxes_(
                decode_boxes(output.anchors[order], output.deltas[order]), height, width
            )
            valid = valid_boxes(boxes, min_size=self.config.rpn_min_size)
            if take >= ranking.shape[0] or np.count_nonzero(valid) >= pre_nms:
                break
            take *= 2
        order, boxes = order[valid][:pre_nms], boxes[valid][:pre_nms]
        scores = scores[order]
        keep = nms(boxes, scores, self.config.rpn_nms_threshold, max_keep=post_nms)
        return boxes[keep], scores[keep]


def foreground_scores(logits: np.ndarray) -> np.ndarray:
    """``softmax(logits, axis=1)[:, 1]`` of (N, 2) logits, byte for byte.

    The same float32 operations on the two columns, without the keepdims
    reductions of a general softmax.
    """
    peak = np.maximum(logits[:, 0], logits[:, 1])
    background = np.exp(logits[:, 0] - peak)
    foreground = np.exp(logits[:, 1] - peak)
    return foreground / (background + foreground)


def _stable_top_k(keys: np.ndarray, k: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")[:k]`` without sorting past the k-th key.

    Every key strictly below the k-th smallest is in the result, and keys
    equal to it fill the rest lowest index first, so a stable sort of the
    candidates at or below the cut (taken in index order) is the full sort's
    prefix, ties included.
    """
    if k >= keys.shape[0]:
        return np.argsort(keys, kind="stable")
    cut = np.partition(keys, k - 1)[k - 1]
    if np.isnan(cut):  # NaNs sort last; the cut cannot separate them
        return np.argsort(keys, kind="stable")[:k]
    candidates = np.flatnonzero(keys <= cut)
    return candidates[np.argsort(keys[candidates], kind="stable")[:k]]
