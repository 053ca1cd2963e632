"""Tests for PSRoI pooling, the RPN head, detection losses and the R-FCN detector."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import DetectorConfig, TrainingConfig
from repro.detection import RFCNDetector, detection_loss
from repro.detection.losses import per_detection_losses
from repro.detection.psroi import PSRoIPool
from repro.detection.rfcn import build_backbone
from repro.detection.rpn import RPNHead


@pytest.fixture(scope="module")
def detector_config() -> DetectorConfig:
    return DetectorConfig(
        num_classes=3,
        backbone_channels=(4, 8, 16),
        anchor_sizes=(12, 24, 48),
        rpn_pre_nms_top_n=60,
        rpn_post_nms_top_n=12,
        max_detections=10,
    )


@pytest.fixture(scope="module")
def detector(detector_config) -> RFCNDetector:
    return RFCNDetector(detector_config, seed=0)


def naive_psroi(maps: np.ndarray, rois: np.ndarray, k: int, dim: int, scale: float) -> np.ndarray:
    """Reference loop implementation of PS-RoI average pooling."""
    num_rois = rois.shape[0]
    height, width = maps.shape[2:]
    out = np.zeros((num_rois, dim, k, k), dtype=np.float32)
    for roi_index, roi in enumerate(rois):
        x1, y1, x2, y2 = roi * scale
        roi_w, roi_h = max(x2 - x1, 1.0), max(y2 - y1, 1.0)
        bin_w, bin_h = roi_w / k, roi_h / k
        for i in range(k):
            for j in range(k):
                ys = int(np.clip(np.floor(y1 + i * bin_h), 0, height))
                ye = int(np.clip(np.ceil(y1 + (i + 1) * bin_h), 0, height))
                xs = int(np.clip(np.floor(x1 + j * bin_w), 0, width))
                xe = int(np.clip(np.ceil(x1 + (j + 1) * bin_w), 0, width))
                if ye <= ys or xe <= xs:
                    continue
                channel = (i * k + j) * dim
                out[roi_index, :, i, j] = maps[0, channel : channel + dim, ys:ye, xs:xe].mean(
                    axis=(1, 2)
                )
    return out


class TestPSRoIPool:
    def test_matches_naive_reference(self, rng):
        k, dim = 3, 5
        maps = rng.normal(size=(1, k * k * dim, 12, 16)).astype(np.float32)
        rois = np.array(
            [[0, 0, 40, 40], [10, 20, 90, 80], [50, 5, 120, 60], [0, 0, 127, 95]], dtype=np.float32
        )
        pool = PSRoIPool(k, dim, 1.0 / 8.0)
        out = pool.forward(maps, rois)
        ref = naive_psroi(maps, rois, k, dim, 1.0 / 8.0)
        np.testing.assert_allclose(out, ref, rtol=1e-4, atol=1e-5)

    def test_gradient_matches_numeric(self, rng):
        k, dim = 2, 3
        maps = rng.normal(size=(1, k * k * dim, 6, 8)).astype(np.float32)
        rois = np.array([[0, 0, 30, 30], [10, 10, 60, 40]], dtype=np.float32)
        pool = PSRoIPool(k, dim, 1.0 / 8.0)
        out = pool.forward(maps, rois)
        grad_out = rng.normal(size=out.shape).astype(np.float32)
        grad_maps = pool.backward(grad_out)
        eps = 1e-2
        for index in [(0, 0, 2, 3), (0, 5, 1, 1), (0, 11, 4, 6)]:
            shifted = maps.copy()
            shifted[index] += eps
            numeric = float(((pool.forward(shifted, rois) - out) * grad_out).sum() / eps)
            assert grad_maps[index] == pytest.approx(numeric, rel=5e-2, abs=1e-3)

    def test_empty_roi_list(self, rng):
        pool = PSRoIPool(3, 4, 0.125)
        maps = rng.normal(size=(1, 36, 6, 6)).astype(np.float32)
        out = pool.forward(maps, np.zeros((0, 4), dtype=np.float32))
        assert out.shape == (0, 4, 3, 3)
        grad = pool.backward(np.zeros((0, 4, 3, 3), dtype=np.float32))
        assert grad.shape == maps.shape

    def test_roi_outside_map_gives_zeros(self, rng):
        pool = PSRoIPool(2, 2, 0.125)
        maps = rng.normal(size=(1, 8, 4, 4)).astype(np.float32)
        out = pool.forward(maps, np.array([[200, 200, 240, 240]], dtype=np.float32))
        np.testing.assert_array_equal(out, np.zeros_like(out))

    def test_channel_mismatch_raises(self, rng):
        pool = PSRoIPool(3, 4, 0.125)
        with pytest.raises(ValueError):
            pool.forward(rng.normal(size=(1, 10, 4, 4)).astype(np.float32), np.zeros((1, 4)))

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            PSRoIPool(0, 4, 0.125)
        with pytest.raises(ValueError):
            PSRoIPool(3, 0, 0.125)
        with pytest.raises(ValueError):
            PSRoIPool(3, 4, 0.0)

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            PSRoIPool(2, 2, 0.5).backward(np.zeros((1, 2, 2, 2)))


class TestBackbone:
    def test_total_stride_is_eight(self, rng):
        backbone, channels = build_backbone((4, 8, 16), rng)
        out = backbone(rng.normal(size=(1, 3, 64, 80)).astype(np.float32))
        assert out.shape == (1, 16, 8, 10)
        assert channels == 16

    def test_empty_channels_rejected(self, rng):
        with pytest.raises(ValueError):
            build_backbone((), rng)


class TestRPNHead:
    def test_output_shapes(self, detector_config, rng):
        head = RPNHead(16, detector_config, rng)
        features = rng.normal(size=(1, 16, 8, 10)).astype(np.float32)
        out = head(features)
        num_anchors = 8 * 10 * 9
        assert out.objectness.shape == (num_anchors, 2)
        assert out.deltas.shape == (num_anchors, 4)
        assert out.anchors.shape == (num_anchors, 4)

    def test_layout_roundtrip(self, detector_config, rng):
        head = RPNHead(16, detector_config, rng)
        per_anchor = rng.normal(size=(6 * 7 * head.num_anchors, 2)).astype(np.float32)
        as_map = head._anchor_layout_to_map(per_anchor, 2, 6, 7)
        back = head._map_to_anchor_layout(as_map, 2)
        assert back.shape == (1, per_anchor.shape[0], 2)
        np.testing.assert_allclose(back[0], per_anchor)

    def test_layout_batched_matches_per_image(self, detector_config, rng):
        head = RPNHead(16, detector_config, rng)
        maps = rng.normal(size=(3, 2 * head.num_anchors, 6, 7)).astype(np.float32)
        batched = head._map_to_anchor_layout(maps, 2)
        for index in range(3):
            single = head._map_to_anchor_layout(maps[index : index + 1], 2)
            np.testing.assert_array_equal(batched[index], single[0])

    def test_backward_returns_feature_gradient(self, detector_config, rng):
        head = RPNHead(16, detector_config, rng)
        features = rng.normal(size=(1, 16, 6, 6)).astype(np.float32)
        out = head(features)
        grad = head.backward(np.ones_like(out.objectness), np.ones_like(out.deltas))
        assert grad.shape == features.shape
        assert np.isfinite(grad).all()

    def test_generate_proposals_within_image(self, detector_config, rng):
        head = RPNHead(16, detector_config, rng)
        features = rng.normal(size=(1, 16, 8, 10)).astype(np.float32)
        out = head(features)
        proposals, scores = head.generate_proposals(out, image_height=64, image_width=80)
        assert proposals.shape[0] <= detector_config.rpn_post_nms_top_n
        assert proposals.shape[0] == scores.shape[0]
        if proposals.shape[0]:
            assert proposals[:, 0].min() >= 0 and proposals[:, 1].min() >= 0
            assert proposals[:, 2].max() <= 80 and proposals[:, 3].max() <= 64

    def test_proposals_sorted_by_score_after_nms(self, detector_config, rng):
        head = RPNHead(16, detector_config, rng)
        features = rng.normal(size=(1, 16, 8, 10)).astype(np.float32)
        out = head(features)
        _, scores = head.generate_proposals(out, 64, 80)
        assert np.all(np.diff(scores) <= 1e-6)


class TestDetectionLoss:
    def test_background_only_has_no_regression(self, rng):
        logits = rng.normal(size=(4, 4)).astype(np.float32)
        labels = np.zeros(4, dtype=np.int64)
        deltas = rng.normal(size=(4, 4)).astype(np.float32)
        targets = np.zeros((4, 4), dtype=np.float32)
        result = detection_loss(logits, labels, deltas, targets)
        assert result.reg_loss == 0.0
        np.testing.assert_array_equal(result.grad_deltas, np.zeros((4, 4)))

    def test_lambda_scales_regression_gradient(self, rng):
        logits = rng.normal(size=(2, 4)).astype(np.float32)
        labels = np.array([1, 2])
        deltas = rng.normal(size=(2, 4)).astype(np.float32)
        targets = np.zeros((2, 4), dtype=np.float32)
        weak = detection_loss(logits, labels, deltas, targets, reg_weight=1.0)
        strong = detection_loss(logits, labels, deltas, targets, reg_weight=2.0)
        np.testing.assert_allclose(strong.grad_deltas, 2 * weak.grad_deltas, rtol=1e-5)
        assert strong.num_foreground == 2

    def test_per_sample_includes_both_terms(self):
        logits = np.array([[0.0, 5.0]], dtype=np.float32)
        labels = np.array([1])
        deltas = np.array([[1.0, 0.0, 0.0, 0.0]], dtype=np.float32)
        targets = np.zeros((1, 4), dtype=np.float32)
        result = detection_loss(logits, labels, deltas, targets)
        assert result.per_sample[0] > 0.4  # includes the 0.5 quadratic smooth-L1 term

    def test_empty_batch(self):
        result = detection_loss(
            np.zeros((0, 3), np.float32), np.zeros(0, np.int64), np.zeros((0, 4)), np.zeros((0, 4))
        )
        assert result.total == 0.0

    def test_sample_weights_exclude_rows(self, rng):
        logits = rng.normal(size=(3, 3)).astype(np.float32)
        labels = np.array([1, 1, 0])
        deltas = rng.normal(size=(3, 4)).astype(np.float32)
        targets = np.zeros((3, 4), dtype=np.float32)
        weights = np.array([1.0, 0.0, 1.0], dtype=np.float32)
        result = detection_loss(logits, labels, deltas, targets, sample_weights=weights)
        np.testing.assert_array_equal(result.grad_logits[1], np.zeros(3))
        np.testing.assert_array_equal(result.grad_deltas[1], np.zeros(4))


class TestPerDetectionLosses:
    def test_foreground_assignment_follows_half_iou(self):
        probs = np.array([[0.1, 0.9, 0.0], [0.8, 0.1, 0.1]], dtype=np.float32)
        boxes = np.array([[0, 0, 10, 10], [100, 100, 110, 110]], dtype=np.float32)
        gt_boxes = np.array([[0, 0, 10, 10]], dtype=np.float32)
        gt_labels = np.array([0])
        result = per_detection_losses(probs, boxes, gt_boxes, gt_labels)
        assert result.is_foreground.tolist() == [True, False]
        assert result.num_foreground == 1

    def test_confident_correct_prediction_has_low_loss(self):
        probs = np.array([[0.01, 0.98, 0.01]], dtype=np.float32)
        boxes = np.array([[0, 0, 10, 10]], dtype=np.float32)
        gt_boxes = boxes.copy()
        result = per_detection_losses(probs, boxes, gt_boxes, np.array([0]))
        assert result.losses[0] < 0.05

    def test_wrong_class_increases_loss(self):
        right = per_detection_losses(
            np.array([[0.0, 0.9, 0.1]], dtype=np.float32),
            np.array([[0, 0, 10, 10]], dtype=np.float32),
            np.array([[0, 0, 10, 10]], dtype=np.float32),
            np.array([0]),
        )
        wrong = per_detection_losses(
            np.array([[0.0, 0.1, 0.9]], dtype=np.float32),
            np.array([[0, 0, 10, 10]], dtype=np.float32),
            np.array([[0, 0, 10, 10]], dtype=np.float32),
            np.array([0]),
        )
        assert wrong.losses[0] > right.losses[0]

    def test_poor_localisation_increases_loss(self):
        probs = np.array([[0.0, 1.0]], dtype=np.float32)
        aligned = per_detection_losses(
            probs, np.array([[0, 0, 10, 10]], np.float32), np.array([[0, 0, 10, 10]], np.float32), np.array([0])
        )
        shifted = per_detection_losses(
            probs, np.array([[2, 2, 12, 12]], np.float32), np.array([[0, 0, 10, 10]], np.float32), np.array([0])
        )
        assert shifted.losses[0] > aligned.losses[0]

    def test_background_box_uses_background_class_loss(self):
        probs = np.array([[0.9, 0.05, 0.05]], dtype=np.float32)
        boxes = np.array([[200, 200, 210, 210]], dtype=np.float32)
        gt_boxes = np.array([[0, 0, 10, 10]], dtype=np.float32)
        result = per_detection_losses(probs, boxes, gt_boxes, np.array([1]))
        assert not result.is_foreground[0]
        assert result.losses[0] == pytest.approx(-np.log(0.9), rel=1e-4)

    def test_empty_detections(self):
        result = per_detection_losses(
            np.zeros((0, 3)), np.zeros((0, 4)), np.zeros((1, 4)), np.array([0])
        )
        assert result.losses.shape == (0,)

    def test_mismatched_probs_and_boxes_raise(self):
        with pytest.raises(ValueError):
            per_detection_losses(np.zeros((2, 3)), np.zeros((1, 4)), np.zeros((1, 4)), np.array([0]))


class TestRFCNDetector:
    def test_detect_returns_consistent_shapes(self, detector, micro_frame):
        result = detector.detect(micro_frame.image, target_scale=48, max_long_side=240)
        count = len(result)
        assert result.boxes.shape == (count, 4)
        assert result.scores.shape == (count,)
        assert result.class_ids.shape == (count,)
        assert result.probs.shape == (count, detector.config.num_classes + 1)
        assert result.features.ndim == 4

    def test_detect_boxes_in_original_coordinates(self, detector, micro_frame):
        result = detector.detect(micro_frame.image, target_scale=32, max_long_side=240)
        if len(result):
            assert result.boxes[:, 2].max() <= micro_frame.width + 1e-3
            assert result.boxes[:, 3].max() <= micro_frame.height + 1e-3

    def test_detect_class_ids_within_range(self, detector, micro_frame):
        result = detector.detect(micro_frame.image, target_scale=48, max_long_side=240)
        if len(result):
            assert result.class_ids.min() >= 0
            assert result.class_ids.max() < detector.config.num_classes

    def test_smaller_scale_produces_smaller_feature_map(self, detector, micro_frame):
        large = detector.detect(micro_frame.image, target_scale=64, max_long_side=240)
        small = detector.detect(micro_frame.image, target_scale=32, max_long_side=240)
        assert small.features.shape[2] < large.features.shape[2]

    def test_scale_factor_reported(self, detector, micro_frame):
        result = detector.detect(micro_frame.image, target_scale=32, max_long_side=240)
        assert result.scale_factor == pytest.approx(32 / min(micro_frame.image.shape[:2]), rel=0.05)

    def test_runtime_recorded(self, detector, micro_frame):
        result = detector.detect(micro_frame.image, target_scale=48, max_long_side=240)
        assert result.runtime_s > 0.0

    def test_top_limits_detections(self, detector, micro_frame):
        result = detector.detect(micro_frame.image, target_scale=48, max_long_side=240)
        top = result.top(2)
        assert len(top) <= 2
        if len(result) >= 2:
            assert top.scores[0] >= top.scores[-1]

    def test_as_detections_conversion(self, detector, micro_frame):
        result = detector.detect(micro_frame.image, target_scale=48, max_long_side=240)
        detections = result.as_detections()
        assert len(detections) == len(result)
        if detections:
            assert detections[0].box.shape == (4,)

    def test_detect_from_features_matches_detect(self, detector, micro_frame):
        """detect() must be equivalent to extract_features + detect_from_features."""
        from repro.data.transforms import image_to_chw, normalize_image, resize_image

        full = detector.detect(micro_frame.image, target_scale=48, max_long_side=240)
        resized = resize_image(micro_frame.image, 48, 240)
        features = detector.extract_features(image_to_chw(normalize_image(resized.image)))
        manual = detector.detect_from_features(
            features,
            working_shape=resized.image.shape[:2],
            scale_factor=resized.scale_factor,
            image_size=micro_frame.image.shape[:2],
        )
        assert len(full) == len(manual)
        if len(full):
            np.testing.assert_allclose(full.boxes, manual.boxes, rtol=1e-4, atol=1e-3)
            np.testing.assert_allclose(full.scores, manual.scores, rtol=1e-4)

    def test_detect_batch_bit_identical_to_public_composition(self, detector, micro_frame):
        """The fused preprocessing feeds the backbone the very tensor the three
        public calls build, so detections agree to the last bit at every scale."""
        from repro.data.transforms import image_to_chw, normalize_image, resize_image
        from repro.nn import inference_mode

        image = micro_frame.image
        native = min(image.shape[:2])
        for scale in (24, 37, 48, native, native + 9):
            fused = detector.detect_batch([image], [scale], max_long_side=240)[0]
            resized = resize_image(image, scale, 240)
            with inference_mode():
                features = detector.extract_features(image_to_chw(normalize_image(resized.image)))
                composed = detector.detect_from_features_batch(
                    features,
                    working_shapes=[resized.image.shape[:2]],
                    scale_factors=[resized.scale_factor],
                    image_sizes=[image.shape[:2]],
                    target_scales=[scale],
                )[0]
            np.testing.assert_array_equal(fused.features, composed.features)
            np.testing.assert_array_equal(fused.boxes, composed.boxes)
            np.testing.assert_array_equal(fused.scores, composed.scores)
            np.testing.assert_array_equal(fused.class_ids, composed.class_ids)

    def test_estimate_flops_increases_with_resolution(self, detector):
        assert detector.estimate_flops(128, 160) > detector.estimate_flops(64, 80)

    def test_estimate_flops_roughly_quadratic(self, detector):
        ratio = detector.estimate_flops(128, 128) / detector.estimate_flops(64, 64)
        assert 3.0 < ratio < 5.0

    def test_train_step_accumulates_gradients(self, detector_config, micro_frame, rng):
        detector = RFCNDetector(detector_config, seed=1)
        train_config = TrainingConfig(train_scales=(64,), rpn_batch_size=8, roi_batch_size=8)
        detector.zero_grad()
        losses = detector.train_step(
            micro_frame.image, micro_frame.boxes, micro_frame.labels, train_config, rng
        )
        assert set(losses) >= {"rpn_cls", "rpn_reg", "head_cls", "head_reg", "total"}
        grad_norm = sum(float(np.abs(p.grad).sum()) for p in detector.parameters())
        assert grad_norm > 0.0

    def test_train_step_handles_empty_ground_truth(self, detector_config, micro_frame, rng):
        detector = RFCNDetector(detector_config, seed=2)
        train_config = TrainingConfig(train_scales=(64,), rpn_batch_size=8, roi_batch_size=8)
        losses = detector.train_step(
            micro_frame.image,
            np.zeros((0, 4), dtype=np.float32),
            np.zeros((0,), dtype=np.int64),
            train_config,
            rng,
        )
        assert np.isfinite(losses["total"])

    def test_state_dict_roundtrip_preserves_detections(self, detector_config, micro_frame):
        source = RFCNDetector(detector_config, seed=3)
        clone = RFCNDetector(detector_config, seed=4)
        clone.load_state_dict(source.state_dict())
        a = source.detect(micro_frame.image, target_scale=48, max_long_side=240)
        b = clone.detect(micro_frame.image, target_scale=48, max_long_side=240)
        assert len(a) == len(b)
        if len(a):
            np.testing.assert_allclose(a.boxes, b.boxes, rtol=1e-5)

