"""The inference path against its oracles: the eager training-mode forward,
the per-frame loop, full-length NMS, the naive PS-RoI loop and the textbook
IoU formula — byte for byte wherever the arithmetic is the same."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_detection_model import naive_psroi

from repro.config import DetectorConfig
from repro.data.transforms import preprocess_frame
from repro.detection import RFCNDetector
from repro.detection.boxes import box_areas, iou_matrix
from repro.detection.nms import batched_nms, nms
from repro.detection.psroi import PSRoIPool, psroi_votes
from repro.nn import inference_mode
from repro.nn.functional import softmax


def _same_bytes(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert np.ascontiguousarray(actual).tobytes() == np.ascontiguousarray(expected).tobytes()


class TestEagerOracle:
    @pytest.mark.parametrize("scale", [36, 48, 61, 80, 100, 128])
    def test_inference_forwards_match_training_mode(self, micro_bundle, scale):
        detector = micro_bundle.ms_detector.clone()
        image = next(iter(micro_bundle.val_dataset)).frames()[0].image
        tensor, working_shape, _ = preprocess_frame(image, scale, None)

        with inference_mode():
            features = detector.extract_features(tensor)
            rpn_out = detector.rpn.forward_batch(features)[0]
            rois, _ = detector.rpn.generate_proposals(rpn_out, *working_shape)
            extra = np.array([[0, 0, 4, 4], [500, 500, 600, 640]], dtype=np.float32)
            rois = np.concatenate([rois, extra])  # plus a tiny and an off-map RoI
            logits, deltas = detector.head_forward(features, rois)

        eager_features = detector.extract_features(tensor)
        eager_rpn = detector.rpn.forward_batch(eager_features)[0]
        eager_logits, eager_deltas = detector.head_forward(eager_features, rois)
        _same_bytes(features, eager_features)
        _same_bytes(rpn_out.objectness, eager_rpn.objectness)
        _same_bytes(rpn_out.deltas, eager_rpn.deltas)
        _same_bytes(logits, eager_logits)
        _same_bytes(deltas, eager_deltas)


class TestDetectBatchEqualsLoop:
    @pytest.mark.parametrize("batch_size", [1, 2, 4, 5])
    def test_mixed_scales(self, micro_bundle, batch_size):
        detector = micro_bundle.ms_detector
        max_long_side = micro_bundle.config.adascale.max_long_side
        images = [
            frame.image for snippet in micro_bundle.val_dataset for frame in snippet.frames()
        ][:batch_size]
        scales = [37, 48, 48, 100, 128][:batch_size]
        batched = detector.detect_batch(images, scales, max_long_side=max_long_side)
        for image, scale, result in zip(images, scales, batched):
            single = detector.detect(image, scale, max_long_side=max_long_side)
            for field in ("boxes", "scores", "class_ids", "probs", "proposals", "features"):
                _same_bytes(getattr(result, field), getattr(single, field))

    def test_numpy_integer_scale(self, micro_bundle):
        detector = micro_bundle.ms_detector
        image = next(iter(micro_bundle.val_dataset)).frames()[0].image
        reference = detector.detect(image, 48)
        results = detector.detect_batch([image, image], np.int64(48))
        results.append(detector.detect(image, np.int64(48)))
        for result in results:
            assert type(result.target_scale) is int and result.target_scale == 48
            _same_bytes(result.boxes, reference.boxes)


def _per_class_loop(detector, probs, refined, threshold):
    """The class-by-class candidate loop the vectorised threshold replaced."""
    boxes, scores, classes, rows = [], [], [], []
    for class_index in range(1, detector.config.num_classes + 1):
        keep = probs[:, class_index] >= threshold
        boxes.append(refined[keep])
        scores.append(probs[keep, class_index])
        classes.append(np.full(int(keep.sum()), class_index - 1, dtype=np.int64))
        rows.append(probs[keep])
    boxes, scores, classes, rows = (np.concatenate(part) for part in (boxes, scores, classes, rows))
    keep = batched_nms(boxes, scores, classes, detector.config.nms_threshold)
    keep = keep[: detector.config.max_detections]
    return boxes[keep], scores[keep], classes[keep], rows[keep]


class TestVectorisedThreshold:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_per_class_loop_with_cross_class_ties(self, seed):
        detector = RFCNDetector(DetectorConfig(num_classes=4, max_detections=6), seed=0)
        rng = np.random.default_rng(seed)
        # Small integer logits: equal scores across RoIs and classes are common.
        probs = softmax(rng.integers(0, 3, size=(40, 5)).astype(np.float32), axis=1)
        xy = rng.integers(0, 30, size=(40, 2))
        wh = rng.integers(1, 20, size=(40, 2))
        refined = np.concatenate([xy, xy + wh], axis=1).astype(np.float32)
        result = detector._finalize_image_inner(
            probs, refined, refined, np.zeros((1, 1, 1, 1), np.float32), 1.0, None, (60, 60), 0.2
        )
        boxes, scores, classes, rows = _per_class_loop(detector, probs, refined, 0.2)
        _same_bytes(result.boxes, boxes)
        _same_bytes(result.scores, scores)
        _same_bytes(result.class_ids, classes)
        _same_bytes(result.probs, rows)


def _boxes(draw_size: int):
    coords = st.integers(0, 80).map(lambda value: value / 2)
    return st.lists(
        st.tuples(coords, coords, st.integers(0, 12), st.integers(0, 12)),
        min_size=draw_size,
        max_size=draw_size,
    ).map(
        lambda rows: np.array(
            [[x, y, x + w, y + h] for x, y, w, h in rows], dtype=np.float32
        ).reshape(-1, 4)
    )


@st.composite
def _nms_case(draw):
    n = draw(st.integers(0, 30))
    boxes = draw(_boxes(n))
    # Few distinct scores, so ties are common.
    scores = np.array(draw(st.lists(st.sampled_from([0.1, 0.5, 0.9]), min_size=n, max_size=n)))
    classes = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)), dtype=np.int64)
    max_keep = draw(st.sampled_from([0, 1, 2, 5, n, n + 3]))
    threshold = draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    return boxes, scores.astype(np.float32), classes, max_keep, threshold


class TestEarlyExitNMS:
    @settings(max_examples=150, deadline=None)
    @given(_nms_case())
    def test_max_keep_is_a_prefix(self, case):
        boxes, scores, classes, max_keep, threshold = case
        _same_bytes(
            nms(boxes, scores, threshold, max_keep=max_keep),
            nms(boxes, scores, threshold)[:max_keep],
        )
        _same_bytes(
            batched_nms(boxes, scores, classes, threshold, max_keep=max_keep),
            batched_nms(boxes, scores, classes, threshold)[:max_keep],
        )

    def test_negative_max_keep_rejected(self):
        with pytest.raises(ValueError):
            nms(np.zeros((1, 4)), np.zeros(1), 0.5, max_keep=-1)


class TestVectorisedPSRoI:
    def test_multi_image_matches_naive(self, rng):
        k, dim = 3, 4
        maps = rng.normal(size=(3, k * k * dim, 10, 13)).astype(np.float32)
        rois = np.array(
            [
                [0, 0, 40, 40],
                [10, 20, 90, 70],
                [8, 8, 9, 9],  # smaller than a cell: bins collapse
                [200, 200, 260, 240],  # outside the map: every bin empty
                [-30, -10, 30, 50],
                [50, 5, 103, 79],
            ],
            dtype=np.float32,
        )
        batch_indices = np.array([2, 0, 1, 0, 2, 1])
        pool = PSRoIPool(k, dim, 1.0 / 8.0)
        out = pool.forward(maps, rois, batch_indices)
        for index, image in enumerate(batch_indices):
            roi = rois[index : index + 1]
            reference = naive_psroi(maps[image : image + 1], roi, k, dim, 1.0 / 8.0)
            np.testing.assert_allclose(out[index : index + 1], reference, rtol=1e-5, atol=1e-6)
        np.testing.assert_array_equal(out[3], 0.0)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_one_pass_votes_equal_separate_pools(self, rng, dtype):
        k = 3
        cls_pool = PSRoIPool(k, 5, 0.125, integral_dtype=dtype)
        bbox_pool = PSRoIPool(k, 4, 0.125, integral_dtype=dtype)
        maps = rng.normal(size=(2, k * k * 9, 9, 11)).astype(np.float32)
        rois = rng.uniform(-20, 100, size=(17, 2)).astype(np.float32)
        sizes = rng.uniform(0, 60, size=(17, 2))
        rois = np.concatenate([rois, rois + sizes], axis=1).astype(np.float32)
        batch_indices = rng.integers(0, 2, size=17)
        split = cls_pool.expected_channels
        logits, deltas = psroi_votes((cls_pool, bbox_pool), maps, rois, batch_indices)
        for votes, pool, pool_maps in (
            (logits, cls_pool, maps[:, :split]),
            (deltas, bbox_pool, maps[:, split:]),
        ):
            pooled = pool.forward(pool_maps, rois, batch_indices)
            # The vote is the mean of the C-ordered (R, dim, k, k) bins.
            _same_bytes(votes, pooled.copy(order="C").mean(axis=(2, 3)))

    def test_votes_reject_wrong_channel_count(self, rng):
        pools = (PSRoIPool(2, 3, 0.125), PSRoIPool(2, 4, 0.125))
        with pytest.raises(ValueError):
            psroi_votes(pools, rng.normal(size=(1, 12, 4, 4)).astype(np.float32), np.zeros((1, 4)))


def _textbook_iou(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
    x1 = np.maximum(boxes_a[:, None, 0], boxes_b[None, :, 0])
    y1 = np.maximum(boxes_a[:, None, 1], boxes_b[None, :, 1])
    x2 = np.minimum(boxes_a[:, None, 2], boxes_b[None, :, 2])
    y2 = np.minimum(boxes_a[:, None, 3], boxes_b[None, :, 3])
    inter = np.maximum(x2 - x1, 0.0) * np.maximum(y2 - y1, 0.0)
    union = box_areas(boxes_a)[:, None] + box_areas(boxes_b)[None, :] - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(union > 0, inter / union, 0.0).astype(np.float32)


class TestInPlaceIoU:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 25).flatmap(_boxes), st.integers(1, 25).flatmap(_boxes))
    def test_matches_textbook_formula(self, boxes_a, boxes_b):
        # Widths and heights of 0 (zero-area boxes) are drawn often.
        _same_bytes(iou_matrix(boxes_a, boxes_b), _textbook_iou(boxes_a, boxes_b))

    def test_zero_area_pairs_are_zero(self):
        point = np.array([[5.0, 5.0, 5.0, 5.0]], dtype=np.float32)
        _same_bytes(iou_matrix(point, point), np.zeros((1, 1), dtype=np.float32))
