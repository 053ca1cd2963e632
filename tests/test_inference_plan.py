"""The inference path against its oracles: the eager training-mode forward,
the per-frame loop, full-length NMS, the naive PS-RoI loop, the textbook
IoU formula, the full-sort proposal path, two cumsums and the sliding-window
unfold — byte for byte wherever the arithmetic is the same."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import given, settings
from hypothesis import strategies as st
from test_detection_model import naive_psroi

from repro.config import DetectorConfig
from repro.data.transforms import preprocess_frame
from repro.detection import RFCNDetector
from repro.detection.boxes import box_areas, iou_matrix
from repro.detection.boxes import clip_boxes_, decode_boxes, valid_boxes
from repro.detection.nms import batched_nms, nms
from repro.detection.psroi import PSRoIPool, _channel_plan, _summed_area_table, psroi_votes
from repro.detection.rpn import RPNHead, RPNOutput, _stable_top_k, foreground_scores
from repro.nn import inference_mode
from repro.nn.functional import softmax
from repro.nn.im2col import im2col


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

    def test_one_pass_votes_equal_separate_pools(self, rng):
        k = 3
        cls_pool = PSRoIPool(k, 5, 0.125)
        bbox_pool = PSRoIPool(k, 4, 0.125)
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

    @pytest.mark.parametrize("shape", [(1, 117, 16, 22), (3, 13, 5, 7), (2, 4, 1, 9), (1, 6, 8, 1)])
    def test_slab_table_equals_two_cumsums(self, rng, shape):
        maps = rng.normal(size=shape).astype(np.float32) * 10.0 ** rng.integers(-3, 4, size=shape)
        maps = maps.astype(np.float32)
        expected = np.zeros(shape[:2] + (shape[2] + 1, shape[3] + 1), dtype=np.float64)
        expected[:, :, 1:, 1:] = np.cumsum(np.cumsum(maps, axis=2, dtype=np.float64), axis=3)
        _same_bytes(_summed_area_table(maps).transpose(2, 3, 0, 1).copy(), expected)

    def test_channel_plan_is_shared_and_read_only(self):
        plan = _channel_plan(3, (5, 4))
        assert plan is _channel_plan(3, (5, 4))
        assert not plan.flags.writeable
        assert plan.shape == (9, 9)
        # Output 1 of the box pool, bin 2: past the 45 class channels.
        assert plan[5 + 1, 2] == 45 + 2 * 4 + 1

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


class TestSharedUnfold:
    @pytest.mark.parametrize("batch_size", [1, 2, 4])
    def test_detect_batch_equals_unshared_unfold(self, micro_bundle, monkeypatch, batch_size):
        detector = micro_bundle.ms_detector.clone()
        images = [
            frame.image for snippet in micro_bundle.val_dataset for frame in snippet.frames()
        ][:batch_size]
        shared = detector.detect_batch(images, 48)
        # With no columns handed over, rpn.conv and neck_conv each unfold alone.
        monkeypatch.setattr(detector.rpn.conv, "unfold", lambda features: None)
        unshared = detector.detect_batch(images, 48)
        for a, b in zip(shared, unshared):
            for field in ("boxes", "scores", "class_ids", "probs", "proposals", "features"):
                _same_bytes(getattr(a, field), getattr(b, field))

    def test_columns_of_another_shape_are_refused(self, micro_bundle, rng):
        detector = micro_bundle.ms_detector
        features = rng.normal(size=(1, detector.feature_channels, 6, 7)).astype(np.float32)
        other = detector.rpn.conv.unfold(features[:, :, :5])
        with inference_mode(), pytest.raises(ValueError, match="unfold"):
            detector.rpn.forward_batch(features, other)


def _sliding_window_im2col(x, field, padding, stride):
    """The unfold as ``sliding_window_view`` + transpose + one copy."""
    padded = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    windows = sliding_window_view(padded, (field, field), axis=(2, 3))[:, :, ::stride, ::stride]
    arranged = windows.transpose(1, 4, 5, 0, 2, 3)
    rows = arranged.shape[0] * field * field
    return np.ascontiguousarray(arranged.reshape(rows, -1))


class TestStridedUnfold:
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("field,padding", [(3, 1), (3, 0), (1, 0), (2, 1)])
    @pytest.mark.parametrize("shape", [(1, 3, 9, 11), (3, 2, 8, 5), (2, 1, 4, 4)])
    def test_equals_sliding_window_view(self, rng, stride, field, padding, shape):
        x = rng.normal(size=shape).astype(np.float32)
        expected = _sliding_window_im2col(x, field, padding, stride)
        _same_bytes(im2col(x, field, field, padding, stride), expected)
        _same_bytes(im2col(x, field, field, padding, stride, reuse_buffer=True), expected)

    def test_non_contiguous_input(self, rng):
        x = rng.normal(size=(2, 6, 9, 10)).astype(np.float32)[:, ::2, :, 1:]
        _same_bytes(im2col(x, 3, 3, 1, 2), _sliding_window_im2col(x, 3, 1, 2))


def _oracle_nms(boxes, scores, iou_threshold, max_keep):
    """Greedy NMS as one row threshold per visited box (the earlier loop)."""
    limit = boxes.shape[0] if max_keep is None else min(max_keep, boxes.shape[0])
    if limit == 0:
        return np.zeros((0,), dtype=np.int64)
    order = np.argsort(-scores, kind="stable")
    ious = iou_matrix(boxes, boxes)
    keep: list[int] = []
    suppressed = np.zeros(boxes.shape[0], dtype=bool)
    for idx in order:
        if suppressed[idx]:
            continue
        keep.append(int(idx))
        if len(keep) == limit:
            break
        suppressed |= ious[idx] > iou_threshold
        suppressed[idx] = True
    return np.asarray(keep, dtype=np.int64)


def _oracle_proposals(head, output, height, width, pre_nms, post_nms):
    """Every anchor scored, decoded, clipped and filtered, then a full stable sort."""
    config = head.config
    scores = softmax(output.objectness, axis=1)[:, 1]
    boxes = clip_boxes_(decode_boxes(output.anchors, output.deltas), height, width)
    keep = valid_boxes(boxes, min_size=config.rpn_min_size)
    boxes, scores = boxes[keep], scores[keep]
    if boxes.shape[0] == 0:
        return np.zeros((0, 4), dtype=np.float32), np.zeros((0,), dtype=np.float32)
    order = np.argsort(-scores, kind="stable")[:pre_nms]
    boxes, scores = boxes[order], scores[order]
    keep_nms = _oracle_nms(boxes, scores, config.rpn_nms_threshold, post_nms)
    return boxes[keep_nms], scores[keep_nms]


@st.composite
def _rpn_case(draw):
    """Anchors, logits and deltas with frequent score ties and invalid boxes.

    An anchor marked invalid lies right of the image, so clipping collapses
    it to zero width whatever its delta.
    """
    n = draw(st.integers(0, 150))
    invalid_share = draw(st.sampled_from([0.0, 0.5, 0.9, 0.95, 1.0]))
    pre_nms = draw(st.sampled_from([1, 3, 10, 40, 200]))
    post_nms = draw(st.sampled_from([1, 7, 1000]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        # Four logit values: many anchors share the score at the cut.
        logits = rng.choice(np.float32([-1.0, 0.0, 0.5, 2.0]), size=(n, 2))
    else:
        logits = rng.normal(0, 2, size=(n, 2))
    corner = rng.uniform(0, 50, size=(n, 2))
    anchors = np.concatenate([corner, corner + rng.uniform(1, 30, size=(n, 2))], axis=1)
    outside = rng.random(n) < invalid_share
    anchors[outside, 0::2] += 200.0
    deltas = rng.normal(0, 0.3, size=(n, 4))
    output = RPNOutput(
        objectness=logits.astype(np.float32),
        deltas=deltas.astype(np.float32),
        anchors=anchors.astype(np.float32),
        feature_shape=(1, n),
    )
    return output, pre_nms, post_nms


class TestTopKProposals:
    @pytest.fixture(scope="class")
    def head(self):
        return RPNHead(4, DetectorConfig(), np.random.default_rng(0))

    @settings(max_examples=300, deadline=None)
    @given(_rpn_case())
    def test_matches_full_sort_oracle(self, head, case):
        output, pre_nms, post_nms = case
        boxes, scores = head.generate_proposals_batch([output], [(60, 90)], pre_nms, post_nms)[0]
        expected_boxes, expected_scores = _oracle_proposals(head, output, 60, 90, pre_nms, post_nms)
        _same_bytes(boxes, expected_boxes)
        _same_bytes(scores, expected_scores)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from([-2.0, -0.5, 0.0, 0.0, 1.5, np.inf]), max_size=60),
        st.integers(0, 70),
    )
    def test_stable_top_k_is_the_argsort_prefix(self, keys, k):
        keys = np.asarray(keys, dtype=np.float32)
        _same_bytes(_stable_top_k(keys, k), np.argsort(keys, kind="stable")[:k])

    def test_ties_at_the_cut_keep_the_lowest_index(self):
        keys = np.float32([3, 1, 2, 1, 1, 0, 1])
        _same_bytes(_stable_top_k(keys, 3), np.array([5, 1, 3]))

    def test_widening_reaches_far_down_the_ranking(self, head):
        # Only the 5 worst-scored of 400 anchors are valid boxes.
        n = 400
        corner = np.zeros((n, 2))
        anchors = np.concatenate([corner + 300.0, corner + 310.0], axis=1)
        anchors[-5:] = [
            [1, 1, 20, 20], [5, 5, 40, 30], [30, 10, 60, 50], [2, 40, 22, 58], [50, 2, 88, 20]
        ]
        logits = np.stack([np.zeros(n), np.linspace(3, -3, n)], axis=1)
        output = RPNOutput(
            objectness=logits.astype(np.float32),
            deltas=np.zeros((n, 4), dtype=np.float32),
            anchors=anchors.astype(np.float32),
            feature_shape=(1, n),
        )
        boxes, scores = head.generate_proposals_batch([output], [(60, 90)], 2, 10)[0]
        expected_boxes, expected_scores = _oracle_proposals(head, output, 60, 90, 2, 10)
        assert boxes.shape == (2, 4)
        _same_bytes(boxes, expected_boxes)
        _same_bytes(scores, expected_scores)

    @pytest.mark.parametrize("scale", [36, 61, 100, 128])
    def test_fixture_outputs_match_full_sort_oracle(self, micro_bundle, scale):
        detector = micro_bundle.ms_detector
        for image in [frame.image for frame in next(iter(micro_bundle.val_dataset)).frames()[:3]]:
            tensor, (height, width), _ = preprocess_frame(image, scale, None)
            with inference_mode():
                output = detector.rpn.forward_batch(detector.extract_features(tensor))[0]
            for pre_nms, post_nms in ((200, 40), (7, 1000)):
                boxes, scores = detector.rpn.generate_proposals_batch(
                    [output], [(height, width)], pre_nms, post_nms
                )[0]
                expected = _oracle_proposals(detector.rpn, output, height, width, pre_nms, post_nms)
                _same_bytes(boxes, expected[0])
                _same_bytes(scores, expected[1])

    def test_mixed_shape_batch_equals_per_image_calls(self, micro_bundle):
        detector = micro_bundle.ms_detector
        image = next(iter(micro_bundle.val_dataset)).frames()[0].image
        outputs, shapes = [], []
        with inference_mode():
            for scale in (36, 61, 100):
                tensor, working_shape, _ = preprocess_frame(image, scale, None)
                outputs += detector.rpn.forward_batch(detector.extract_features(tensor))
                shapes.append(working_shape)
        assert len({output.anchors.shape for output in outputs}) == 3
        batched = detector.rpn.generate_proposals_batch(outputs, shapes)
        for output, shape, (boxes, scores) in zip(outputs, shapes, batched):
            expected_boxes, expected_scores = detector.rpn.generate_proposals(output, *shape)
            _same_bytes(boxes, expected_boxes)
            _same_bytes(scores, expected_scores)

    def test_batch_needs_one_shape_per_output(self, micro_bundle):
        with pytest.raises(ValueError, match="image shapes"):
            micro_bundle.ms_detector.rpn.generate_proposals_batch([], [(10, 10)])


class TestForegroundScores:
    def test_random_logits(self, rng):
        logits = rng.normal(0, 4, size=(5000, 2)).astype(np.float32)
        logits[:10] = [[0, 0], [80, -80], [-80, 80], [1e30, 1e30], [-1e30, 3], [3, -1e30],
                       [0.5, 0.5], [-0.0, 0.0], [88, 89], [-103, -104]]
        _same_bytes(foreground_scores(logits), softmax(logits, axis=1)[:, 1])

    @pytest.mark.parametrize("scale", [36, 61, 128])
    def test_fixture_logits(self, micro_bundle, scale):
        detector = micro_bundle.ms_detector
        images = [frame.image for frame in next(iter(micro_bundle.val_dataset)).frames()[:3]]
        with inference_mode():
            for image in images:
                tensor = preprocess_frame(image, scale, None)[0]
                logits = detector.rpn.forward_batch(detector.extract_features(tensor))[0].objectness
                _same_bytes(foreground_scores(logits), softmax(logits, axis=1)[:, 1])


def _per_class_nms(boxes, scores, classes, threshold):
    """One ``nms`` per class, merged in the global (score, index) order."""
    kept = [
        members[nms(boxes[members], scores[members], threshold)]
        for members in (np.flatnonzero(classes == label) for label in np.unique(classes))
    ]
    kept = np.sort(np.concatenate(kept)) if kept else np.zeros((0,), dtype=np.int64)
    return kept[np.argsort(-scores[kept], kind="stable")].astype(np.int64)


@st.composite
def _signed_nms_case(draw):
    n = draw(st.integers(0, 25))
    coords = st.integers(-400, 400).map(lambda value: value / 2)
    sizes = st.integers(0, 80)
    rows = draw(st.lists(st.tuples(coords, coords, sizes, sizes), min_size=n, max_size=n))
    boxes = np.array([[x, y, x + w, y + h] for x, y, w, h in rows], dtype=np.float32).reshape(-1, 4)
    np.clip(boxes, -200, 200, out=boxes)
    scores = np.array(draw(st.lists(st.sampled_from([0.2, 0.6, 0.9]), min_size=n, max_size=n)))
    classes = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), dtype=np.int64)
    threshold = draw(st.sampled_from([0.0, 0.3, 0.7]))
    return boxes, scores.astype(np.float32), classes, threshold


class TestBatchedNMSClasses:
    def test_negative_boxes_of_two_classes_both_survive(self):
        box = [-50.0, -50.0, 10.0, 10.0]
        boxes = np.array([box, box], dtype=np.float32)
        classes = np.array([0, 1])
        scores = np.float32([0.9, 0.8])
        _same_bytes(batched_nms(boxes, scores, classes, 0.5), np.array([0, 1]))
        _same_bytes(batched_nms(boxes + 60, scores, classes, 0.5), np.array([0, 1]))

    @settings(max_examples=200, deadline=None)
    @given(_signed_nms_case())
    def test_matches_per_class_nms(self, case):
        boxes, scores, classes, threshold = case
        _same_bytes(
            batched_nms(boxes, scores, classes, threshold),
            _per_class_nms(boxes, scores, classes, threshold),
        )
