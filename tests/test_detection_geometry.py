"""Tests for boxes, anchors, NMS and matching — including property-based tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detection import (
    batched_nms,
    box_areas,
    clip_boxes,
    decode_boxes,
    encode_boxes,
    generate_anchors,
    generate_base_anchors,
    iou_matrix,
    match_boxes,
    nms,
    valid_boxes,
)
from repro.detection.anchors import clear_anchor_cache
from repro.detection.boxes import box_centers, scale_boxes


def random_boxes(rng: np.random.Generator, count: int, limit: float = 100.0) -> np.ndarray:
    x1 = rng.uniform(0, limit * 0.8, count)
    y1 = rng.uniform(0, limit * 0.8, count)
    w = rng.uniform(1.0, limit * 0.3, count)
    h = rng.uniform(1.0, limit * 0.3, count)
    return np.stack([x1, y1, x1 + w, y1 + h], axis=1).astype(np.float32)


boxes_strategy = st.integers(0, 10_000).map(
    lambda seed: random_boxes(np.random.default_rng(seed), count=6)
)


class TestBoxBasics:
    def test_area(self):
        boxes = np.array([[0, 0, 2, 3], [1, 1, 1, 5]], dtype=np.float32)
        np.testing.assert_allclose(box_areas(boxes), [6.0, 0.0])

    def test_centers(self):
        boxes = np.array([[0, 0, 4, 2]], dtype=np.float32)
        np.testing.assert_allclose(box_centers(boxes), [[2.0, 1.0]])

    def test_empty_input(self):
        assert box_areas(np.zeros((0, 4))).shape == (0,)
        assert iou_matrix(np.zeros((0, 4)), np.zeros((3, 4))).shape == (0, 3)

    def test_bad_shape_raises(self):
        with pytest.raises(ValueError):
            box_areas(np.zeros((2, 3)))

    def test_clip(self):
        boxes = np.array([[-5, -5, 200, 90]], dtype=np.float32)
        clipped = clip_boxes(boxes, image_height=80, image_width=100)
        np.testing.assert_allclose(clipped, [[0, 0, 100, 80]])

    def test_valid_boxes(self):
        boxes = np.array([[0, 0, 10, 10], [0, 0, 0.5, 10]], dtype=np.float32)
        np.testing.assert_array_equal(valid_boxes(boxes, min_size=1.0), [True, False])

    def test_scale_boxes(self):
        boxes = np.array([[1, 2, 3, 4]], dtype=np.float32)
        np.testing.assert_allclose(scale_boxes(boxes, 2.0), [[2, 4, 6, 8]])
        with pytest.raises(ValueError):
            scale_boxes(boxes, 0.0)


class TestIoU:
    def test_identical_boxes(self):
        box = np.array([[0, 0, 10, 10]], dtype=np.float32)
        assert iou_matrix(box, box)[0, 0] == pytest.approx(1.0)

    def test_disjoint_boxes(self):
        a = np.array([[0, 0, 10, 10]], dtype=np.float32)
        b = np.array([[20, 20, 30, 30]], dtype=np.float32)
        assert iou_matrix(a, b)[0, 0] == 0.0

    def test_known_overlap(self):
        a = np.array([[0, 0, 10, 10]], dtype=np.float32)
        b = np.array([[5, 0, 15, 10]], dtype=np.float32)
        assert iou_matrix(a, b)[0, 0] == pytest.approx(50.0 / 150.0)

    @settings(max_examples=30, deadline=None)
    @given(boxes_strategy, boxes_strategy)
    def test_iou_symmetric_and_bounded(self, boxes_a, boxes_b):
        matrix = iou_matrix(boxes_a, boxes_b)
        np.testing.assert_allclose(matrix, iou_matrix(boxes_b, boxes_a).T, rtol=1e-5)
        assert np.all(matrix >= 0.0) and np.all(matrix <= 1.0 + 1e-6)

    @settings(max_examples=20, deadline=None)
    @given(boxes_strategy)
    def test_self_iou_diagonal_is_one(self, boxes):
        matrix = iou_matrix(boxes, boxes)
        np.testing.assert_allclose(np.diag(matrix), np.ones(len(boxes)), rtol=1e-5)


class TestEncodeDecode:
    def test_encode_zero_for_identical(self):
        boxes = np.array([[10, 10, 50, 40]], dtype=np.float32)
        np.testing.assert_allclose(encode_boxes(boxes, boxes), np.zeros((1, 4)), atol=1e-5)

    def test_decode_inverts_encode(self, rng):
        anchors = random_boxes(rng, 12)
        targets = random_boxes(rng, 12)
        deltas = encode_boxes(anchors, targets)
        recovered = decode_boxes(anchors, deltas)
        np.testing.assert_allclose(recovered, targets, rtol=1e-3, atol=1e-2)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_encode_decode_roundtrip_property(self, seed):
        rng = np.random.default_rng(seed)
        anchors = random_boxes(rng, 5)
        targets = random_boxes(rng, 5)
        recovered = decode_boxes(anchors, encode_boxes(anchors, targets))
        np.testing.assert_allclose(recovered, targets, rtol=1e-2, atol=5e-2)

    def test_decode_clamps_extreme_deltas(self):
        anchors = np.array([[0, 0, 10, 10]], dtype=np.float32)
        wild = np.array([[0.0, 0.0, 100.0, 100.0]], dtype=np.float32)
        decoded = decode_boxes(anchors, wild)
        assert np.all(np.isfinite(decoded))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            encode_boxes(np.zeros((2, 4)), np.zeros((3, 4)))
        with pytest.raises(ValueError):
            decode_boxes(np.zeros((2, 4)), np.zeros((3, 4)))

    def test_empty_decode(self):
        assert decode_boxes(np.zeros((0, 4)), np.zeros((0, 4))).shape == (0, 4)


class TestAnchors:
    def test_base_anchor_count(self):
        anchors = generate_base_anchors((16, 32), (0.5, 1.0, 2.0))
        assert anchors.shape == (6, 4)

    def test_base_anchor_areas_match_sizes(self):
        anchors = generate_base_anchors((16,), (0.5, 1.0, 2.0))
        areas = box_areas(anchors)
        np.testing.assert_allclose(areas, [256.0] * 3, rtol=1e-4)

    def test_base_anchor_aspect_ratios(self):
        anchors = generate_base_anchors((32,), (2.0,))
        height = anchors[0, 3] - anchors[0, 1]
        width = anchors[0, 2] - anchors[0, 0]
        assert height / width == pytest.approx(2.0, rel=1e-4)

    def test_base_anchors_centred_at_origin(self):
        anchors = generate_base_anchors((16, 64), (1.0,))
        np.testing.assert_allclose(box_centers(anchors), np.zeros((2, 2)), atol=1e-5)

    def test_grid_anchor_count_and_layout(self):
        anchors = generate_anchors(2, 3, 8, (16,), (1.0, 2.0))
        assert anchors.shape == (2 * 3 * 2, 4)
        # First two anchors share the centre of the first cell.
        np.testing.assert_allclose(box_centers(anchors[:2]), [[4.0, 4.0]] * 2, atol=1e-4)
        # The next cell is one stride to the right.
        np.testing.assert_allclose(box_centers(anchors[2:4]), [[12.0, 4.0]] * 2, atol=1e-4)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            generate_base_anchors((), (1.0,))
        with pytest.raises(ValueError):
            generate_base_anchors((-4,), (1.0,))
        with pytest.raises(ValueError):
            generate_anchors(0, 4, 8, (16,), (1.0,))


class TestAnchorCache:
    """Anchor grids are memoised per shape and shared read-only."""

    def setup_method(self):
        clear_anchor_cache()

    def teardown_method(self):
        clear_anchor_cache()

    def test_list_and_tuple_share_one_read_only_grid(self):
        grid = generate_anchors(3, 4, 8, (16, 32), (0.5, 1.0))
        assert generate_anchors(3, 4, 8, [16, 32], [0.5, 1.0]) is grid
        assert not grid.flags.writeable
        with pytest.raises(ValueError):
            grid[0, 0] = 1.0

    def test_stride_and_shape_are_separate_entries(self):
        grid = generate_anchors(3, 4, 8, (16,), (1.0,))
        others = [
            generate_anchors(3, 4, 16, (16,), (1.0,)),
            generate_anchors(4, 4, 8, (16,), (1.0,)),
            generate_anchors(3, 5, 8, (16,), (1.0,)),
        ]
        assert all(other is not grid for other in others)
        assert generate_anchors(3, 4, 16, (16,), (1.0,)) is others[0]
        np.testing.assert_array_equal(others[0][0, :2] - grid[0, :2], 4.0)  # centre 8 vs 4

    def test_values_are_base_plus_cell_centre_shift(self):
        sizes, ratios, stride = (16, 40), (0.5, 1.0, 2.0), 8
        grid = generate_anchors(3, 5, stride, sizes, ratios)
        base = generate_base_anchors(sizes, ratios)
        expected = [
            base[a] + np.float32((x + 0.5) * stride) * np.array([1, 0, 1, 0], np.float32)
            + np.float32((y + 0.5) * stride) * np.array([0, 1, 0, 1], np.float32)
            for y in range(3)
            for x in range(5)
            for a in range(len(base))
        ]
        assert grid.dtype == np.float32
        np.testing.assert_array_equal(grid, np.asarray(expected, dtype=np.float32))

    def test_clear_drops_cached_grids(self):
        grid = generate_anchors(2, 3, 8, (16,), (1.0,))
        clear_anchor_cache()
        fresh = generate_anchors(2, 3, 8, (16,), (1.0,))
        assert fresh is not grid
        np.testing.assert_array_equal(fresh, grid)


class TestNMS:
    def test_keeps_highest_scoring_of_overlapping_pair(self):
        boxes = np.array([[0, 0, 10, 10], [1, 1, 11, 11], [50, 50, 60, 60]], dtype=np.float32)
        scores = np.array([0.9, 0.8, 0.7], dtype=np.float32)
        keep = nms(boxes, scores, 0.5)
        assert keep.tolist() == [0, 2]

    def test_threshold_one_keeps_everything(self, rng):
        boxes = random_boxes(rng, 8)
        scores = rng.random(8).astype(np.float32)
        assert len(nms(boxes, scores, 1.0)) == 8

    def test_empty_input(self):
        assert nms(np.zeros((0, 4)), np.zeros(0), 0.5).shape == (0,)

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            nms(np.zeros((2, 4)), np.zeros(3), 0.5)

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            nms(np.zeros((1, 4)), np.zeros(1), 1.5)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.1, 0.9))
    def test_nms_invariants(self, seed, threshold):
        """Kept boxes are sorted by score and mutually non-overlapping above the threshold."""
        rng = np.random.default_rng(seed)
        boxes = random_boxes(rng, 12)
        scores = rng.random(12).astype(np.float32)
        keep = nms(boxes, scores, threshold)
        kept_scores = scores[keep]
        assert np.all(np.diff(kept_scores) <= 1e-6)
        if len(keep) > 1:
            ious = iou_matrix(boxes[keep], boxes[keep])
            off_diag = ious - np.eye(len(keep))
            assert np.all(off_diag <= threshold + 1e-5)

    def test_batched_nms_separates_classes(self):
        boxes = np.array([[0, 0, 10, 10], [0, 0, 10, 10]], dtype=np.float32)
        scores = np.array([0.9, 0.8], dtype=np.float32)
        classes = np.array([0, 1])
        keep = batched_nms(boxes, scores, classes, 0.5)
        assert len(keep) == 2

    def test_batched_nms_suppresses_within_class(self):
        boxes = np.array([[0, 0, 10, 10], [0, 0, 10, 10]], dtype=np.float32)
        scores = np.array([0.9, 0.8], dtype=np.float32)
        classes = np.array([1, 1])
        keep = batched_nms(boxes, scores, classes, 0.5)
        assert len(keep) == 1

    def test_batched_nms_empty(self):
        assert batched_nms(np.zeros((0, 4)), np.zeros(0), np.zeros(0, np.int64), 0.3).shape == (0,)


class TestMatcher:
    def test_foreground_assignment_above_threshold(self):
        candidates = np.array([[0, 0, 10, 10], [100, 100, 110, 110]], dtype=np.float32)
        gt = np.array([[1, 1, 11, 11]], dtype=np.float32)
        result = match_boxes(candidates, gt, fg_threshold=0.5)
        assert result.labels.tolist() == [1, 0]
        assert result.gt_index.tolist() == [0, -1]
        assert result.num_foreground == 1

    def test_no_ground_truth_all_background(self):
        candidates = np.array([[0, 0, 10, 10]], dtype=np.float32)
        result = match_boxes(candidates, np.zeros((0, 4)))
        assert result.labels.tolist() == [0]
        assert result.max_iou[0] == 0.0

    def test_ignore_band(self):
        candidates = np.array([[0, 0, 10, 10]], dtype=np.float32)
        gt = np.array([[0, 0, 10, 25]], dtype=np.float32)  # IoU = 0.4
        result = match_boxes(candidates, gt, fg_threshold=0.5, bg_threshold=0.3)
        assert result.labels.tolist() == [-1]

    def test_force_match_best_promotes_low_iou_candidate(self):
        candidates = np.array([[0, 0, 4, 4], [50, 50, 60, 60]], dtype=np.float32)
        gt = np.array([[0, 0, 30, 30]], dtype=np.float32)
        loose = match_boxes(candidates, gt, fg_threshold=0.5)
        assert loose.num_foreground == 0
        forced = match_boxes(candidates, gt, fg_threshold=0.5, force_match_best=True)
        assert forced.num_foreground == 1

    def test_invalid_thresholds(self):
        with pytest.raises(ValueError):
            match_boxes(np.zeros((1, 4)), np.zeros((1, 4)), fg_threshold=0.5, bg_threshold=0.7)

    def test_best_gt_selected_among_multiple(self):
        candidates = np.array([[0, 0, 10, 10]], dtype=np.float32)
        gt = np.array([[5, 5, 15, 15], [0, 0, 10, 11]], dtype=np.float32)
        result = match_boxes(candidates, gt, fg_threshold=0.5)
        assert result.gt_index[0] == 1
