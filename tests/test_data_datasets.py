"""Tests for SyntheticVID / MiniYTBB datasets, transforms and loaders."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.config import AdaScaleConfig, DatasetConfig
from repro.data import (
    FrameLoader,
    MiniYTBB,
    SyntheticVID,
    image_to_chw,
    iterate_frames,
    normalize_image,
    preprocess_frame,
    resize_image,
    resize_with_boxes,
)
from repro.data import transforms
from repro.data.mini_ytbb import default_ytbb_config
from repro.data.transforms import PIXEL_MEAN, chw_to_image

#: Agreed beforehand from the dtype: two float32 lerps + the oracle's own
#: float32 rounding, on values in [0, 1] (float32 eps = 1.19e-7).
RESIZE_ORACLE_ATOL = 2.5e-7


def _zoom_oracle(image: np.ndarray, target_scale: int, max_long_side: int | None) -> np.ndarray:
    """What ``resize_image`` computed before it stopped using SciPy."""
    ndimage = pytest.importorskip("scipy.ndimage")
    image = np.asarray(image, dtype=np.float32)
    height, width = image.shape[:2]
    factor = float(target_scale) / float(min(height, width))
    if max_long_side is not None and max(height, width) * factor > max_long_side:
        factor = float(max_long_side) / float(max(height, width))
    if abs(factor - 1.0) < 1e-9:
        return image.copy()
    zoomed = ndimage.zoom(image, (factor, factor, 1.0), order=1, mode="nearest")
    return np.clip(zoomed, 0.0, 1.0).astype(np.float32)


def _input_variant(kind: str, height: int, width: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "float64":
        return rng.random((height, width, 3))
    if kind == "uint8":
        return rng.integers(0, 256, (height, width, 3), dtype=np.uint8) / np.float32(255.0)
    image = rng.random((2 * height, 2 * width, 3), dtype=np.float32)
    if kind == "strided":
        return image[::-2, 1::2]
    return np.ascontiguousarray(image[:height, :width])


@pytest.fixture(scope="module")
def small_dataset() -> SyntheticVID:
    config = DatasetConfig(
        num_classes=4,
        base_scale=64,
        num_train_snippets=3,
        num_val_snippets=2,
        frames_per_snippet=4,
        seed=11,
    )
    return SyntheticVID(config, split="train")


class TestSyntheticVID:
    def test_snippet_and_frame_counts(self, small_dataset):
        assert len(small_dataset) == 3
        assert small_dataset.num_frames == 12
        assert all(len(snippet) == 4 for snippet in small_dataset)

    def test_frame_geometry_matches_config(self, small_dataset):
        frame = small_dataset[0][0]
        assert frame.height == 64
        assert frame.width == int(round(64 * 1.33))
        assert frame.image.dtype == np.float32

    def test_boxes_within_frame(self, small_dataset):
        for frame in iterate_frames(small_dataset):
            if frame.num_objects == 0:
                continue
            assert np.all(frame.boxes[:, 0] >= 0) and np.all(frame.boxes[:, 1] >= 0)
            assert np.all(frame.boxes[:, 2] <= frame.width)
            assert np.all(frame.boxes[:, 3] <= frame.height)
            assert np.all(frame.boxes[:, 2] > frame.boxes[:, 0])
            assert np.all(frame.boxes[:, 3] > frame.boxes[:, 1])

    def test_labels_within_class_range(self, small_dataset):
        for frame in iterate_frames(small_dataset):
            if frame.num_objects:
                assert frame.labels.min() >= 0
                assert frame.labels.max() < small_dataset.num_classes

    def test_rendering_is_deterministic(self):
        config = DatasetConfig(num_train_snippets=2, frames_per_snippet=3, seed=3)
        a = SyntheticVID(config, "train")[1][2]
        b = SyntheticVID(config, "train")[1][2]
        np.testing.assert_array_equal(a.image, b.image)
        np.testing.assert_array_equal(a.boxes, b.boxes)

    def test_out_of_order_access_matches_sequential(self):
        config = DatasetConfig(num_train_snippets=1, frames_per_snippet=4, seed=5)
        sequential = SyntheticVID(config, "train")[0]
        frames_in_order = [sequential[i].image for i in range(4)]
        random_access = SyntheticVID(config, "train")[0]
        late_first = random_access[3].image
        np.testing.assert_array_equal(late_first, frames_in_order[3])

    def test_train_and_val_splits_differ(self):
        config = DatasetConfig(num_train_snippets=2, num_val_snippets=2, frames_per_snippet=2, seed=1)
        train_frame = SyntheticVID(config, "train")[0][0]
        val_frame = SyntheticVID(config, "val")[0][0]
        assert not np.allclose(train_frame.image, val_frame.image)

    def test_different_seeds_give_different_data(self):
        a = SyntheticVID(DatasetConfig(num_train_snippets=1, seed=1), "train")[0][0]
        b = SyntheticVID(DatasetConfig(num_train_snippets=1, seed=2), "train")[0][0]
        assert not np.allclose(a.image, b.image)

    def test_temporal_consistency_of_object_identity(self, small_dataset):
        """Consecutive frames keep the same object classes (temporal consistency)."""
        snippet = small_dataset[0]
        classes_per_frame = [sorted(frame.labels.tolist()) for frame in snippet]
        assert classes_per_frame[0] == classes_per_frame[1]

    def test_object_motion_is_smooth(self, small_dataset):
        """Box centres move by a bounded amount between consecutive frames."""
        snippet = small_dataset[0]
        first, second = snippet[0], snippet[1]
        if first.num_objects and second.num_objects:
            shift = np.abs(first.boxes[0] - second.boxes[0]).max()
            assert shift < 15.0

    def test_invalid_split_rejected(self):
        with pytest.raises(ValueError):
            SyntheticVID(DatasetConfig(), split="test")

    def test_too_many_classes_rejected(self):
        with pytest.raises(ValueError):
            SyntheticVID(DatasetConfig(num_classes=99))

    def test_scale_archetypes_cover_large_and_small_objects(self):
        """The dataset must contain both very large and small objects so that
        different frames have different optimal scales (the premise of the paper)."""
        config = DatasetConfig(num_train_snippets=9, frames_per_snippet=2, seed=0)
        dataset = SyntheticVID(config, "train")
        fractions = []
        for frame in iterate_frames(dataset):
            if frame.num_objects == 0:
                continue
            sides = np.minimum(
                frame.boxes[:, 2] - frame.boxes[:, 0], frame.boxes[:, 3] - frame.boxes[:, 1]
            )
            fractions.extend((sides / min(frame.height, frame.width)).tolist())
        assert max(fractions) > 0.6
        assert min(fractions) < 0.25


class TestMiniYTBB:
    def test_default_config_differs_from_vid(self):
        config = default_ytbb_config()
        assert config.num_classes != DatasetConfig().num_classes
        assert config.name == "mini-ytbb"

    def test_class_names_come_from_ytbb_palette(self):
        dataset = MiniYTBB(split="val")
        assert "person" in dataset.class_names

    def test_same_api_as_vid(self):
        dataset = MiniYTBB(default_ytbb_config(seed=1).with_(num_train_snippets=2, frames_per_snippet=2))
        frame = dataset[0][0]
        assert frame.image.ndim == 3


class TestTransforms:
    def test_resize_image_shortest_side(self, small_dataset):
        frame = small_dataset[0][0]
        resized = resize_image(frame.image, 32)
        assert min(resized.image.shape[:2]) == 32
        assert resized.scale_factor == pytest.approx(0.5, rel=0.05)

    def test_resize_image_long_side_cap(self, small_dataset):
        frame = small_dataset[0][0]
        resized = resize_image(frame.image, 64, max_long_side=60)
        assert max(resized.image.shape[:2]) <= 61
        assert resized.scale_factor < 1.0

    def test_resize_identity(self, small_dataset):
        frame = small_dataset[0][0]
        resized = resize_image(frame.image, min(frame.image.shape[:2]))
        assert resized.scale_factor == pytest.approx(1.0)
        np.testing.assert_array_equal(resized.image, frame.image)

    def test_resize_with_boxes_scales_consistently(self, small_dataset):
        frame = next(f for f in iterate_frames(small_dataset) if f.num_objects > 0)
        resized, boxes = resize_with_boxes(frame.image, frame.boxes, 32)
        expected = frame.boxes * resized.scale_factor
        expected[:, 0::2] = np.clip(expected[:, 0::2], 0, resized.image.shape[1])
        expected[:, 1::2] = np.clip(expected[:, 1::2], 0, resized.image.shape[0])
        np.testing.assert_allclose(boxes, expected, rtol=1e-4)

    def test_resize_rejects_bad_input(self):
        with pytest.raises(ValueError):
            resize_image(np.zeros((4, 4)), 2)
        with pytest.raises(ValueError):
            resize_image(np.zeros((4, 4, 3)), 0)
        with pytest.raises(ValueError):
            preprocess_frame(np.zeros((4, 4)), 2)
        with pytest.raises(ValueError):
            preprocess_frame(np.zeros((4, 4, 3)), 0)

    @settings(max_examples=150, deadline=None)
    @given(
        height=st.integers(1, 200),
        width=st.integers(1, 200),
        scale=st.integers(1, 256),
        cap=st.sampled_from([None, 8, 60, 240]),
        kind=st.sampled_from(["float32", "strided", "float64", "uint8"]),
        seed=st.integers(0, 10_000),
    )
    def test_resize_matches_zoom_oracle(self, height, width, scale, cap, kind, seed):
        """Down- and up-scaling, 1-pixel axes, the cap: same shape, ≤ 2.5e-7 apart."""
        factor = scale / min(height, width)
        if cap is not None:
            factor = min(factor, cap / max(height, width))
        assume(height * width * factor * factor <= 150_000)  # keep the oracle quick
        image = _input_variant(kind, height, width, seed)
        expected = _zoom_oracle(image, scale, cap)
        resized = resize_image(image, scale, cap)
        assert resized.image.shape == expected.shape
        assert resized.image.dtype == np.float32 and resized.image.flags.c_contiguous
        assert resized.effective_scale == min(expected.shape[:2])
        np.testing.assert_allclose(resized.image, expected, rtol=0.0, atol=RESIZE_ORACLE_ATOL)

    def test_preprocess_frame_bit_identical_to_three_calls(self, small_dataset):
        """Every scale AdaScale can choose, capped and uncapped, plus the native size."""
        image = small_dataset[0][0].image
        config = AdaScaleConfig()
        cases = [(None, None)] + [
            (scale, cap)
            for scale in range(config.min_scale, config.max_scale + 1)
            for cap in (config.max_long_side, 100)
        ]
        for scale, cap in cases:
            tensor, working_shape, scale_factor = preprocess_frame(image, scale, cap)
            if scale is None:
                resized, factor = image, 1.0
            else:
                result = resize_image(image, scale, cap)
                resized, factor = result.image, result.scale_factor
            np.testing.assert_array_equal(tensor, image_to_chw(normalize_image(resized)))
            assert tensor.dtype == np.float32 and tensor.flags.c_contiguous
            assert working_shape == resized.shape[:2]
            assert scale_factor == factor

    def test_resize_plan_memo_is_thread_safe(self, small_dataset):
        """4 threads resizing different scales at once through a cold memo."""
        image = small_dataset[0][0].image
        ladder = list(range(16, 129))
        scales = [ladder[lane::4] + ladder[:lane:-1] for lane in range(4)]  # distinct + shared keys
        expected = [[resize_image(image, s, 160).image for s in lane] for lane in scales]
        transforms._axis_plan.cache_clear()
        results: list[list[np.ndarray]] = [[] for _ in scales]

        def work(lane: int) -> None:
            for _ in range(3):
                results[lane] = [resize_image(image, s, 160).image for s in scales[lane]]

        threads = [threading.Thread(target=work, args=(lane,)) for lane in range(len(scales))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for lane, lane_expected in enumerate(expected):
            assert len(results[lane]) == len(lane_expected)
            for got, want in zip(results[lane], lane_expected):
                np.testing.assert_array_equal(got, want)
        plan = transforms._axis_plan(image.shape[0], 32)
        assert not any(array.flags.writeable for array in plan)

    def test_normalize_subtracts_mean(self):
        image = np.tile(PIXEL_MEAN[None, None, :], (4, 5, 1))
        np.testing.assert_allclose(normalize_image(image), np.zeros((4, 5, 3)), atol=1e-6)

    def test_chw_roundtrip(self, small_dataset):
        frame = small_dataset[0][0]
        tensor = image_to_chw(frame.image)
        assert tensor.shape == (1, 3, frame.height, frame.width)
        np.testing.assert_allclose(chw_to_image(tensor), frame.image)

    def test_chw_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            image_to_chw(np.zeros((3, 4, 4)))
        with pytest.raises(ValueError):
            chw_to_image(np.zeros((2, 3, 4, 4)))


class TestFrameLoader:
    def test_visits_every_frame_once_per_epoch(self, small_dataset, rng):
        loader = FrameLoader(small_dataset, rng)
        seen = {(f.snippet_id, f.frame_index) for f in loader.take(len(loader))}
        assert len(seen) == small_dataset.num_frames

    def test_infinite_stream_reshuffles(self, small_dataset, rng):
        loader = FrameLoader(small_dataset, rng)
        frames = loader.take(2 * len(loader))
        assert len(frames) == 2 * small_dataset.num_frames

    def test_negative_take_rejected(self, small_dataset, rng):
        loader = FrameLoader(small_dataset, rng)
        with pytest.raises(ValueError):
            loader.take(-1)

    def test_iterate_frames_order(self, small_dataset):
        frames = list(iterate_frames(small_dataset))
        assert frames[0].snippet_id == 0 and frames[0].frame_index == 0
        assert frames[-1].snippet_id == len(small_dataset) - 1
