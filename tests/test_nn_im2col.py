"""Tests for im2col / col2im, including a property-based adjointness check."""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.im2col import (
    clear_plan_cache,
    col2im,
    conv_output_size,
    im2col,
    im2col_indices,
    plan_cache_stats,
)
from repro.nn import Conv2d, inference_mode, runtime
from repro.nn.runtime import clear_scratch, scratch


class TestConvOutputSize:
    def test_basic(self):
        assert conv_output_size(8, 3, 1, 1) == 8
        assert conv_output_size(8, 3, 1, 2) == 4
        assert conv_output_size(7, 3, 0, 1) == 5

    def test_invalid_raises(self):
        with pytest.raises(ValueError):
            conv_output_size(2, 5, 0, 1)


class TestIm2Col:
    def test_shape(self):
        x = np.arange(2 * 3 * 5 * 6, dtype=np.float32).reshape(2, 3, 5, 6)
        cols = im2col(x, 3, 3, 1, 1)
        assert cols.shape == (3 * 3 * 3, 2 * 5 * 6)

    def test_identity_kernel_reproduces_input(self):
        x = np.random.default_rng(0).normal(size=(1, 2, 4, 4)).astype(np.float32)
        cols = im2col(x, 1, 1, 0, 1)
        np.testing.assert_allclose(cols.reshape(2, 16), x.reshape(2, 16))

    def test_matches_manual_patch_extraction(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 1, 4, 4)).astype(np.float32)
        cols = im2col(x, 2, 2, 0, 2)
        # Patches in row-major output order: (0,0), (0,2), (2,0), (2,2).
        expected_first = x[0, 0, 0:2, 0:2].reshape(-1)
        np.testing.assert_allclose(cols[:, 0], expected_first)
        expected_last = x[0, 0, 2:4, 2:4].reshape(-1)
        np.testing.assert_allclose(cols[:, 3], expected_last)

    def test_conv_via_im2col_matches_direct(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 2, 5, 5)).astype(np.float32)
        weight = rng.normal(size=(3, 2, 3, 3)).astype(np.float32)
        cols = im2col(x, 3, 3, 1, 1)
        out = (weight.reshape(3, -1) @ cols).reshape(3, 1, 5, 5).transpose(1, 0, 2, 3)
        # Direct (slow) convolution.
        padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        direct = np.zeros_like(out)
        for f in range(3):
            for i in range(5):
                for j in range(5):
                    direct[0, f, i, j] = np.sum(padded[0, :, i : i + 3, j : j + 3] * weight[f])
        np.testing.assert_allclose(out, direct, rtol=1e-4, atol=1e-4)

    def test_indices_shapes_consistent(self):
        k, i, j = im2col_indices((1, 3, 6, 6), 3, 3, 1, 2)
        assert k.shape[0] == i.shape[0] == j.shape[0] == 3 * 3 * 3


class TestCol2Im:
    def test_col2im_inverts_im2col_for_disjoint_patches(self):
        # With kernel == stride and no padding the patches are disjoint, so
        # col2im(im2col(x)) must reproduce x exactly.
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
        cols = im2col(x, 2, 2, 0, 2)
        restored = col2im(cols, x.shape, 2, 2, 0, 2)
        np.testing.assert_allclose(restored, x, rtol=1e-5)

    def test_overlapping_patches_accumulate(self):
        x = np.ones((1, 1, 3, 3), dtype=np.float32)
        cols = im2col(x, 3, 3, 1, 1)
        restored = col2im(cols, x.shape, 3, 3, 1, 1)
        # The centre pixel is visited by all 9 overlapping 3x3 windows.
        assert restored[0, 0, 1, 1] == pytest.approx(9.0)

    @settings(max_examples=25, deadline=None)
    @given(
        batch=st.integers(1, 2),
        channels=st.integers(1, 3),
        height=st.integers(4, 9),
        width=st.integers(4, 9),
        kernel=st.integers(1, 3),
        stride=st.integers(1, 2),
        seed=st.integers(0, 10_000),
    )
    def test_col2im_is_adjoint_of_im2col(self, batch, channels, height, width, kernel, stride, seed):
        """<im2col(x), y> == <x, col2im(y)> for all x, y (adjointness)."""
        padding = kernel // 2
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(batch, channels, height, width)).astype(np.float32)
        cols = im2col(x, kernel, kernel, padding, stride)
        y = rng.normal(size=cols.shape).astype(np.float32)
        lhs = float(np.sum(cols * y))
        rhs = float(np.sum(x * col2im(y, x.shape, kernel, kernel, padding, stride)))
        assert lhs == pytest.approx(rhs, rel=1e-3, abs=1e-2)


class TestPlanCache:
    """Shape-keyed memo of the index plans ``col2im`` scatters through."""

    def setup_method(self):
        clear_plan_cache()

    def teardown_method(self):
        clear_plan_cache()

    def test_hit_miss_accounting_across_shapes(self):
        stats0 = plan_cache_stats()
        assert stats0 == {"hits": 0, "misses": 0, "size": 0}
        im2col_indices((1, 3, 8, 8), 3, 3, 1, 1)
        im2col_indices((1, 3, 8, 8), 3, 3, 1, 1)  # same shape: hit
        im2col_indices((2, 3, 8, 8), 3, 3, 1, 1)  # batch ignored: still a hit
        im2col_indices((1, 3, 9, 8), 3, 3, 1, 1)  # new spatial shape: miss
        im2col_indices((1, 3, 8, 8), 3, 3, 1, 2)  # new stride: miss
        stats = plan_cache_stats()
        assert stats["misses"] == 3
        assert stats["hits"] == 2
        assert stats["size"] == 3

    def test_cached_plans_are_read_only(self):
        k, i, j = im2col_indices((1, 2, 6, 6), 3, 3, 1, 1)
        with pytest.raises(ValueError):
            k[0] = 99

    def test_inference_conv_makes_no_lookups(self):
        conv = Conv2d(3, 4, 3, stride=2, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(2, 3, 9, 8)).astype(np.float32)
        with inference_mode():
            conv(x)
            conv(x)
        assert plan_cache_stats() == {"hits": 0, "misses": 0, "size": 0}

    def test_training_backward_misses_once_then_hits(self):
        conv = Conv2d(3, 4, 3, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(2, 3, 6, 7)).astype(np.float32)
        for step in range(3):
            out = conv(x)
            assert plan_cache_stats()["misses"] + plan_cache_stats()["hits"] == step
            conv.backward(np.ones_like(out))
        assert plan_cache_stats() == {"hits": 2, "misses": 1, "size": 1}


class TestRuntimeEquivalence:
    """The strided unfold, with or without scratch, is bit-exact to a gather."""

    @settings(max_examples=25, deadline=None)
    @given(
        batch=st.integers(1, 3),
        channels=st.integers(1, 3),
        height=st.integers(4, 9),
        width=st.integers(4, 9),
        kernel=st.integers(1, 3),
        stride=st.integers(1, 2),
        seed=st.integers(0, 10_000),
    )
    def test_im2col_paths_bit_identical(self, batch, channels, height, width, kernel, stride, seed):
        padding = kernel // 2
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(batch, channels, height, width)).astype(np.float32)
        # Reference: a fancy-index gather through the plan, on an np.pad copy.
        k, i, j = im2col_indices(x.shape, kernel, kernel, padding, stride)
        padded = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        reference = padded[:, k, i, j].transpose(1, 0, 2).reshape(channels * kernel * kernel, -1)
        fresh = im2col(x, kernel, kernel, padding, stride)
        scratched = im2col(x, kernel, kernel, padding, stride, reuse_buffer=True)
        for cols in (fresh, scratched):
            assert cols.dtype == reference.dtype and cols.shape == reference.shape
            assert cols.tobytes() == reference.tobytes()

    def test_scratch_arena_is_reused_per_tag(self):
        """One grow-only buffer per tag: shapes share it, tags never do."""
        clear_scratch()
        try:
            a = scratch("t", (4, 4), np.float32)
            b = scratch("t", (2, 8), np.float32)
            c = scratch("t", (3, 2), np.float32)
            assert (a.shape, b.shape, c.shape) == ((4, 4), (2, 8), (3, 2))
            assert a.flags.c_contiguous and b.flags.c_contiguous and c.flags.c_contiguous
            assert np.shares_memory(a, b) and np.shares_memory(a, c)
            assert not np.shares_memory(a, scratch("u", (4, 4), np.float32))
            assert not np.shares_memory(a, scratch("t", (4, 4), np.float64))

            # Grows for a larger request, then never shrinks back.
            big = scratch("t", (64, 4), np.float32)
            big[:] = 7.0
            small = scratch("t", (4,), np.float32)
            assert np.shares_memory(small, big)
            np.testing.assert_array_equal(small, 7.0)

            # 100 distinct shapes per tag still leave one buffer per (tag, dtype).
            for n in range(1, 101):
                for tag in ("t", "u", "v"):
                    assert scratch(tag, (n, n + 1), np.float32).shape == (n, n + 1)
            assert len(runtime._SCRATCH.buffers) == 4  # t/f4, t/f8, u/f4, v/f4
        finally:
            clear_scratch()

    def test_scratch_arena_is_thread_local(self):
        clear_scratch()
        try:
            mine = scratch("t", (8,), np.float32)
            theirs: list[np.ndarray] = []
            thread = threading.Thread(
                target=lambda: theirs.append(scratch("t", (8,), np.float32))
            )
            thread.start()
            thread.join(timeout=10.0)
            assert not thread.is_alive() and len(theirs) == 1
            assert not np.shares_memory(mine, theirs[0])
        finally:
            clear_scratch()
