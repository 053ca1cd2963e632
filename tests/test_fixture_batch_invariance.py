"""Batched == per-frame inference at the benchmark's real layer shapes.

The micro-bundle tests in ``test_batched_inference.py`` pin batch invariance
on toy widths.  This module runs the committed ``perf/fixtures/vid_seed0``
weights (loaded read-only, the way ``tools/detection_digest.py`` loads them)
so the GEMM shapes are the ones ``perf/run.py`` and the served detector use:

* ``detect_batch`` in batches of 4 at each regressor-ladder scale;
* one mixed-scale batch of 8 frames;
* the batched scale regressor (``predict_next_scales``).

Every output byte an inference change must keep is compared: boxes, scores,
class ids, class probabilities, proposals and backbone features.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro import api

FIXTURE_DIR = Path(__file__).resolve().parents[1] / "perf" / "fixtures" / "vid_seed0"
FIELDS = ("boxes", "scores", "class_ids", "probs", "proposals", "features")
MIXED_SCALES = (128, 96, 72, 48, 32, 96, 128, 48)


@pytest.fixture(scope="module")
def fixture_bundle():
    if not (FIXTURE_DIR / "ms_detector.npz").exists():
        pytest.skip("perf/fixtures/vid_seed0 is not checked out")
    config = api.load_experiment_config("vid")
    config = config.with_(
        dataset=config.dataset.with_(num_val_snippets=1, frames_per_snippet=8, num_train_snippets=1)
    )
    return api.Pipeline.from_bundle(FIXTURE_DIR, config).bundle


@pytest.fixture(scope="module")
def images(fixture_bundle):
    return [frame.image for frame in fixture_bundle.val_dataset[0].frames()]


def _assert_same(batched, single, where: str) -> None:
    for name in FIELDS:
        got, want = getattr(batched, name), getattr(single, name)
        assert got.dtype == want.dtype and got.shape == want.shape, f"{where}: {name} shape"
        assert np.array_equal(got, want), f"{where}: {name} differs"


def _per_frame(detector, images, scales, max_long_side):
    return [
        detector.detect_batch([image], scale, max_long_side=max_long_side)[0]
        for image, scale in zip(images, scales)
    ]


def test_batches_of_four_match_per_frame_at_every_ladder_scale(fixture_bundle, images):
    detector = fixture_bundle.ms_detector
    max_long_side = fixture_bundle.config.adascale.max_long_side
    for scale in fixture_bundle.config.adascale.regressor_scales:
        single = _per_frame(detector, images, [scale] * len(images), max_long_side)
        for start in range(0, len(images), 4):
            batched = detector.detect_batch(
                images[start : start + 4], scale, max_long_side=max_long_side
            )
            for offset, detection in enumerate(batched):
                _assert_same(detection, single[start + offset], f"scale {scale} #{start + offset}")


def test_mixed_scale_batch_of_eight_matches_per_frame(fixture_bundle, images):
    detector = fixture_bundle.ms_detector
    max_long_side = fixture_bundle.config.adascale.max_long_side
    batched = detector.detect_batch(images, list(MIXED_SCALES), max_long_side=max_long_side)
    single = _per_frame(detector, images, MIXED_SCALES, max_long_side)
    for index, (got, want) in enumerate(zip(batched, single)):
        _assert_same(got, want, f"mixed #{index} @ {MIXED_SCALES[index]}")


def test_batched_scale_regression_matches_per_frame(fixture_bundle, images):
    detector = fixture_bundle.ms_detector
    adascale = fixture_bundle.adascale
    max_long_side = fixture_bundle.config.adascale.max_long_side
    detections = detector.detect_batch(images, list(MIXED_SCALES), max_long_side=max_long_side)
    shapes = [image.shape[:2] for image in images]
    batched = adascale.predict_next_scales(detections, shapes)
    for detection, shape, (scale, target, _) in zip(detections, shapes, batched):
        single_scale, single_target, _ = adascale.predict_next_scale(detection, shape)
        assert (scale, target) == (single_scale, single_target)
