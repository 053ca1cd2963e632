"""Ablations of design choices called out in DESIGN.md.

Two ablations complement the paper's own tables:

1. **Foreground truncation in the optimal-scale metric** (Sec. 3.1).  The paper
   argues that comparing scales on the raw summed loss favours scales with
   fewer foreground predictions; truncating to ``n_min`` boxes fixes the bias.
   We label the training split with both rules and compare the resulting
   label distributions.
2. **Relative vs absolute regression target** (Eq. 3).  The paper regresses a
   *relative*, normalised scale because "what matters is the content instead of
   the image size itself".  We train an absolute-target regressor and compare
   its test-time scale decisions against the relative-target one.
"""

from __future__ import annotations

import numpy as np

from conftest import write_result
from repro.core import ScaleRegressor, optimal_scale_for_image
from repro.core.pipeline import ExperimentBundle
from repro.data.loader import FrameLoader
from repro.data.transforms import preprocess_frame
from repro.evaluation import format_table
from repro.nn import mse_loss
from repro.nn.optim import Adam


def test_ablation_optimal_scale_truncation(benchmark, vid_bundle):
    """Compare the truncated (paper) metric against the naive summed-loss metric."""
    config = vid_bundle.config.adascale
    naive_config = config.with_(use_foreground_truncation=False)
    truncated_labels = vid_bundle.labels
    frames = [frame for snippet in vid_bundle.train_dataset for frame in snippet]

    agreements = 0
    naive_smaller = 0
    truncated_smaller = 0
    naive_values = []
    for frame in frames:
        naive = optimal_scale_for_image(vid_bundle.ms_detector, frame, naive_config)
        truncated = truncated_labels.get(frame.snippet_id, frame.frame_index)
        naive_values.append(naive.optimal_scale)
        if naive.optimal_scale == truncated:
            agreements += 1
        elif naive.optimal_scale < truncated:
            naive_smaller += 1
        else:
            truncated_smaller += 1

    rows = [
        ["truncated (paper)", f"{truncated_labels.mean_scale():.1f}", "-"],
        ["naive summed loss", f"{float(np.mean(naive_values)):.1f}", f"{100 * agreements / len(frames):.0f}% agree"],
    ]
    table = format_table(
        ["labelling rule", "mean optimal scale", "agreement"],
        rows,
        title="Ablation — optimal-scale metric with and without n_min truncation",
    )
    summary = (
        f"Labels agree on {agreements}/{len(frames)} frames; when they differ the naive rule picks a "
        f"smaller scale {naive_smaller} times and a larger one {truncated_smaller} times.  The paper's "
        "concern is that the naive rule is biased toward scales with fewer foreground predictions "
        "(usually smaller scales)."
    )
    write_result(
        "ablation_metric_truncation",
        table + "\n\n" + summary,
        data={
            "frames": len(frames),
            "agreements": agreements,
            "agreement_fraction": agreements / len(frames),
            "naive_mean_scale": float(np.mean(naive_values)),
            "truncated_mean_scale": float(truncated_labels.mean_scale()),
        },
    )

    assert agreements > 0  # the two rules are related, not arbitrary

    frame = frames[0]
    benchmark(lambda: optimal_scale_for_image(vid_bundle.ms_detector, frame, naive_config))


def _train_absolute_regressor(bundle: ExperimentBundle, iterations: int) -> ScaleRegressor:
    """Regressor trained to predict the absolute optimal scale (normalised to [0, 1])."""
    config = bundle.config
    regressor = ScaleRegressor(
        bundle.ms_detector.feature_channels, config.regressor, seed=config.seed + 100
    )
    optimizer = Adam(regressor.parameters(), learning_rate=config.regressor.learning_rate)
    rng = np.random.default_rng(config.seed + 100)
    loader = FrameLoader(bundle.train_dataset, rng)
    reg_scales = config.adascale.regressor_scales
    max_scale = config.adascale.max_scale
    for _ in range(iterations):
        frame = loader.next_frame()
        key = (frame.snippet_id, frame.frame_index)
        if key not in bundle.labels.labels:
            continue
        optimal = bundle.labels.labels[key]
        input_scale = int(reg_scales[int(rng.integers(len(reg_scales)))])
        tensor, _, _ = preprocess_frame(frame.image, input_scale, config.adascale.max_long_side)
        features = bundle.ms_detector.extract_features(tensor)
        prediction = regressor(features)
        target = np.asarray([optimal / max_scale], dtype=np.float32)
        _, grad, _ = mse_loss(prediction, target)
        optimizer.zero_grad()
        regressor.backward(grad)
        optimizer.step()
    return regressor


def test_ablation_relative_vs_absolute_target(benchmark, vid_bundle):
    """Compare Eq. 3's relative target against a naive absolute-scale target."""
    config = vid_bundle.config
    iterations = min(config.regressor.iterations, 300)
    absolute = _train_absolute_regressor(vid_bundle, iterations)
    max_scale = config.adascale.max_scale

    relative_errors = []
    absolute_errors = []
    for snippet in vid_bundle.val_dataset:
        for frame in snippet:
            oracle = optimal_scale_for_image(vid_bundle.ms_detector, frame, config.adascale)
            detection = vid_bundle.ms_detector.detect(
                frame.image, target_scale=max_scale, max_long_side=config.adascale.max_long_side
            )
            base_size = float(min(frame.image.shape[:2]) * detection.scale_factor)
            relative_prediction = vid_bundle.adascale.detect_frame(frame.image, max_scale).next_scale
            absolute_prediction = float(
                np.clip(absolute.predict(detection.features) * max_scale, config.adascale.min_scale, max_scale)
            )
            relative_errors.append(abs(relative_prediction - oracle.optimal_scale))
            absolute_errors.append(abs(absolute_prediction - oracle.optimal_scale))

    rows = [
        ["relative target (Eq. 3, paper)", f"{float(np.mean(relative_errors)):.1f}"],
        ["absolute target (ablation)", f"{float(np.mean(absolute_errors)):.1f}"],
    ]
    table = format_table(
        ["target coding", "mean |predicted − oracle| (px)"],
        rows,
        title="Ablation — relative (Eq. 3) vs absolute scale-regression target",
    )
    write_result(
        "ablation_target_coding",
        table,
        data={
            "relative_mean_abs_error_px": float(np.mean(relative_errors)),
            "absolute_mean_abs_error_px": float(np.mean(absolute_errors)),
        },
    )

    # Both regressors should produce finite, in-range predictions; the relative
    # coding should not be dramatically worse than the absolute one.
    assert float(np.mean(relative_errors)) <= float(np.mean(absolute_errors)) + 20.0

    frame = vid_bundle.val_dataset[0][0]
    detection = vid_bundle.ms_detector.detect(frame.image, target_scale=max_scale, max_long_side=config.adascale.max_long_side)
    benchmark(lambda: absolute.predict(detection.features))
