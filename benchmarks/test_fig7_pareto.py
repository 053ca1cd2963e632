"""Fig. 7: speed/accuracy Pareto frontier — R-FCN, DFF, Seq-NMS and + AdaScale.

Paper reference: the R-FCN baseline runs at 74.2 mAP / 13.3 FPS; adding
AdaScale to R-FCN, DFF and Seq-NMS shifts each point up and to the right
(DFF + AdaScale gains an extra ~1.25x speed-up, Seq-NMS + AdaScale ~1.61x, at
equal or slightly better mAP).
"""

from __future__ import annotations

import numpy as np

from conftest import write_result
from repro.acceleration import AdaScaleDFFDetector, DFFDetector, adascale_with_seqnms, seq_nms
from repro.evaluation import DetectionRecord, evaluate_detections, format_table

KEY_FRAME_INTERVAL = 3


def _evaluate(records, runtimes, dataset):
    result = evaluate_detections(records, dataset.class_names)
    mean_ms = 1000.0 * float(np.mean(runtimes))
    return 100.0 * result.mean_ap, mean_ms


def test_fig7_pareto(benchmark, vid_bundle):
    """Regenerate the six Pareto points of Fig. 7."""
    config = vid_bundle.config.adascale
    dataset = vid_bundle.val_dataset
    detector = vid_bundle.ms_detector
    adascale = vid_bundle.adascale
    max_scale = config.max_scale

    points: dict[str, tuple[float, float]] = {}

    # R-FCN at the fixed maximum scale and R-FCN + AdaScale, interleaved
    # snippet by snippet after one warm-up frame: the two means are compared
    # by the paper-claim gate below, so first-touch costs and machine-speed
    # drift must land on both alike.
    warmup = dataset[0].frames()[0].image
    detector.detect(warmup, target_scale=max_scale, max_long_side=config.max_long_side)
    rfcn_records, rfcn_runtimes = [], []
    rfcn_by_snippet: dict[int, list[DetectionRecord]] = {}
    ada_records, ada_runtimes, ada_scales = [], [], []
    for snippet in dataset:
        rfcn_by_snippet[snippet.snippet_id] = []
        for frame in snippet:
            result = detector.detect(frame.image, target_scale=max_scale, max_long_side=config.max_long_side)
            record = DetectionRecord(
                result.boxes, result.scores, result.class_ids, frame.boxes, frame.labels,
                frame_id=(frame.snippet_id, frame.frame_index),
            )
            rfcn_records.append(record)
            rfcn_by_snippet[snippet.snippet_id].append(record)
            rfcn_runtimes.append(result.runtime_s)
        frames = snippet.frames()
        video = adascale.process_video(frames)
        ada_records.extend(video.to_records(frames))
        ada_runtimes.extend(video.runtimes_s)
        ada_scales.extend(video.scales_used)
    points["R-FCN"] = _evaluate(rfcn_records, rfcn_runtimes, dataset)
    points["AdaScale"] = _evaluate(ada_records, ada_runtimes, dataset)
    mean_scale = float(np.mean(ada_scales))
    ms_ratio = points["AdaScale"][1] / points["R-FCN"][1]

    # DFF at the fixed maximum scale.
    dff = DFFDetector(detector, key_frame_interval=KEY_FRAME_INTERVAL, config=config)
    dff_records, dff_runtimes = [], []
    for snippet in dataset:
        frames = snippet.frames()
        output = dff.process_video(frames, scale=max_scale)
        dff_records.extend(output.to_records(frames))
        dff_runtimes.extend(output.runtimes_s)
    points["DFF"] = _evaluate(dff_records, dff_runtimes, dataset)

    # DFF + AdaScale (adaptive key-frame scale).
    combo = AdaScaleDFFDetector(detector, vid_bundle.regressor, key_frame_interval=KEY_FRAME_INTERVAL, config=config)
    combo_records, combo_runtimes = [], []
    for snippet in dataset:
        frames = snippet.frames()
        output = combo.process_video(frames)
        combo_records.extend(output.to_records(frames))
        combo_runtimes.extend(output.runtimes_s)
    points["DFF+AdaScale"] = _evaluate(combo_records, combo_runtimes, dataset)

    # Seq-NMS over the fixed-scale R-FCN detections (post-processing).
    import time

    seq_records, seq_runtimes = [], []
    cursor = 0
    for snippet in dataset:
        snippet_records = rfcn_by_snippet[snippet.snippet_id]
        start = time.perf_counter()
        rescored = seq_nms(snippet_records, num_classes=dataset.num_classes)
        per_frame_cost = (time.perf_counter() - start) / max(len(snippet_records), 1)
        seq_records.extend(rescored)
        for _ in snippet_records:
            seq_runtimes.append(rfcn_runtimes[cursor] + per_frame_cost)
            cursor += 1
    points["SeqNMS"] = _evaluate(seq_records, seq_runtimes, dataset)

    # Seq-NMS + AdaScale.
    both_records, both_runtimes = [], []
    for snippet in dataset:
        frames = snippet.frames()
        rescored, per_frame, _ = adascale_with_seqnms(adascale, frames, num_classes=dataset.num_classes)
        both_records.extend(rescored)
        both_runtimes.extend(per_frame)
    points["SeqNMS+AdaScale"] = _evaluate(both_records, both_runtimes, dataset)

    rows = [
        [name, f"{map_pct:.1f}", f"{ms:.1f}", f"{1000.0 / ms:.1f}"]
        for name, (map_pct, ms) in points.items()
    ]
    table = format_table(
        ["Method", "mAP(%)", "ms/frame", "FPS"],
        rows,
        title=f"Fig. 7 — speed/accuracy Pareto (DFF key-frame interval {KEY_FRAME_INTERVAL})",
    )
    note = (
        "Paper reference: R-FCN 74.2 mAP @ 13.3 FPS; AdaScale variants shift every method "
        "toward higher FPS at equal or better mAP (extra 1.25x over DFF, 1.61x over Seq-NMS).\n"
        f"AdaScale mean scale {mean_scale:.1f} (max {max_scale}): {ms_ratio:.2f}x R-FCN's ms/frame."
    )
    write_result(
        "fig7_pareto",
        table + "\n\n" + note,
        data={
            "points": {
                name: {"map_pct": float(map_pct), "ms_per_frame": float(ms)}
                for name, (map_pct, ms) in points.items()
            },
            "adascale_mean_scale": mean_scale,
            "adascale_vs_rfcn_ms_ratio": ms_ratio,
        },
    )

    # Shape checks: Seq-NMS post-processing never hurts, and the AdaScale+DFF
    # combination stays in the same runtime class as plain R-FCN.  The margin
    # is deliberately loose — it only catches order-of-class regressions: the
    # profile-guided hot-path pass (im2col plan cache, strided unfold, anchor
    # cache, scratch buffers) accelerates the conv-heavy full-detection
    # baseline more than DFF's flow+warp path, so at these reduced
    # resolutions DFF's relative advantage is smaller than the paper's
    # full-resolution setting, and the two single-sample wall-clock means
    # jitter independently under full-suite load.
    assert points["SeqNMS"][0] >= points["R-FCN"][0] - 1.0
    assert points["DFF+AdaScale"][1] <= points["R-FCN"][1] * 2.0
    # The paper's headline (ROADMAP item 1): whenever AdaScale chose smaller
    # scales on average it must not be slower than fixed-scale R-FCN.  The
    # 10% margin absorbs single-sample wall-clock jitter; measured ≈0.9.
    # "Smaller" means ≥ 5% below the maximum: the regressor itself costs ~8%
    # of a frame, and a smoke-trained (FAST) regressor that stays within a
    # pixel or two of the maximum scale has nothing to pay for it with.
    if mean_scale <= 0.95 * max_scale:
        assert ms_ratio <= 1.10, (
            f"AdaScale {points['AdaScale'][1]:.2f} ms/frame at mean scale {mean_scale:.1f} vs "
            f"R-FCN {points['R-FCN'][1]:.2f} ms/frame at scale {max_scale}"
        )

    # Benchmark one DFF non-key frame (flow + warp + head), the cheap path of Fig. 7.
    snippet = dataset[0]
    frames = snippet.frames()[:2]
    benchmark(lambda: dff.process_video(frames, scale=max_scale))
