"""``video_adascale`` / ``video_fixed``: one closed-loop caller over the videos.

``video_adascale`` is Algorithm 1 (``AdaScaleDetector.detect_frame`` with the
predicted scale fed back, restarting at the maximum scale on every video);
``video_fixed`` is the control (``RFCNDetector.detect`` at the native scale:
one input shape, identity resize, no regressor).  The caller cycles over the
seeded videos until ``--seconds`` have passed and the first pass is complete.

The traced run alternates, video by video, between the plain call and the
same frame *composed* from the public stage calls the serving worker uses
(resize → normalize → backbone → RPN+head → regressor), one root span per
frame with one child span per layer.  Every repeated frame — composed or
plain — must be bit-identical to its first occurrence.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np
from repro.data.transforms import image_to_chw, normalize_image, resize_image
from repro.nn import im2col, inference_mode

from harness import measure
from harness.inputs import Sizes, experiment_config, load_bundle, render_videos
from harness.spans import SpanRecorder

#: The composed frame re-times the detection sub-calls on every Nth frame.
RETIME_EVERY = 4
UNACCOUNTED_LIMIT = 0.15


class _Caller:
    """The two ways one frame is run: the plain API call, or composed + traced."""

    def __init__(self, workload: str, bundle, config) -> None:
        self.adaptive = workload == "video_adascale"
        self.detector = bundle.ms_detector
        self.adascale = bundle.adascale
        self.max_long_side = config.adascale.max_long_side
        self.initial_scale = config.adascale.max_scale
        #: the frame's own ``detect_from_features_batch`` time on re-timed frames
        self.retimed_detect_s: list[float] = []
        #: distinct (height, width) of the tensors the composed frames fed the backbone
        self.input_shapes: set[tuple[int, int]] = set()

    def plain(self, image: np.ndarray, scale: int):
        """``(detection, next_scale)`` through the public one-call API."""
        if self.adaptive:
            output = self.adascale.detect_frame(image, scale)
            return output.detection, output.next_scale
        return self.detector.detect(image, scale, max_long_side=self.max_long_side), scale

    def composed(self, rec: SpanRecorder, trace: int, image: np.ndarray, scale: int, retime: bool):
        """The same frame from the stage calls, with one span per layer.

        Returns ``(detection, next_scale, root_duration_s)``.
        """
        clock = time.perf_counter
        image_size = (int(image.shape[0]), int(image.shape[1]))
        t0 = clock()
        resized = resize_image(image, scale, self.max_long_side)
        t1 = clock()
        tensor = image_to_chw(normalize_image(resized.image))
        t2 = clock()
        working_shape = resized.image.shape[:2]
        self.input_shapes.add(working_shape)
        with inference_mode():
            features = self.detector.extract_features(tensor)
            t3 = clock()
            detection = self.detector.detect_from_features_batch(
                features,
                working_shapes=[working_shape],
                scale_factors=[resized.scale_factor],
                image_sizes=[image_size],
                target_scales=[scale],
            )[0]
        t4 = clock()
        next_scale = scale
        if self.adaptive:
            next_scale = self.adascale.predict_next_scales([detection], [image_size])[0][0]
        t5 = clock()

        root = rec.add("frame", "bench", t0, t5, None, trace)
        rec.add("data.resize", "data", t0, t1, root, trace)
        rec.add("data.normalize", "data", t1, t2, root, trace)
        rec.add("nn.backbone", "nn", t2, t3, root, trace)
        rec.add("detection.detect", "detection", t3, t4, root, trace)
        if self.adaptive:
            rec.add("core.regress", "core", t4, t5, root, trace)
        if retime:
            self._retime_detection(rec, trace, features, working_shape, t4 - t3)
        return detection, next_scale, t5 - t0

    def _retime_detection(self, rec, trace, features, working_shape, detect_s: float) -> None:
        """Split ``detect_from_features_batch`` by re-running its sub-calls.

        Recorded under a ``retime`` root outside the frame span.  The frame's
        own detect duration is kept beside it, so post-processing time is
        (that duration − the three sub-calls).
        """
        clock = time.perf_counter
        with inference_mode():
            t0 = clock()
            rpn_outputs = self.detector.rpn.forward_batch(features)
            t1 = clock()
            proposals = self.detector.rpn.generate_proposals_batch(
                rpn_outputs, [tuple(working_shape)]
            )[0][0]
            t2 = clock()
            if proposals.shape[0]:
                self.detector.head_forward(
                    features, proposals, np.zeros(proposals.shape[0], dtype=np.int64)
                )
            t3 = clock()
        root = rec.add("retime", "bench", t0, t3, None, trace)
        rec.add("detection.rpn", "detection", t0, t1, root, trace)
        rec.add("detection.proposals", "detection", t1, t2, root, trace)
        rec.add("detection.head", "detection", t2, t3, root, trace)
        self.retimed_detect_s.append(detect_s)


def _cycle(videos: list[list]):
    """``(completed passes, video, frame index, frame)`` over the videos, forever."""
    passes = 0
    while True:
        for video_index, frames in enumerate(videos):
            for frame_index, frame in enumerate(frames):
                yield passes, video_index, frame_index, frame
        passes += 1


def _set_up(workload: str, seed: int, sizes: Sizes):
    """Fixture load → render → warm-up through the workload's own call path."""
    config = experiment_config(seed, sizes, quantize=False)
    bundle = load_bundle(config)
    videos = render_videos(bundle)
    caller = _Caller(workload, bundle, config)
    warmed = 0
    for frames in videos:
        if warmed >= sizes.warmup_frames:
            break
        scale = caller.initial_scale
        for frame in frames:
            _, scale = caller.plain(frame.image, scale)
            warmed += 1
    return bundle, videos, caller


def run(
    workload: str,
    seed: int,
    seconds: float,
    traced: bool,
    sizes: Sizes,
    import_s: float,
    rec: SpanRecorder | None,
) -> measure.Outcome:
    setup_times = []
    for _ in range(measure.SETUP_REPS):
        gc.collect()  # the previous set-up's cycles must not pad this run's peak RSS
        start = time.perf_counter()
        bundle, videos, caller = _set_up(workload, seed, sizes)
        setup_times.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(setup_times)

    first: dict[tuple[int, int], tuple] = {}  # (video, frame) -> (detection, next_scale, scale)
    mismatches = 0
    plain_s: list[float] = []
    composed_s: list[float] = []
    completions: list[float] = []
    proposals = 0
    min_passes = 2 if traced else 1
    plan_before = im2col.plan_cache_stats()

    clock = time.perf_counter
    start = clock()
    segments = measure.SegmentClock(start, seconds)
    deadline = start + seconds
    frames_run = 0
    for passes, video_index, frame_index, frame in _cycle(videos):
        if frame_index == 0:
            scale = caller.initial_scale
            compose = traced and (passes + video_index) % 2 == 0
        began = clock()
        if compose:
            detection, next_scale, took = caller.composed(
                rec, frames_run, frame.image, scale, frame_index % RETIME_EVERY == 0
            )
            composed_s.append(took)
            proposals += int(detection.proposals.shape[0])
            ended = clock()
        else:
            detection, next_scale = caller.plain(frame.image, scale)
            ended = clock()
            plain_s.append(ended - began)
        completions.append(ended)
        frames_run += 1
        seen = first.get((video_index, frame_index))
        if seen is None:
            first[(video_index, frame_index)] = (detection, next_scale, scale)
        elif not (measure.same_detections(detection, seen[0]) and next_scale == seen[1]):
            mismatches += 1
        scale = next_scale
        segments.tick(ended)
        if ended >= deadline and passes >= min_passes:
            break
    segments.close(clock())
    plan_after = im2col.plan_cache_stats()

    end_to_end, info = measure.end_to_end_metrics(
        setup_s=setup_s,
        latencies_s=plain_s,
        completion_times=completions,
        clock=segments,
    )
    # The loop only ends after a complete pass, so ``first`` holds every frame.
    checks = {"repeats_bit_identical": mismatches == 0}
    info.update(passes=passes, frames=frames_run, videos=len(videos))

    per_layer: dict[str, float] = {}
    if traced:
        records = [
            measure.record_of(first[(v, f)][0], frame)
            for v, frames in enumerate(videos)
            for f, frame in enumerate(frames)
        ]
        scales = [[first[(v, f)][2] for f in range(len(frames))] for v, frames in enumerate(videos)]
        native = min(videos[0][0].image.shape[:2])
        composed_frames = len(composed_s)

        def per_frame_ms(*names: str) -> float:
            return 1000.0 * sum(rec.total(name)[0] for name in names) / composed_frames

        retimed = len(caller.retimed_detect_s)
        sub_ms = {
            name: 1000.0 * rec.total(f"detection.{name}")[0] / retimed
            for name in ("rpn", "proposals", "head")
        }
        reference_ms = 1000.0 * sum(caller.retimed_detect_s) / retimed
        lookups = (plan_after["hits"] - plan_before["hits"]) + (
            plan_after["misses"] - plan_before["misses"]
        )
        unaccounted = rec.root_self_share("frame")
        per_layer = {
            **measure.scale_metrics(scales, native),
            "data.preprocess_ms_per_frame": per_frame_ms("data.resize", "data.normalize"),
            "nn.backbone_ms_per_frame": per_frame_ms("nn.backbone"),
            "nn.im2col_plan_hit_share": (
                (plan_after["hits"] - plan_before["hits"]) / lookups if lookups else 0.0
            ),
            "nn.im2col_plan_lookups_per_frame": lookups / frames_run,
            "nn.distinct_input_shapes": float(len(caller.input_shapes)),
            "detection.rpn_ms_per_frame": sub_ms["rpn"],
            "detection.proposals_ms_per_frame": sub_ms["proposals"],
            "detection.head_ms_per_frame": sub_ms["head"],
            "detection.postprocess_ms_per_frame": reference_ms - sum(sub_ms.values()),
            "detection.proposals_per_frame": proposals / composed_frames,
            "detection.detections_per_frame": float(
                np.mean([len(first[key][0].boxes) for key in first])
            ),
            "core.regress_ms_per_frame": per_frame_ms("core.regress"),
            "core.map_pct": measure.map_pct(records, bundle.class_names),
            "bench.unaccounted_share": unaccounted,
            "bench.traced_throughput_fps": composed_frames / sum(composed_s),
            "bench.trace_overhead_share": 1.0
            - (composed_frames / sum(composed_s)) / (len(plain_s) / sum(plain_s)),
        }
        checks["spans_parent_correctly"] = rec.check_parenting()
        checks["unaccounted_share_within_limit"] = unaccounted <= UNACCOUNTED_LIMIT
        info.update(composed_frames=composed_frames, retimed_frames=retimed)

    return measure.Outcome(
        attempted=frames_run,
        failed=0,
        checks=checks,
        end_to_end=end_to_end,
        per_layer=per_layer,
        info=info,
    )
