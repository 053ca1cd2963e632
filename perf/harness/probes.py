"""Single-layer probes run at the end of every traced run.

A probe calls one layer's public function in isolation, so its number
characterises the code and the machine, not the workload: the same probes run
after every workload's traced window.  Each reports a median.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from repro.cluster.ipc import BufferStream, FramedChannel, Submit
from repro.data.transforms import image_to_chw, normalize_image, resize_image
from repro.nn import inference_mode
from repro.serving.request import FrameRequest
from repro.serving.scheduler import FrameScheduler

from harness.inputs import Sizes, experiment_config, load_bundle, render_videos

PROBE_SCALES = (128, 96, 72, 48)
BATCH_PROBE_SCALE = 96
SCHEDULER_PROBE_STREAMS = 24
WARMUP_CALLS = 3


def _backbone(
    bundle, image: np.ndarray, max_long_side: int, iterations: int
) -> dict[str, list[float]]:
    """``extract_features`` alone: one frame at each scale, and a stack of four.

    Returns the per-call samples (ms per frame) under each metric's name.
    """

    def tensor_at(scale: int) -> np.ndarray:
        return image_to_chw(normalize_image(resize_image(image, scale, max_long_side).image))

    inputs = {f"nn.backbone_ms_at_scale.{scale}": tensor_at(scale) for scale in PROBE_SCALES}
    inputs["nn.backbone_batch4_ms_per_frame"] = np.concatenate(
        [tensor_at(BATCH_PROBE_SCALE)] * 4, axis=0
    )
    samples: dict[str, list[float]] = {name: [] for name in inputs}
    with inference_mode():
        # Round-robin over the inputs so drift in machine speed hits them alike.
        for iteration in range(WARMUP_CALLS + iterations):
            for name, tensor in inputs.items():
                start = time.perf_counter()
                bundle.ms_detector.extract_features(tensor)
                took = time.perf_counter() - start
                if iteration >= WARMUP_CALLS:
                    samples[name].append(1000.0 * took / tensor.shape[0])
    return samples


def _scheduler(rounds: int) -> float:
    """``FrameScheduler`` alone: submit → ``next_batch`` → ``task_done``, no detector."""
    scheduler = FrameScheduler(
        queue_capacity=64, backpressure="block", max_batch_size=4, batch_wait_s=0.002
    )
    image = np.zeros((1, 1, 3), dtype=np.float32)
    per_round_us = []
    for frame_index in range(rounds):
        start = time.perf_counter()
        for stream in range(SCHEDULER_PROBE_STREAMS):
            scheduler.submit(
                FrameRequest(
                    stream_id=stream, frame_index=frame_index, image=image, scale=BATCH_PROBE_SCALE
                )
            )
        served = 0
        while served < SCHEDULER_PROBE_STREAMS:
            batch = scheduler.next_batch(timeout=1.0)
            for request in batch:
                scheduler.task_done(request.stream_id)
            served += len(batch)
        per_round_us.append(1e6 * (time.perf_counter() - start) / SCHEDULER_PROBE_STREAMS)
    scheduler.close()
    return statistics.median(per_round_us)


def _ipc_codec(image: np.ndarray, iterations: int) -> dict[str, float]:
    """``FramedChannel.send`` + ``recv`` of one frame-carrying ``Submit``, in memory."""
    message = Submit(stream_id=0, frame_index=0, image=image)
    sizing = BufferStream()
    FramedChannel(sizing).send(message)
    wire_bytes = len(sizing.read(1 << 30))
    channel = FramedChannel(BufferStream())
    samples_us = []
    for iteration in range(WARMUP_CALLS + iterations):
        start = time.perf_counter()
        channel.send(message)
        echoed = channel.recv()
        took = time.perf_counter() - start
        if iteration >= WARMUP_CALLS:
            samples_us.append(1e6 * took)
    if not np.array_equal(echoed.image, image):
        raise RuntimeError("FramedChannel round trip changed the frame")
    return {
        "cluster.ipc_codec_us_per_frame": statistics.median(samples_us),
        "cluster.ipc_bytes_per_frame": float(wire_bytes),
    }


def _adascale_vs_fixed(bundle, config, videos: list[list]) -> float:
    """Median frame time of Algorithm 1 ÷ fixed-scale detection, interleaved per video."""
    adascale = bundle.adascale
    detector = bundle.ms_detector
    max_scale = config.adascale.max_scale
    max_long_side = config.adascale.max_long_side
    adaptive_ms: list[float] = []
    fixed_ms: list[float] = []
    for frames in videos:
        scale = max_scale
        for frame in frames:
            start = time.perf_counter()
            scale = adascale.detect_frame(frame.image, scale).next_scale
            adaptive_ms.append(1000.0 * (time.perf_counter() - start))
        for frame in frames:
            start = time.perf_counter()
            detector.detect(frame.image, max_scale, max_long_side=max_long_side)
            fixed_ms.append(1000.0 * (time.perf_counter() - start))
    return statistics.median(adaptive_ms) / statistics.median(fixed_ms)


def run_all(seed: int, sizes: Sizes) -> tuple[dict[str, float], dict[str, bool]]:
    """Every probe's metrics, plus the checks the probes themselves make."""
    config = experiment_config(seed, sizes, quantize=False)
    bundle = load_bundle(config)
    videos = render_videos(bundle, sizes.ratio_probe_videos)
    image = videos[0][0].image
    backbone = _backbone(bundle, image, config.adascale.max_long_side, sizes.probe_iterations)
    metrics = {name: statistics.median(samples) for name, samples in backbone.items()}
    metrics["serving.scheduler_probe_us_per_frame"] = _scheduler(sizes.scheduler_probe_rounds)
    metrics.update(_ipc_codec(image, sizes.probe_iterations))
    metrics["core.adascale_vs_fixed_ms_ratio"] = _adascale_vs_fixed(bundle, config, videos)
    # Checked on the minima: interference can only inflate a sample, so the
    # fastest call per scale orders the scales even when the medians are noisy.
    fastest = [min(backbone[f"nn.backbone_ms_at_scale.{scale}"]) for scale in PROBE_SCALES]
    checks = {"backbone_probe_monotone_in_scale": fastest == sorted(fastest, reverse=True)}
    return metrics, checks
