"""Benchmark inputs: the committed weight fixture and the seeded videos.

Model weights are benchmark *inputs*: they are read from
``perf/fixtures/vid_seed0`` (a copy of the tracked ``vid`` preset bundle,
checked against a sha256 manifest at every load), so a later retrain or
cache refresh cannot shift the scale mix under the benchmark.  Everything
else — the videos, arrival phases and the cluster trace — is generated from
``--seed``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent.parent
REPO_ROOT = PERF_DIR.parent
FIXTURE_DIR = PERF_DIR / "fixtures" / "vid_seed0"
OUT_DIR = PERF_DIR / "out"


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one run (``--smoke`` shrinks them to finish in seconds)."""

    #: generated videos × frames each; every workload draws on this one set
    videos: int = 24
    frames_per_video: int = 12
    #: frames pushed through the same call path before any timed window
    warmup_frames: int = 96
    #: serve_open: streams × per-stream arrival rate (jittered uniform arrivals)
    open_streams: int = 8
    open_rate_fps: float = 6.0
    #: serve_saturated: streams submitted round-robin under ``block``
    saturated_streams: int = 24
    #: cluster_process: ``steady`` trace length (virtual seconds at 30 fps
    #: per stream, compressed by ``time_scale``)
    cluster_streams: int = 8
    cluster_trace_s: float = 1.0
    #: iterations of each single-call probe (median reported)
    probe_iterations: int = 30
    scheduler_probe_rounds: int = 80
    ratio_probe_videos: int = 8


SMOKE_SIZES = Sizes(
    videos=6,
    frames_per_video=6,
    warmup_frames=12,
    open_streams=4,
    open_rate_fps=10.0,
    saturated_streams=6,
    cluster_streams=2,
    cluster_trace_s=0.5,
    probe_iterations=15,
    scheduler_probe_rounds=5,
    ratio_probe_videos=2,
)


def verify_fixture() -> None:
    """Raise unless every fixture file matches ``MANIFEST.sha256``."""
    manifest = FIXTURE_DIR / "MANIFEST.sha256"
    entries = [line.split() for line in manifest.read_text().splitlines() if line.strip()]
    if not entries:
        raise RuntimeError(f"{manifest} lists no files")
    for digest, name in entries:
        actual = hashlib.sha256((FIXTURE_DIR / name).read_bytes()).hexdigest()
        if actual != digest:
            raise RuntimeError(
                f"fixture {name} does not match its manifest "
                f"(sha256 {actual[:12]}… != {digest[:12]}…)"
            )


def experiment_config(seed: int, sizes: Sizes, *, quantize: bool):
    """The ``vid`` preset with seeded videos and the benchmark's server shape.

    ``quantize`` snaps predicted scales to the regressor's scale set — what
    the serving and cluster workloads deploy so scheduler buckets coincide;
    the single-stream video workloads keep Algorithm 1's continuous scales.
    """
    from repro import api

    config = api.load_experiment_config("vid")
    return config.with_(
        dataset=config.dataset.with_(
            seed=int(seed),
            num_val_snippets=sizes.videos,
            frames_per_snippet=sizes.frames_per_video,
            num_train_snippets=1,
        ),
        adascale=config.adascale.with_(quantize_predicted_scale=quantize),
        serving=config.serving.with_(
            num_workers=2, max_batch_size=4, queue_capacity=64, backpressure="block"
        ),
    )


def load_bundle(config):
    """Detector + regressor from the fixture, datasets regenerated from ``config``."""
    from repro import api

    verify_fixture()
    return api.Pipeline.from_bundle(FIXTURE_DIR, config).bundle


def render_videos(bundle, count: int | None = None) -> list[list]:
    """Render the first ``count`` seeded videos (lists of ``VideoFrame``)."""
    snippets = list(bundle.val_dataset)
    if count is not None:
        snippets = snippets[:count]
    return [snippet.frames() for snippet in snippets]
