"""Shared fixtures for the benchmark harness.

Every table and figure of the paper is regenerated by one benchmark module.
They all share the expensive artefacts — the trained detectors, the
optimal-scale labels and the scale regressor — through session-scoped fixtures
that are cached on disk under ``benchmarks/.cache`` so repeated benchmark runs
skip training.

Environment knobs:

* ``REPRO_BENCH_FAST=1`` — shrink training schedules (useful for smoke runs).
* ``REPRO_BENCH_CACHE=<dir>`` — override the cache directory.
* ``REPRO_BENCH_RESULTS=<dir>`` — where results are written.  ``repro bench``
  always sets it (``benchmarks/results`` unless ``--results-dir`` says
  otherwise); a plain ``pytest`` run writes under the cache directory, so
  running the suite never rewrites the committed results.

Every ``write_result`` call also emits a schema-versioned, machine-readable
``BENCH_<name>.json`` next to the ``.txt`` table (see
:mod:`repro.profiling.benchjson`); pass ``data=`` with the benchmark's
structured metrics so the CI regression gates have something to hold on to.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Mapping

import pytest

from repro import api
from repro.config import ExperimentConfig
from repro.core.pipeline import ExperimentBundle
from repro.data.mini_ytbb import MiniYTBB
from repro.data.synthetic_vid import SyntheticVID
from repro.profiling import write_bench_json

BENCH_DIR = Path(__file__).parent
CACHE_DIR = Path(os.environ.get("REPRO_BENCH_CACHE", BENCH_DIR / ".cache"))
RESULTS_DIR = Path(os.environ.get("REPRO_BENCH_RESULTS", CACHE_DIR / "results"))
FAST = os.environ.get("REPRO_BENCH_FAST", "") not in ("", "0", "false")


def _maybe_fast(config: ExperimentConfig) -> ExperimentConfig:
    if not FAST:
        return config
    return config.with_(
        training=config.training.with_(iterations=120, lr_decay_at=(90,)),
        regressor=config.regressor.with_(iterations=80, lr_decay_at=(60,)),
        dataset=config.dataset.with_(num_train_snippets=8, num_val_snippets=4),
    )


def load_or_train_bundle(
    name: str, config: ExperimentConfig, dataset_cls: type[SyntheticVID]
) -> ExperimentBundle:
    """Load a cached bundle or train it from scratch and cache it."""
    cache_path = CACHE_DIR / name
    if (cache_path / "ms_detector.npz").exists():
        try:
            return api.Pipeline.from_bundle(cache_path, config, dataset_cls).bundle
        except (KeyError, ValueError):
            # Cache belongs to an older configuration — retrain below.
            pass
    pipeline = api.Pipeline.from_config(config, dataset=dataset_cls)
    bundle = pipeline.run()
    bundle.save(cache_path)
    return bundle


def write_result(
    name: str,
    text: str,
    data: Mapping[str, Any] | None = None,
    profile: Any | None = None,
) -> Path:
    """Persist a benchmark's report under ``RESULTS_DIR``.

    Writes the human-readable ``<name>.txt`` table plus the machine-readable
    ``BENCH_<name>.json`` artefact.  ``data`` carries the structured metrics
    (throughput, percentiles, occupancy, table rows); ``profile`` may be a
    :class:`repro.profiling.StageProfiler` whose per-stage breakdown is
    embedded under the payload's ``profile`` key.
    """
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    write_bench_json(RESULTS_DIR, name, data=data, fast=FAST, profile=profile)
    # Also echo to stdout so `pytest -s` shows the tables inline.
    print(f"\n===== {name} =====\n{text}\n")
    return path


@pytest.fixture(scope="session")
def vid_config() -> ExperimentConfig:
    """Benchmark configuration for the ImageNet-VID stand-in."""
    return _maybe_fast(api.EXPERIMENT_PRESETS.get("vid").build_config(seed=0))


@pytest.fixture(scope="session")
def ytbb_config() -> ExperimentConfig:
    """Benchmark configuration for the mini-YouTube-BB stand-in."""
    return _maybe_fast(api.EXPERIMENT_PRESETS.get("ytbb").build_config(seed=0))


@pytest.fixture(scope="session")
def vid_bundle(vid_config: ExperimentConfig) -> ExperimentBundle:
    """Trained bundle on SyntheticVID (used by Table 1a and most figures)."""
    return load_or_train_bundle("vid_seed0", vid_config, SyntheticVID)


@pytest.fixture(scope="session")
def ytbb_bundle(ytbb_config: ExperimentConfig) -> ExperimentBundle:
    """Trained bundle on MiniYTBB (used by Table 1b)."""
    return load_or_train_bundle("ytbb_seed0", ytbb_config, MiniYTBB)


@pytest.fixture(scope="session")
def vid_method_results(vid_bundle: ExperimentBundle):
    """Evaluation of the five paper methods on the VID validation split.

    Shared by Table 1a, Fig. 5, Fig. 6 and Fig. 10 so each method is evaluated
    exactly once per benchmark session.
    """
    from repro.core.pipeline import METHODS

    return vid_bundle.evaluate_methods(METHODS)
