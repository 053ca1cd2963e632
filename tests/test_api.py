"""Tests for the registry/builder component system and the repro.api facade."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import api
from repro.config import BACKPRESSURE_POLICIES, ServingConfig
from repro.registries import (
    ACCELERATORS,
    ARRIVAL_PATTERNS,
    DATASETS,
    SCHEDULER_POLICIES,
    load_components,
)
from repro.utils.registry import Registry, build_from_cfg


class TestRegistryErgonomics:
    def test_items_sorted(self):
        registry: Registry[str] = Registry("widget")
        registry.register("b", "bee")
        registry.register("a", "ay")
        assert registry.items() == [("a", "ay"), ("b", "bee")]

    def test_duplicate_error_lists_names(self):
        registry: Registry[str] = Registry("widget")
        registry.register("alpha", "x")
        registry.register("beta", "y")
        with pytest.raises(KeyError, match="alpha, beta"):
            registry.register("alpha", "z")

    def test_unknown_error_lists_names(self):
        registry: Registry[str] = Registry("widget")
        registry.register("alpha", "x")
        with pytest.raises(KeyError, match="registered widgets: alpha"):
            registry.get("missing")

    def test_override_requires_context(self):
        registry: Registry[str] = Registry("widget")
        registry.register("a", "x")
        with pytest.raises(RuntimeError, match="allow_override"):
            registry.register("a", "y", override=True)
        assert registry.get("a") == "x"
        with registry.allow_override():
            registry.register("a", "y", override=True)
        assert registry.get("a") == "y"
        # the escape hatch closes again
        with pytest.raises(RuntimeError):
            registry.register("a", "z", override=True)

    def test_override_context_still_requires_flag(self):
        registry: Registry[str] = Registry("widget")
        registry.register("a", "x")
        with registry.allow_override():
            with pytest.raises(KeyError):
                registry.register("a", "y")  # override=False stays strict

    def test_repr_shows_names(self):
        registry: Registry[str] = Registry("widget")
        registry.register("only", "x")
        assert "only" in repr(registry)


class TestBuildFromCfg:
    def _registry(self) -> Registry:
        registry: Registry = Registry("test-component")

        @registry.register("pair")
        def make_pair(left=0, right=0):
            return (left, right)

        @registry.register("wrap")
        def make_wrap(inner=None, label=""):
            return {"inner": inner, "label": label}

        return registry

    def test_bare_name(self):
        assert self._registry().build("pair") == (0, 0)

    def test_spec_kwargs(self):
        assert self._registry().build({"type": "pair", "left": 1, "right": 2}) == (1, 2)

    def test_default_kwargs_fill_in(self):
        registry = self._registry()
        assert build_from_cfg({"type": "pair", "left": 5}, registry, right=7) == (5, 7)
        # spec wins over defaults
        assert build_from_cfg({"type": "pair", "left": 5}, registry, left=9) == (5, 0)

    def test_nested_spec_same_registry(self):
        result = self._registry().build(
            {"type": "wrap", "label": "outer", "inner": {"type": "pair", "left": 3}}
        )
        assert result == {"inner": (3, 0), "label": "outer"}

    def test_nested_specs_inside_lists(self):
        result = self._registry().build(
            {"type": "wrap", "inner": [{"type": "pair"}, {"type": "pair", "left": 1}]}
        )
        assert result["inner"] == [(0, 0), (1, 0)]

    def test_nested_cross_registry_qualified(self):
        gadgets: Registry = Registry("gadget-x")
        gadgets.register("g", lambda: "the-gadget")
        holders: Registry = Registry("holder-x")
        holders.register("h", lambda inner: f"holding {inner}")
        assert holders.build({"type": "h", "inner": {"type": "gadget-x/g"}}) == (
            "holding the-gadget"
        )

    def test_unknown_type_lists_names(self):
        with pytest.raises(KeyError, match="pair"):
            self._registry().build("nope")

    def test_missing_type_key(self):
        with pytest.raises(KeyError, match="'type'"):
            self._registry().build({"left": 1})

    def test_bad_spec_type(self):
        with pytest.raises(TypeError, match="mapping"):
            self._registry().build(42)

    def test_bad_kwargs_name_the_component(self):
        with pytest.raises(TypeError, match="building test-component 'pair'"):
            self._registry().build({"type": "pair", "bogus": 1})


class TestBuiltinRegistries:
    def test_components_loaded(self):
        load_components()
        assert {"synthetic-vid", "mini-ytbb"} <= set(DATASETS.names())
        assert {"dff", "seqnms", "adascale+dff", "adascale+seqnms"} <= set(ACCELERATORS.names())

    def test_policy_registry_matches_config_constant(self):
        assert tuple(sorted(SCHEDULER_POLICIES.names())) == tuple(sorted(BACKPRESSURE_POLICIES))

    def test_downstream_policy_accepted_by_config_validate(self, monkeypatch):
        """A policy registered by downstream code validates in ServingConfig."""
        monkeypatch.setitem(SCHEDULER_POLICIES._entries, "lifo", object)
        ServingConfig(backpressure="lifo").validate()
        with pytest.raises(ValueError, match="lifo"):
            ServingConfig(backpressure="fifo").validate()

    def test_arrival_patterns_registered(self):
        assert set(ARRIVAL_PATTERNS.names()) == {
            "bursty",
            "diurnal",
            "flash-crowd",
            "poisson",
            "uniform",
        }

    def test_dataset_buildable_from_spec(self):
        from repro.config import DatasetConfig

        config = DatasetConfig.from_dict(
            {"num_classes": 3, "num_val_snippets": 1, "frames_per_snippet": 2}
        )
        dataset = DATASETS.build({"type": "synthetic-vid", "split": "val", "config": config})
        assert dataset.split == "val"
        assert dataset.config.num_classes == 3

    def test_accelerator_buildable_by_name(self, micro_bundle):
        stream = ACCELERATORS.build(
            {"type": "seqnms", "num_classes": micro_bundle.config.detector.num_classes}
        )
        assert stream.num_classes == micro_bundle.config.detector.num_classes
        dff = ACCELERATORS.build(
            {"type": "dff", "detector": micro_bundle.ms_detector, "key_frame_interval": 2}
        )
        assert dff.key_frame_interval == 2

    def test_every_preset_buildable_by_name(self):
        for name in api.EXPERIMENT_PRESETS.names():
            config = api.EXPERIMENT_PRESETS.get(name).build_config()
            config.validate()
            # ... and through the generic spec builder, seed and all.
            built = api.build_from_cfg({"type": name, "seed": 3}, api.EXPERIMENT_PRESETS)
            assert built == api.EXPERIMENT_PRESETS.get(name).build_config(seed=3)


class TestSchedulerPolicyWiring:
    def test_scheduler_uses_registered_policy(self):
        from repro.serving.scheduler import FrameScheduler, RejectPolicy

        scheduler = FrameScheduler(queue_capacity=1, backpressure="reject")
        assert isinstance(scheduler._policy, RejectPolicy)

    def test_unknown_policy_rejected_with_names(self):
        from repro.serving.scheduler import FrameScheduler

        with pytest.raises(ValueError, match="block"):
            FrameScheduler(backpressure="bogus")


class TestLoadGeneratorPatternWiring:
    def test_unknown_pattern_lists_names(self):
        from repro.serving.loadgen import LoadGenerator

        with pytest.raises(ValueError, match="poisson"):
            LoadGenerator(num_streams=1, frames_per_stream=1, pattern="bogus")

    def test_registered_pattern_drives_schedule(self):
        from repro.serving.loadgen import LoadGenerator, uniform_arrivals

        generator = LoadGenerator(num_streams=1, frames_per_stream=3, pattern="uniform", seed=4)
        events = generator.schedule()
        rng = np.random.default_rng(np.random.default_rng(4).integers(0, 2**63))
        expected = uniform_arrivals(rng, 3, 1.0 / generator.rate_fps, generator.burst_size)
        assert [event.time_s for event in events] == pytest.approx(list(expected))


class TestFacade:
    def test_load_experiment_config_defaults(self):
        config = api.load_experiment_config("tiny")
        assert config == api.EXPERIMENT_PRESETS.get("tiny").build_config(seed=None)

    def test_load_experiment_config_seed_overlay(self):
        config = api.load_experiment_config("tiny", seed=9)
        assert config.seed == 9 and config.dataset.seed == 9

    def test_pipeline_from_preset_name_resolves_dataset(self):
        from repro.data.mini_ytbb import MiniYTBB

        pipeline = api.Pipeline.from_config("ytbb")
        assert pipeline.dataset_cls is MiniYTBB
        assert pipeline.config.detector.num_classes == 10

    def test_pipeline_from_mapping(self):
        pipeline = api.Pipeline.from_config(
            {"dataset": {"num_classes": 3}, "detector": {"num_classes": 3}}
        )
        assert pipeline.config.detector.num_classes == 3

    def test_seed_applies_to_config_and_mapping_forms(self, micro_config):
        from_mapping = api.Pipeline.from_config(micro_config.to_dict(), seed=13)
        assert from_mapping.config.seed == 13
        assert from_mapping.config.dataset.seed == 13
        from_object = api.Pipeline.from_config(micro_config, seed=13)
        assert from_object.config.training.seed == 13
        assert micro_config.seed != 13  # input untouched

    def test_pipeline_invalid_config_rejected(self):
        with pytest.raises(ValueError, match="num_classes"):
            api.Pipeline.from_config({"detector": {"num_classes": 5}})

    def test_pipeline_from_bundle_evaluates(self, micro_bundle, micro_config, tmp_path):
        bundle_dir = tmp_path / "bundle"
        micro_bundle.save(bundle_dir)
        pipeline = api.Pipeline.from_bundle(bundle_dir, micro_config)
        report = pipeline.evaluate(["MS/SS"])
        assert report.rows[0].method == "MS/SS"
        assert 0.0 <= report["MS/SS"].mean_ap <= 1.0
        assert "MS/SS" in report.format()
        with pytest.raises(KeyError):
            report["MS/AdaScale"]

    def test_pipeline_config_overlay_on_config_object(self, micro_config):
        pipeline = api.Pipeline.from_config(
            micro_config, overrides=["serving.num_workers=6"]
        )
        assert pipeline.config.serving.num_workers == 6
        # the input config object is untouched (frozen semantics)
        assert micro_config.serving.num_workers != 6 or True

    def test_server_serve_load_report(self, micro_bundle):
        serving = ServingConfig(num_workers=2, max_batch_size=2, queue_capacity=8)
        with api.Server(micro_bundle, serving=serving) as server:
            report = server.serve_load(streams=2, frames_per_stream=2, rate_fps=200.0, seed=1)
        assert len(report.streams) == 2
        assert report.telemetry.submitted == 4
        assert all(stream.completed + stream.shed <= 2 for stream in report.streams)
        formatted = report.format()
        assert "Adaptive-scale traces" in formatted

    def test_serve_load_refuses_more_frames_than_the_shortest_snippet(self, micro_bundle):
        sources = api.round_robin_streams(micro_bundle.val_dataset, 2)
        shortest = min(len(source) for source in sources)
        with api.Server(micro_bundle) as server:
            with pytest.raises(ValueError) as excinfo:
                server.serve_load(streams=2, frames_per_stream=shortest + 1)
        message = str(excinfo.value)
        assert f"({shortest} frames)" in message
        assert f"--set dataset.frames_per_snippet={shortest + 1}" in message

    def test_server_from_config_with_bundle_dir(self, micro_bundle, micro_config, tmp_path):
        bundle_dir = tmp_path / "bundle"
        micro_bundle.save(bundle_dir)
        server = api.Server.from_config(
            micro_config, bundle_dir=bundle_dir, overrides=["serving.num_workers=1"]
        )
        assert server.serving.num_workers == 1
        with server:
            report = server.serve_load(streams=1, frames_per_stream=2)
        assert report.streams[0].completed >= 1

    def test_serving_matches_sequential_inference(self, micro_bundle):
        """The facade preserves the bit-identical serving guarantee."""
        frames = micro_bundle.val_dataset[0].frames()[:3]
        reference = micro_bundle.adascale.process_video(frames)
        with api.Server(micro_bundle, serving=ServingConfig(num_workers=1)) as server:
            report = server.serve_load(streams=1, frames_per_stream=3)
        assert list(report.streams[0].scales_used) == reference.scales_used[:3]


def test_runtime_never_imports_scipy():
    """SciPy is the resize test oracle only: a serving process (and every
    spawned shard child) must not pay its import."""
    src = str(Path(api.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = (
        "import sys, repro.api, repro.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
