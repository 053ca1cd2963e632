"""Tests for repro.utils (seeding, registry, checkpoints, logging)."""

from __future__ import annotations

import logging
import re

import numpy as np
import pytest

from repro.utils import (
    Registry,
    get_logger,
    load_params,
    new_rng,
    save_params,
    seed_everything,
)
from repro.utils.checkpoint import load_json, save_json
from repro.utils.seeding import spawn_rngs


class TestSeeding:
    def test_seed_everything_returns_generator(self):
        rng = seed_everything(123)
        assert isinstance(rng, np.random.Generator)

    def test_seed_everything_is_reproducible(self):
        a = seed_everything(5).normal(size=4)
        b = seed_everything(5).normal(size=4)
        np.testing.assert_array_equal(a, b)

    def test_new_rng_independent_streams(self):
        a = new_rng(1).normal(size=8)
        b = new_rng(2).normal(size=8)
        assert not np.allclose(a, b)

    def test_spawn_rngs_count(self):
        rngs = spawn_rngs(0, 5)
        assert len(rngs) == 5

    def test_spawn_rngs_streams_differ(self):
        rngs = spawn_rngs(0, 2)
        assert not np.allclose(rngs[0].normal(size=8), rngs[1].normal(size=8))

    def test_spawn_rngs_deterministic(self):
        first = spawn_rngs(3, 2)[1].normal(size=4)
        second = spawn_rngs(3, 2)[1].normal(size=4)
        np.testing.assert_array_equal(first, second)

    def test_spawn_rngs_negative_count_raises(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)


class TestRegistry:
    def test_register_and_get(self):
        registry: Registry[str] = Registry("thing")
        registry.register("a", "value-a")
        assert registry.get("a") == "value-a"

    def test_register_as_decorator(self):
        registry: Registry[object] = Registry("builder")

        @registry.register("make")
        def make():
            return 42

        assert registry.get("make")() == 42

    def test_duplicate_registration_raises(self):
        registry: Registry[str] = Registry("thing")
        registry.register("a", "x")
        with pytest.raises(KeyError):
            registry.register("a", "y")

    def test_unknown_name_error_lists_known(self):
        registry: Registry[str] = Registry("thing")
        registry.register("alpha", "x")
        with pytest.raises(KeyError, match="alpha"):
            registry.get("beta")

    def test_contains_len_names(self):
        registry: Registry[str] = Registry("thing")
        registry.register("b", "x")
        registry.register("a", "y")
        assert "a" in registry and "c" not in registry
        assert len(registry) == 2
        assert registry.names() == ["a", "b"]


class TestCheckpoint:
    def test_save_and_load_params_roundtrip(self, tmp_path):
        params = {"w": np.arange(6, dtype=np.float32).reshape(2, 3), "b": np.zeros(3)}
        save_params(tmp_path / "model.npz", params)
        loaded = load_params(tmp_path / "model.npz")
        assert set(loaded) == {"w", "b"}
        np.testing.assert_array_equal(loaded["w"], params["w"])

    def test_load_params_appends_npz_suffix(self, tmp_path):
        save_params(tmp_path / "model.npz", {"x": np.ones(2)})
        loaded = load_params(tmp_path / "model")
        np.testing.assert_array_equal(loaded["x"], np.ones(2))

    def test_truncated_checkpoint_raises_value_error_naming_path(self, tmp_path):
        path = save_params(tmp_path / "model.npz", {"w": np.arange(64.0), "b": np.ones(8)})
        data = path.read_bytes()
        for cut in (0, 3, 10, len(data) // 2, len(data) - 1):
            path.write_bytes(data[:cut])
            with pytest.raises(ValueError, match=re.escape(str(path))):
                load_params(path)

    def test_non_zip_checkpoint_raises_value_error_naming_path(self, tmp_path):
        path = tmp_path / "model.npz"
        np.save(tmp_path / "bare.npy", np.ones(3))  # an array, not an archive
        bare = (tmp_path / "bare.npy").read_bytes()
        for payload in (b"definitely not a zip archive\n" * 4, bare):
            path.write_bytes(payload)
            with pytest.raises(ValueError, match=re.escape(str(path))):
                load_params(path)

    def test_object_array_checkpoint_is_refused(self, tmp_path):
        path = tmp_path / "model.npz"
        np.savez(path, w=np.ones(3), evil=np.array([{"a": 1}], dtype=object))
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_params(path)

    def test_save_json_roundtrip_with_numpy_scalars(self, tmp_path):
        payload = {"value": np.float32(1.5), "vector": np.arange(3)}
        save_json(tmp_path / "out.json", payload)
        loaded = load_json(tmp_path / "out.json")
        assert loaded["value"] == pytest.approx(1.5)
        assert loaded["vector"] == [0, 1, 2]

    def test_save_json_creates_parent_dirs(self, tmp_path):
        path = save_json(tmp_path / "nested" / "dir" / "x.json", {"a": 1})
        assert path.exists()


class TestLogging:
    def test_get_logger_namespaced(self):
        logger = get_logger("unit-test")
        assert logger.name == "repro.unit-test"

    def test_get_logger_accepts_prequalified_name(self):
        logger = get_logger("repro.core.pipeline")
        assert logger.name == "repro.core.pipeline"

    def test_root_handler_installed_once(self):
        get_logger("a")
        get_logger("b")
        root = logging.getLogger("repro")
        assert len(root.handlers) == 1
