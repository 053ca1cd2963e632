"""Tests for config serialization: dict/file round-trips and dotted overrides."""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.config import (
    AdaScaleConfig,
    DatasetConfig,
    DetectorConfig,
    ExperimentConfig,
    RegressorConfig,
    ServingConfig,
    TelemetryConfig,
    TrainingConfig,
)
from repro.configio import (
    apply_overrides,
    deep_merge,
    dumps_toml,
    loads_toml,
    parse_cli_value,
    split_override,
    toml_supported,
)
from repro.presets import EXPERIMENT_PRESETS

ALL_CONFIG_CLASSES = [
    DatasetConfig,
    DetectorConfig,
    TrainingConfig,
    RegressorConfig,
    AdaScaleConfig,
    ServingConfig,
    TelemetryConfig,
    ExperimentConfig,
]

#: One non-default instance per config class, touching every value category:
#: ints, floats, strings, bools, int/float tuples, None-able fields, nesting.
MODIFIED_INSTANCES = [
    DatasetConfig(num_classes=5, clutter=0.9, name="alt", seed=11),
    DetectorConfig(backbone_channels=(4, 8), anchor_ratios=(0.4, 1.1), rpn_min_size=3.0),
    TrainingConfig(train_scales=(100, 50), optimizer="sgd", learning_rate=1e-4, lr_decay_at=()),
    RegressorConfig(kernel_sizes=(1, 3, 5), stream_channels=4, weight_decay=0.0),
    AdaScaleConfig(scales=(100, 50), regressor_scales=(100, 50, 25), quantize_predicted_scale=True),
    ServingConfig(deadline_ms=12.5, backpressure="drop-oldest", use_seqnms=True),
    ServingConfig(deadline_ms=None, initial_scale=96),
    TelemetryConfig(
        enabled=True, sample_rate=0.25, ring_capacity=512, jsonl_path="spans.jsonl"
    ),
    ExperimentConfig(
        dataset=DatasetConfig(num_classes=3),
        detector=DetectorConfig(num_classes=3),
        serving=ServingConfig(num_workers=7),
        seed=42,
    ),
]


class TestDictRoundTrip:
    @pytest.mark.parametrize("cls", ALL_CONFIG_CLASSES)
    def test_defaults_round_trip(self, cls):
        config = cls()
        assert cls.from_dict(config.to_dict()) == config

    @pytest.mark.parametrize("config", MODIFIED_INSTANCES, ids=lambda c: type(c).__name__)
    def test_modified_round_trip(self, config):
        rebuilt = type(config).from_dict(config.to_dict())
        assert rebuilt == config
        # tuples stay tuples after the list detour
        for field in dataclasses.fields(config):
            original = getattr(config, field.name)
            if isinstance(original, tuple):
                assert isinstance(getattr(rebuilt, field.name), tuple)

    @pytest.mark.parametrize("cls", ALL_CONFIG_CLASSES)
    def test_to_dict_is_json_compatible(self, cls):
        payload = cls().to_dict()
        assert cls.from_dict(json.loads(json.dumps(payload))) == cls()

    def test_missing_keys_keep_defaults(self):
        config = ServingConfig.from_dict({"num_workers": 9})
        assert config.num_workers == 9
        assert config.max_batch_size == ServingConfig().max_batch_size

    def test_from_dict_accepts_instance(self):
        config = ServingConfig(num_workers=3)
        assert ServingConfig.from_dict(config) is config

    def test_nested_partial_dict(self):
        config = ExperimentConfig.from_dict({"serving": {"queue_capacity": 5}})
        assert config.serving.queue_capacity == 5
        assert config.dataset == DatasetConfig()

    def test_nested_accepts_config_instances(self):
        serving = ServingConfig(num_workers=6)
        config = ExperimentConfig.from_dict({"serving": serving})
        assert config.serving == serving

    @settings(max_examples=25, deadline=None)
    @given(
        num_workers=st.integers(min_value=1, max_value=64),
        batch_wait_ms=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        backpressure=st.sampled_from(["block", "drop-oldest", "reject"]),
        deadline_ms=st.one_of(st.none(), st.floats(min_value=0.1, max_value=1e4, allow_nan=False)),
        use_seqnms=st.booleans(),
    )
    def test_serving_round_trip_hypothesis(
        self, num_workers, batch_wait_ms, backpressure, deadline_ms, use_seqnms
    ):
        config = ServingConfig(
            num_workers=num_workers,
            batch_wait_ms=batch_wait_ms,
            backpressure=backpressure,
            deadline_ms=deadline_ms,
            use_seqnms=use_seqnms,
        )
        assert ServingConfig.from_dict(config.to_dict()) == config
        assert ServingConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config

    @settings(max_examples=25, deadline=None)
    @given(
        scales=st.lists(st.integers(min_value=16, max_value=512), min_size=1, max_size=6),
        max_long_side=st.integers(min_value=64, max_value=4000),
        quantize=st.booleans(),
    )
    def test_adascale_round_trip_hypothesis(self, scales, max_long_side, quantize):
        ordered = tuple(sorted(set(scales), reverse=True))
        config = AdaScaleConfig(
            scales=ordered,
            regressor_scales=ordered,
            max_long_side=max_long_side,
            quantize_predicted_scale=quantize,
        )
        assert AdaScaleConfig.from_dict(config.to_dict()) == config


class TestStrictness:
    def test_unknown_key_rejected_with_names(self):
        with pytest.raises(ValueError, match="unknown ServingConfig key.*'bogus'"):
            ServingConfig.from_dict({"bogus": 1})

    def test_removed_batched_execution_key_is_refused(self, tmp_path):
        """Serving has one execution path; the old per-frame switch is unknown."""
        with pytest.raises(ValueError, match="unknown ServingConfig key.*'batched_execution'"):
            ServingConfig.from_dict({"batched_execution": False})
        with pytest.raises(ValueError, match="'batched_execution'"):
            ExperimentConfig.from_dict({"serving": {"batched_execution": True}})
        with pytest.raises(ValueError, match="batched_execution"):
            api.load_experiment_config("tiny", overrides=["serving.batched_execution=false"])
        if toml_supported():
            path = tmp_path / "exp.toml"
            path.write_text("[serving]\nbatched_execution = false\n")
            with pytest.raises(ValueError, match="'batched_execution'"):
                ExperimentConfig.load(path)

    def test_removed_inference_dtype_key_is_refused(self, tmp_path):
        """The detector has one PS-RoI integral dtype; the old knob is unknown."""
        with pytest.raises(ValueError, match="unknown DetectorConfig key.*'inference_dtype'"):
            DetectorConfig.from_dict({"inference_dtype": "float32"})
        with pytest.raises(ValueError, match="'inference_dtype'"):
            ExperimentConfig.from_dict({"detector": {"inference_dtype": "float64"}})
        with pytest.raises(ValueError, match="inference_dtype"):
            api.load_experiment_config("tiny", overrides=["detector.inference_dtype=float32"])
        if toml_supported():
            path = tmp_path / "exp.toml"
            path.write_text('[detector]\ninference_dtype = "float32"\n')
            with pytest.raises(ValueError, match="'inference_dtype'"):
                ExperimentConfig.load(path)

    @pytest.mark.parametrize("key", ["spans", "decisions"])
    def test_removed_telemetry_toggle_keys_are_refused(self, key, tmp_path):
        """Every traced run emits spans and decisions; the old toggles are unknown."""
        with pytest.raises(ValueError, match=f"unknown TelemetryConfig key.*'{key}'"):
            TelemetryConfig.from_dict({key: False})
        with pytest.raises(ValueError, match=f"'{key}'"):
            ExperimentConfig.from_dict({"telemetry": {key: True}})
        with pytest.raises(ValueError, match=key):
            api.load_experiment_config("tiny", overrides=[f"telemetry.{key}=false"])
        if toml_supported():
            path = tmp_path / "exp.toml"
            path.write_text(f"[telemetry]\n{key} = false\n")
            with pytest.raises(ValueError, match=f"'{key}'"):
                ExperimentConfig.load(path)

    @pytest.mark.parametrize(
        "section, config_name", [("governor", "GovernorConfig"), ("autoscaler", "AutoscalerConfig")]
    )
    def test_removed_control_plane_kind_keys_are_refused(self, section, config_name, tmp_path):
        """The governor and autoscaler have one policy each; ``kind`` is unknown."""
        with pytest.raises(ValueError, match=f"unknown {config_name} key.*'kind'"):
            ExperimentConfig.from_dict({"cluster": {section: {"kind": "typo"}}})
        with pytest.raises(ValueError, match="kind"):
            api.load_experiment_config("tiny", overrides=[f"cluster.{section}.kind=typo"])
        if toml_supported():
            path = tmp_path / "exp.toml"
            path.write_text(f'[cluster.{section}]\nkind = "typo"\n')
            with pytest.raises(ValueError, match="'kind'"):
                ExperimentConfig.load(path)

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ValueError, match="DatasetConfig"):
            ExperimentConfig.from_dict({"dataset": {"nope": 3}})

    def test_type_mismatch_names_field(self):
        with pytest.raises(TypeError, match="ServingConfig.num_workers"):
            ServingConfig.from_dict({"num_workers": "three"})

    def test_bool_fields_reject_ints(self):
        with pytest.raises(TypeError, match="use_seqnms"):
            ServingConfig.from_dict({"use_seqnms": 1})

    def test_int_fields_reject_floats(self):
        with pytest.raises(TypeError, match="num_workers"):
            ServingConfig.from_dict({"num_workers": 2.5})

    def test_int_widens_to_float(self):
        config = ServingConfig.from_dict({"batch_wait_ms": 3})
        assert config.batch_wait_ms == 3.0 and isinstance(config.batch_wait_ms, float)

    def test_tuple_fields_reject_scalars(self):
        with pytest.raises(TypeError, match="train_scales"):
            TrainingConfig.from_dict({"train_scales": 128})

    def test_non_mapping_rejected(self):
        with pytest.raises(TypeError, match="expects a mapping"):
            ServingConfig.from_dict([1, 2, 3])


class TestFiles:
    @pytest.mark.parametrize("suffix", [".json", ".toml"])
    def test_experiment_file_round_trip(self, tmp_path, suffix):
        if suffix == ".toml" and not toml_supported():
            pytest.skip("no TOML reader on this interpreter")
        config = EXPERIMENT_PRESETS.get("tiny").build_config(seed=3)
        path = tmp_path / f"exp{suffix}"
        config.save(path)
        assert ExperimentConfig.load(path) == config

    @pytest.mark.parametrize("suffix", [".json", ".toml"])
    def test_serving_file_round_trip(self, tmp_path, suffix):
        if suffix == ".toml" and not toml_supported():
            pytest.skip("no TOML reader on this interpreter")
        config = ServingConfig(num_workers=5, deadline_ms=7.5, backpressure="reject")
        path = tmp_path / f"serving{suffix}"
        config.save(path)
        assert ServingConfig.load(path) == config

    def test_unsupported_suffix_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="suffix"):
            ServingConfig().save(tmp_path / "config.yaml")

    @pytest.mark.skipif(not toml_supported(), reason="no TOML reader")
    def test_toml_none_fields_survive_via_defaults(self):
        config = ServingConfig(deadline_ms=None, initial_scale=None)
        text = dumps_toml(config.to_dict())
        assert "deadline_ms" not in text  # TOML has no null; omitted
        assert ServingConfig.from_dict(loads_toml(text)) == config

    @pytest.mark.skipif(not toml_supported(), reason="no TOML reader")
    def test_toml_escapes_strings(self):
        config = DatasetConfig(name='we"ird\\name')
        assert DatasetConfig.from_dict(loads_toml(dumps_toml(config.to_dict()))) == config


class TestOverrides:
    def test_split_override(self):
        assert split_override("a.b=c=d") == ("a.b", "c=d")
        with pytest.raises(ValueError):
            split_override("no-equals")

    def test_parse_cli_values(self):
        assert parse_cli_value("5", float, "x") == 5.0
        assert parse_cli_value("true", bool, "x") is True
        assert parse_cli_value("drop-oldest", str, "x") == "drop-oldest"
        assert parse_cli_value("128,96,72", tuple[int, ...], "x") == (128, 96, 72)
        assert parse_cli_value("[128, 96]", tuple[int, ...], "x") == (128, 96)
        assert parse_cli_value("none", float | None, "x") is None
        assert parse_cli_value("2.5", float | None, "x") == 2.5

    def test_with_overrides_typed(self):
        config = ExperimentConfig().with_overrides(
            {
                "serving.batch_wait_ms": "5",
                "serving.backpressure": "drop-oldest",
                "adascale.quantize_predicted_scale": "true",
                "training.train_scales": "96,48",
                "serving.deadline_ms": "none",
            }
        )
        assert config.serving.batch_wait_ms == 5.0
        assert config.serving.backpressure == "drop-oldest"
        assert config.adascale.quantize_predicted_scale is True
        assert config.training.train_scales == (96, 48)
        assert config.serving.deadline_ms is None

    def test_override_unknown_path_lists_fields(self):
        with pytest.raises(ValueError, match="serving.bogus"):
            ExperimentConfig().with_overrides({"serving.bogus": "1"})

    def test_override_through_leaf_rejected(self):
        with pytest.raises(ValueError, match="not a nested config"):
            ExperimentConfig().with_overrides({"seed.deeper": "1"})

    def test_apply_overrides_accepts_typed_values(self):
        config = apply_overrides(ServingConfig(), {"num_workers": 4, "deadline_ms": 2.0})
        assert config.num_workers == 4 and config.deadline_ms == 2.0

    def test_telemetry_override_via_set(self):
        """``--set telemetry.sample_rate=0.1`` resolves through the facade."""
        config = api.load_experiment_config(
            "tiny",
            overrides=["telemetry.sample_rate=0.1", "telemetry.enabled=true"],
        )
        assert config.telemetry.enabled is True
        assert config.telemetry.sample_rate == pytest.approx(0.1)
        # Untouched telemetry fields keep their defaults.
        assert config.telemetry.ring_capacity == TelemetryConfig().ring_capacity

    def test_telemetry_validation_bounds(self):
        with pytest.raises(ValueError):
            TelemetryConfig(sample_rate=1.5).validate()
        with pytest.raises(ValueError):
            TelemetryConfig(ring_capacity=0).validate()

    def test_precedence_preset_file_cli(self, tmp_path):
        """preset < config file < --set, as the CLI merges them."""
        config_path = tmp_path / "exp.json"
        json.dump(
            {"serving": {"num_workers": 11, "max_batch_size": 3}, "seed": 5},
            config_path.open("w"),
        )
        config = api.load_experiment_config(
            "tiny",
            config_file=config_path,
            overrides=["serving.num_workers=13"],
        )
        tiny = EXPERIMENT_PRESETS.get("tiny").build_config(seed=None)
        assert config.serving.num_workers == 13  # CLI beats file
        assert config.serving.max_batch_size == 3  # file beats preset
        assert config.seed == 5
        assert config.dataset == tiny.dataset.with_(seed=5) or config.dataset == tiny.dataset

    def test_deep_merge_semantics(self):
        base = {"a": {"x": 1, "y": 2}, "b": [1, 2], "c": 3}
        overlay = {"a": {"y": 5}, "b": [9]}
        merged = deep_merge(base, overlay)
        assert merged == {"a": {"x": 1, "y": 5}, "b": [9], "c": 3}
        assert base["a"]["y"] == 2  # base untouched


class TestRemovedEntryPoints:
    """The PR-4 deprecation shims are gone; the old names must fail loudly."""

    @pytest.mark.parametrize(
        "name",
        [
            "tiny_experiment_config",
            "small_experiment_config",
            "small_ytbb_experiment_config",
            "paper_scales",
            "tiny_experiment",
        ],
    )
    def test_old_names_raise_pointing_at_api(self, name):
        from repro import presets

        with pytest.raises(AttributeError, match="repro.api|PAPER_ADASCALE"):
            getattr(presets, name)
        # from-imports surface the same guidance as ImportError.
        with pytest.raises(ImportError, match="repro"):
            exec(f"from repro.presets import {name}")

    def test_unknown_attribute_still_plain_attribute_error(self):
        from repro import presets

        with pytest.raises(AttributeError, match="no attribute"):
            presets.definitely_not_a_thing
