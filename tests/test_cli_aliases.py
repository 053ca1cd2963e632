"""The serve/cluster flags are second spellings of config fields.

For every alias in :data:`repro.cli.ALIASES`: the flag and its ``--set``
spelling resolve to equal configs, and the flag beats ``--set`` on the same
path.  Config files reach ``repro cluster``/``repro serve`` through the same
layering (preset < ``--config`` < ``--set`` < flag).
"""

from __future__ import annotations

import json

import pytest

from repro import api
from repro.cli import ALIASES, _resolve_config, build_parser, main
from repro.configio import parse_cli_value, toml_supported

# flag -> (flag argv, the same thing as --set expressions, conflicting --set)
TELEMETRY_CASES = {
    "--telemetry": (["--telemetry"], ["telemetry.enabled=true"], ["telemetry.enabled=false"]),
    "--telemetry-sample": (
        ["--telemetry-sample", "0.25"],
        ["telemetry.sample_rate=0.25"],
        ["telemetry.sample_rate=0.5"],
    ),
    "--span-log": (
        ["--span-log", "spans.jsonl"],
        ["telemetry.enabled=true", "telemetry.jsonl_path=spans.jsonl"],
        ["telemetry.enabled=false", "telemetry.jsonl_path=other.jsonl"],
    ),
    "--export-trace": (
        ["--export-trace", "trace.json"],
        ["telemetry.enabled=true"],
        ["telemetry.enabled=false"],
    ),
}
SERVE_CASES = {
    "--workers": (["--workers", "3"], ["serving.num_workers=3"], ["serving.num_workers=1"]),
    "--batch-size": (
        ["--batch-size", "3"], ["serving.max_batch_size=3"], ["serving.max_batch_size=8"]
    ),
    "--queue": (["--queue", "24"], ["serving.queue_capacity=24"], ["serving.queue_capacity=32"]),
    "--policy": (
        ["--policy", "reject"], ["serving.backpressure=reject"], ["serving.backpressure=block"]
    ),
    "--deadline-ms": (
        ["--deadline-ms", "50"], ["serving.deadline_ms=50"], ["serving.deadline_ms=10"]
    ),
    "--key-frame-interval": (
        ["--key-frame-interval", "3"],
        ["serving.key_frame_interval=3"],
        ["serving.key_frame_interval=2"],
    ),
    "--seqnms": (["--seqnms"], ["serving.use_seqnms=true"], ["serving.use_seqnms=false"]),
    "--quantize-scales": (
        ["--quantize-scales"],
        ["adascale.quantize_predicted_scale=true"],
        ["adascale.quantize_predicted_scale=false"],
    ),
    **TELEMETRY_CASES,
}
CLUSTER_CASES = {
    "--shards": (["--shards", "3"], ["cluster.num_shards=3"], ["cluster.num_shards=5"]),
    "--mode": (["--mode", "process"], ["cluster.mode=process"], ["cluster.mode=simulate"]),
    "--router": (
        ["--router", "hash"], ["cluster.router.policy=hash"], ["cluster.router.policy=least-loaded"]
    ),
    "--target-p95-ms": (
        ["--target-p95-ms", "100"],
        ["cluster.governor.target_p95_ms=100"],
        ["cluster.governor.target_p95_ms=400"],
    ),
    "--no-governor": (
        ["--no-governor"], ["cluster.governor.enabled=false"], ["cluster.governor.enabled=true"]
    ),
    "--autoscale": (
        ["--autoscale"],
        ["cluster.autoscaler.enabled=true", "cluster.autoscaler.max_shards=8"],
        ["cluster.autoscaler.enabled=false", "cluster.autoscaler.max_shards=20"],
    ),
    "--inject-fault": (
        # A fault needs process shards, so every spelling runs in process mode.
        ["--set", "cluster.mode=process", "--inject-fault", "kill-replica:shard=1,at=0.5"],
        [
            "cluster.mode=process",
            "cluster.fault.kind=kill-replica",
            "cluster.fault.shard_id=1",
            "cluster.fault.at_s=0.5",
        ],
        ["cluster.mode=process", "cluster.fault.at_s=3.0"],
    ),
    **TELEMETRY_CASES,
}
CASES = {"serve": SERVE_CASES, "cluster": CLUSTER_CASES}
ALL_CASES = [(command, flag) for command, cases in CASES.items() for flag in cases]


def _resolve(command: str, *argv: str):
    return _resolve_config(build_parser().parse_args([command, *argv]))


def _set(expressions: list[str]) -> list[str]:
    return [token for expression in expressions for token in ("--set", expression)]


def test_every_alias_has_a_case():
    for command, aliases in ALIASES.items():
        assert {alias.flag for alias in aliases} == set(CASES[command]), command


@pytest.mark.parametrize("command,flag", ALL_CASES)
def test_flag_and_set_spelling_resolve_to_equal_configs(command, flag):
    flag_argv, same, _ = CASES[command][flag]
    by_flag = _resolve(command, *flag_argv)
    by_set = _resolve(command, *_set(same))
    assert by_flag == by_set
    assert by_flag != _resolve(command)  # the case exercises a real change


@pytest.mark.parametrize("command,flag", ALL_CASES)
def test_flag_beats_set_on_the_same_path(command, flag):
    flag_argv, _, conflicting = CASES[command][flag]
    assert _resolve(command, *_set(conflicting), *flag_argv) == _resolve(command, *flag_argv)
    # ... whichever order the two are written in.
    assert _resolve(command, *flag_argv, *_set(conflicting)) == _resolve(command, *flag_argv)


def test_flags_not_given_leave_the_layers_below_alone():
    config = _resolve(
        "cluster", "--set", "cluster.num_shards=3", "--set", "telemetry.sample_rate=0.5"
    )
    assert config.cluster.num_shards == 3  # not --shards' parser default
    assert config.telemetry.sample_rate == 0.5  # not --telemetry-sample's 1.0
    assert _resolve("cluster").cluster == api.ClusterConfig()


def test_autoscale_sizes_from_the_resolved_shard_count():
    for argv in (["--shards", "3"], ["--set", "cluster.num_shards=3"]):
        config = _resolve("cluster", *argv, "--autoscale")
        assert config.cluster.autoscaler.enabled
        assert config.cluster.autoscaler.max_shards == 12


def test_bad_alias_values_are_clean_config_errors():
    with pytest.raises(SystemExit, match="num_shards must be >= 1"):
        _resolve("cluster", "--shards", "0")
    with pytest.raises(SystemExit, match="unknown fault injector"):
        _resolve("cluster", "--mode", "process", "--inject-fault", "meteor")
    with pytest.raises(SystemExit, match="needs mode='process'"):
        _resolve("cluster", "--inject-fault", "kill-replica")


def test_str_fields_keep_numeric_looking_values():
    assert parse_cli_value("123", str, "x") == "123"
    assert _resolve("serve", "--span-log", "123").telemetry.jsonl_path == "123"


@pytest.mark.skipif(not toml_supported(), reason="TOML reading needs tomllib")
def test_config_file_cluster_table_reaches_the_run(tmp_path, capsys):
    config_file = tmp_path / "deploy.toml"
    config_file.write_text(
        "[cluster]\nnum_shards = 3\n\n[cluster.router]\npolicy = \"hash\"\n"
        "\n[cluster.governor]\nenabled = false\n"
    )
    output = tmp_path / "report.json"
    workload = [
        "--no-calibrate", "--scenario", "steady", "--duration", "2", "--streams", "3",
        "--rate", "10", "--output", str(output),
    ]
    assert main(["cluster", "--config", str(config_file), *workload]) == 0
    assert "3 shards, simulate" in capsys.readouterr().out
    assert json.loads(output.read_text())["num_shards"] == 3
    # preset < file < --set < flag
    assert main(["cluster", "--config", str(config_file), "--set", "cluster.num_shards=4",
                 *workload]) == 0
    assert json.loads(output.read_text())["num_shards"] == 4
    assert main(["cluster", "--config", str(config_file), "--set", "cluster.num_shards=4",
                 "--shards", "2", *workload]) == 0
    assert json.loads(output.read_text())["num_shards"] == 2
    resolved = _resolve("cluster", "--config", str(config_file))
    assert resolved.cluster.router.policy == "hash"
    assert not resolved.cluster.governor.enabled


def test_config_file_serving_table_reaches_serve(micro_bundle, micro_config, tmp_path, capsys,
                                                  monkeypatch):
    from repro.presets import EXPERIMENT_PRESETS, ExperimentPreset

    bundle_dir = tmp_path / "bundle"
    micro_bundle.save(bundle_dir)
    preset = ExperimentPreset(
        name="tiny", dataset=micro_config.dataset.name, spec=micro_config.to_dict()
    )
    monkeypatch.setitem(EXPERIMENT_PRESETS._entries, "tiny", preset)
    config_file = tmp_path / "serve.json"
    config_file.write_text(json.dumps({"serving": {"backpressure": "drop-oldest"}}))
    argv = ["serve", "--bundle", str(bundle_dir), "--streams", "2", "--frames", "2",
            "--config", str(config_file)]
    assert main(argv) == 0
    assert "policy drop-oldest" in capsys.readouterr().out
    assert main([*argv, "--policy", "reject"]) == 0
    assert "policy reject" in capsys.readouterr().out


def test_cluster_facade_falls_back_to_the_experiment_cluster():
    facade = api.Cluster.from_config(
        "tiny", overrides=["cluster.num_shards=3", "cluster.router.policy=hash"], calibrate=False
    )
    assert facade.cluster.num_shards == 3 and facade.cluster.router.policy == "hash"
    # An explicit cluster replaces the section (over ClusterConfig defaults).
    explicit = api.Cluster.from_config(
        "tiny", cluster={"num_shards": 1}, overrides=["cluster.num_shards=3"], calibrate=False
    )
    assert explicit.cluster == api.ClusterConfig(num_shards=1)
    with pytest.raises(ValueError, match="num_shards"):
        api.Cluster.from_config("tiny", overrides=["cluster.num_shards=0"], calibrate=False)


def test_config_show_prints_the_cluster_table(capsys):
    assert main(["config", "--set", "cluster.num_shards=5"]) == 0
    shown = capsys.readouterr().out
    assert "[cluster]\nnum_shards = 5\n" in shown
    assert "[cluster.governor]" in shown and "[cluster.fault]" in shown
