import json

import numpy as np
import pytest
import yaml

from sfcsim import harness
from sfcsim.cli import main as cli_main
from sfcsim.config import (ConfigError, ExperimentConfig, config_from_dict,
                           config_hash, config_to_dict, load_config,
                           save_config)
from sfcsim.harness import (build_envs, build_trace, cmd_cluster, cmd_eval,
                            cmd_generate_trace, cmd_train)
from sfcsim.trace import read_trace_csv


def tiny_config(**overrides) -> ExperimentConfig:
    """Desk-scale scenario: 1 DC x 2 servers, 6 cells, short trace."""
    data = {
        "trace": {"n_cells": 6, "n_steps": 600, "mean_step_total": 60.0},
        "topology": {"n_dcs": 1, "servers_per_dc": 2},
        "ppo": {"total_steps": 1024, "n_envs": 2, "rollout_length": 64},
        "eval": {"n_runs": 4, "quick_runs": 2},
        "master_seed": 5,
    }
    data.update(overrides)
    return config_from_dict(data)


# ------------------------------------------------------------------- config

def test_config_round_trip_is_idempotent(tmp_path):
    cfg = tiny_config()
    path = tmp_path / "exp.yaml"
    save_config(cfg, path)
    loaded = load_config(path)
    assert config_to_dict(loaded) == config_to_dict(cfg)
    save_config(loaded, path)
    assert config_to_dict(load_config(path)) == config_to_dict(cfg)


def test_config_hash_tracks_content():
    a, b = tiny_config(), tiny_config()
    assert config_hash(a) == config_hash(b)
    b.master_seed = 99
    assert config_hash(a) != config_hash(b)


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown keys"):
        config_from_dict({"trace": {"n_cellz": 3}})
    with pytest.raises(ConfigError, match="top-level"):
        config_from_dict({"topologyy": {}})


def test_invalid_values_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"topology": {"n_dcs": 0}})


def test_defaults_match_reference_scenario():
    cfg = ExperimentConfig()
    assert cfg.topology.n_dcs == 10
    assert cfg.topology.servers_per_dc == 5
    assert cfg.failure.mttf_server == 8760.0
    assert cfg.failure.mttr_server == 1.667
    assert cfg.failure.mttf_vnf == 24.0
    assert cfg.failure.mttr_vnf == 0.033
    assert cfg.energy.cpu_watts == 40.0
    assert cfg.energy.mem_watts == 30.72
    assert cfg.env.f == 100.0
    assert cfg.trace.n_cells == 276
    assert cfg.trace.n_steps == 8928
    assert cfg.eval.n_runs == 100


# ------------------------------------------------------------------ commands

def test_generate_trace_writes_deterministic_csv(tmp_path):
    cfg = tiny_config()
    p1 = cmd_generate_trace(cfg, tmp_path / "a")
    p2 = cmd_generate_trace(cfg, tmp_path / "b")
    assert p1.read_bytes() == p2.read_bytes()
    trace = read_trace_csv(p1)
    assert trace.n_steps == 600 and trace.n_cells == 6


def test_generate_trace_shape_matches_config(tmp_path):
    cfg = tiny_config(trace={"n_cells": 20, "n_steps": 50})
    path = cmd_generate_trace(cfg, tmp_path)
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    assert len(lines) == 51  # header + 50 steps
    assert len(lines[0].split(",")) == 21  # step_index + 20 cells


def test_trace_source_csv_round_trip(tmp_path):
    cfg = tiny_config()
    path = cmd_generate_trace(cfg, tmp_path)
    cfg2 = tiny_config(trace={"source": "csv", "path": str(path)})
    trace = build_trace(cfg2)
    assert trace.n_steps == 600


def test_trace_source_cdr(tmp_path):
    path = tmp_path / "cdr.txt"
    with open(path, "w") as fh:
        for i in range(288):
            for cell in (1, 2):
                fh.write(f"{cell}\t{i * 600_000}\t39\t\t\t\t\t1.5\n")
    cfg = tiny_config(trace={"source": "cdr", "path": str(path),
                             "step_duration": 600})
    trace = build_trace(cfg)
    assert trace.n_cells == 2
    assert trace.n_steps == 288
    assert trace.steps.sum() == pytest.approx(288 * 2 * 1.5)


def test_cdr_source_without_path_is_config_error():
    with pytest.raises(ConfigError, match="synthetic"):
        build_trace(tiny_config(trace={"source": "cdr"}))


def test_cluster_command_writes_artifacts(tmp_path):
    # two days so period profiles are defined; 3 planted diurnal groups
    cfg = tiny_config(trace={"n_cells": 30, "n_steps": 576,
                             "mean_step_total": 90.0},
                      cluster={"k": 3, "k_min": 1, "k_max": 6})
    out = cmd_cluster(cfg, tmp_path)
    assert (tmp_path / "elbow.csv").exists()
    assert (tmp_path / "cluster_map.csv").exists()
    assert (tmp_path / "cluster_model.npz").exists()
    assert out["k"] == 3
    lines = (tmp_path / "elbow.csv").read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == "k,sse"
    assert len(lines) == 2 + 6


def test_build_envs_split_and_normalization():
    cfg = tiny_config(env={"normalize_obs": True})
    train_env, test_env = build_envs(cfg)
    assert train_env.trace.n_steps == 540
    assert test_env.trace.n_steps == 60
    assert test_env.config.episode_length is None
    assert train_env.config.activity_scale is not None
    assert train_env.config.activity_scale == test_env.config.activity_scale


def test_build_envs_test_env_always_starts_at_row_zero():
    cfg = tiny_config(env={"episode_length": 10})
    train_env, test_env = build_envs(cfg)
    assert test_env.episode_steps() == test_env.trace.n_steps == 60
    train_rows = set()
    for seed in range(4):
        assert test_env.reset(seed)[:6].tolist() == test_env.trace.steps[0].tolist()
        first = train_env.reset(seed)[:6].tolist()
        train_rows.add(train_env.trace.steps.tolist().index(first))
    assert len(train_rows) > 1  # the train env does draw offsets


def test_cells_selection_restricts_environment():
    cfg = tiny_config(cells=[2, 3, 5])
    train_env, _ = build_envs(cfg)
    assert train_env.trace.cell_ids == [2, 3, 5]
    assert train_env.n_cells == 3


def test_train_eval_cycle(tmp_path):
    import time

    cfg = tiny_config()
    started = time.time()
    checkpoint = cmd_train(cfg, tmp_path)
    assert time.time() - started < 300.0  # tiny scenario trains in minutes
    assert checkpoint.exists()
    assert (tmp_path / "training_updates.csv").exists()
    assert (tmp_path / "training_steps.csv").exists()
    summary = cmd_eval(cfg, tmp_path, str(checkpoint), quick=True)
    assert summary["n_runs"] == 2
    steps_csv = tmp_path / "eval_steps_checkpoint.csv"
    assert steps_csv.exists()
    header = [l for l in steps_csv.read_text().splitlines()
              if not l.startswith("#")][0]
    assert header.split(",")[:4] == ["step", "reward_mean", "reward_std",
                                     "cum_reward_mean"]
    run0_csv = tmp_path / "eval_run0_steps_checkpoint.csv"
    header = [l for l in run0_csv.read_text().splitlines()
              if not l.startswith("#")][0]
    assert header == ("step,a,dc,server,vnf_type,accepted,sfc,packets,lost,"
                      "energy_w,reward,cum_reward,cum_lost")
    updates_csv = tmp_path / "training_updates.csv"
    header = [l for l in updates_csv.read_text().splitlines()
              if not l.startswith("#")][0]
    assert header == "update,loss,policy_loss,value_loss,entropy,clip_fraction,kl"


def test_train_and_eval_stamp_the_same_config_hash(tmp_path):
    cfg = tiny_config()
    expected = config_hash(tiny_config())
    checkpoint = cmd_train(cfg, tmp_path)
    cmd_eval(cfg, tmp_path, str(checkpoint), quick=True)
    assert config_hash(cfg) == expected  # training left the config untouched
    for name in ("training_updates.csv", "training_steps.csv",
                 "training_episodes.csv", "eval_steps_checkpoint.csv",
                 "eval_run0_steps_checkpoint.csv", "eval_summary_checkpoint.csv"):
        first = (tmp_path / name).read_text().splitlines()[0]
        assert first == f"# config_hash={expected} seed=5", name
    meta = json.loads(str(np.load(checkpoint)["__meta__"]))
    assert meta["config_hash"] == expected


def test_quick_train_and_eval_stamp_the_yaml_hash(tmp_path, monkeypatch):
    # train --quick caps total_steps in its own copy, so the checkpoint and
    # every CSV of train --quick and eval --quick carry the YAML's hash.
    monkeypatch.setattr(harness, "QUICK_TRAIN_STEPS", 128)
    cfg_path = tmp_path / "exp.yaml"
    save_config(tiny_config(), cfg_path)
    expected = config_hash(load_config(cfg_path))
    out = tmp_path / "out"
    assert cli_main(["train", "--quick", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
    assert cli_main(["eval", "--quick", "--config", str(cfg_path),
                     "--out", str(out), "--policy",
                     str(out / "checkpoint.npz")]) == 0
    updates = (out / "training_updates.csv").read_text().splitlines()
    assert len(updates) == 3  # comment, header, one 2 x 64-step update
    for name in ("training_updates.csv", "training_steps.csv",
                 "training_episodes.csv", "eval_steps_checkpoint.csv",
                 "eval_run0_steps_checkpoint.csv", "eval_summary_checkpoint.csv"):
        first = (out / name).read_text().splitlines()[0]
        assert first == f"# config_hash={expected} seed=5", name
    meta = json.loads(str(np.load(out / "checkpoint.npz")["__meta__"]))
    assert meta["config_hash"] == expected


def test_eval_baselines_and_determinism(tmp_path):
    cfg = tiny_config()
    s1 = cmd_eval(cfg, tmp_path / "r1", "noop", quick=True)
    s2 = cmd_eval(cfg, tmp_path / "r2", "noop", quick=True)
    assert s1["sfc_uptime_fraction"] == 0.0
    b1 = (tmp_path / "r1" / "eval_steps_noop.csv").read_bytes()
    b2 = (tmp_path / "r2" / "eval_steps_noop.csv").read_bytes()
    assert b1 == b2


def test_eval_rejects_mismatched_checkpoint(tmp_path):
    cfg = tiny_config()
    checkpoint = cmd_train(cfg, tmp_path)
    bigger = tiny_config(topology={"n_dcs": 2, "servers_per_dc": 2})
    with pytest.raises(ValueError, match="head sizes|obs_dim"):
        cmd_eval(bigger, tmp_path, str(checkpoint), quick=True)


# ----------------------------------------------------------------------- CLI

def test_cli_generate_trace_exit_zero(tmp_path):
    cfg_path = tmp_path / "exp.yaml"
    save_config(tiny_config(), cfg_path)
    code = cli_main(["generate-trace", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "trace.csv").exists()


# Keys that older configs carried and that no command reads any more.
REMOVED_KEYS = [("env", "step_duration", 600), ("env", "eval_mode", True),
                ("failure", "rng_seed", 3), ("ppo", "hidden", [8, 8]),
                ("ppo", "reward_scale", 0.5), ("ppo", "reward_clip", 5.0),
                ("ppo", "clip_value", False)]


@pytest.mark.parametrize("data", [
    pytest.param({"trace": {"bogus": 1}}, id="unknown_key"),
    pytest.param({"trace": {"n_cells": 0}}, id="trace_n_cells_0"),
    pytest.param({"trace": {"n_steps": 0}}, id="trace_n_steps_0"),
    pytest.param({"trace": {"step_duration": 0}}, id="trace_step_duration_0"),
    pytest.param({"trace": {"split_fraction": 1.5}}, id="split_fraction_1.5"),
    pytest.param({"trace": {"split_fraction": 1.0}}, id="split_fraction_1"),
    pytest.param({"trace": {"split_fraction": 0.0}}, id="split_fraction_0"),
    pytest.param({"env": {"episode_length": 0}}, id="episode_length_0"),
    pytest.param({"env": {"episode_length": -3}}, id="episode_length_negative"),
    pytest.param({"env": {"activity_scale": -1.0}}, id="activity_scale_negative"),
    pytest.param({"env": {"activity_scale": 0.0}}, id="activity_scale_0"),
    pytest.param({"ppo": {"n_envs": 0}}, id="n_envs_0"),
    pytest.param({"ppo": {"rollout_length": 0}}, id="rollout_length_0"),
    pytest.param({"ppo": {"minibatches": 0}}, id="minibatches_0"),
    pytest.param({"ppo": {"epochs": 0}}, id="epochs_0"),
    pytest.param({"ppo": {"total_steps": -5}}, id="total_steps_negative"),
    pytest.param({"ppo": {"learning_rate": 0}}, id="learning_rate_0"),
    pytest.param({"ppo": {"learning_rate": -1e-4}}, id="learning_rate_negative"),
    pytest.param({"ppo": {"max_grad_norm": 0}}, id="max_grad_norm_0"),
    pytest.param({"ppo": {"max_grad_norm": -0.5}}, id="max_grad_norm_negative"),
    pytest.param({"ppo": {"entropy_coef": -0.01}}, id="entropy_coef_negative"),
    pytest.param({"ppo": {"value_coef": -0.5}}, id="value_coef_negative"),
    pytest.param({"cluster": {"k": 0}}, id="cluster_k_0"),
    pytest.param({"cluster": {"k_min": 0}}, id="cluster_k_min_0"),
    pytest.param({"cluster": {"k_max": 0}}, id="cluster_k_max_0"),
    pytest.param({"cluster": {"k_min": 5, "k_max": 4}}, id="cluster_k_min_above_k_max"),
    pytest.param({"eval": {"n_runs": 0}}, id="eval_n_runs_0"),
    pytest.param({"eval": {"quick_runs": 0}}, id="eval_quick_runs_0"),
    pytest.param({"cells": [1, 1, 2]}, id="cells_repeated"),
    pytest.param({"cells": []}, id="cells_empty"),
    *[pytest.param({section: {key: value}}, id=f"removed_{section}_{key}")
      for section, key, value in REMOVED_KEYS],
])
def test_cli_bad_config_exit_one(tmp_path, capsys, data):
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(yaml.safe_dump(data))
    assert cli_main(["generate-trace", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert "config error:" in err
    for section, key, _ in REMOVED_KEYS:
        if key in data.get(section, {}):
            assert f"unknown keys in [{section}]: ['{key}']" in err


def test_null_max_grad_norm_is_valid():
    assert config_from_dict({"ppo": {"max_grad_norm": None}}).ppo.max_grad_norm is None


def test_cli_cluster_k_min_above_cell_count_exit_one(tmp_path, capsys):
    cfg_path = tmp_path / "exp.yaml"
    save_config(tiny_config(trace={"n_cells": 5, "n_steps": 576},
                            cluster={"k_min": 8}), cfg_path)
    code = cli_main(["cluster", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert "config error: cluster.k_min (8) exceeds the number of cells (5)" in err
    assert "Traceback" not in err


def test_cli_cluster_trace_shorter_than_a_day_exit_one(tmp_path, capsys):
    cfg_path = tmp_path / "exp.yaml"
    save_config(tiny_config(trace={"n_cells": 6, "n_steps": 100}), cfg_path)
    code = cli_main(["cluster", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert ("config error: clustering needs a trace of at least one day; "
            "this one has 100 steps of 300 s") in err
    assert "Traceback" not in err


def test_cli_cells_missing_from_trace_exit_one(tmp_path, capsys):
    cfg_path = tmp_path / "exp.yaml"
    save_config(tiny_config(cells=[2, 999, 998]), cfg_path)
    code = cli_main(["eval", "--quick", "--policy", "noop", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert "config error: cells: cell ids not in the trace: [998, 999]" in err
    assert "Traceback" not in err


def test_cli_empty_train_split_exit_one(tmp_path, capsys):
    cfg_path = tmp_path / "exp.yaml"
    save_config(tiny_config(trace={"n_cells": 6, "n_steps": 5, "split_fraction": 0.1}),
                cfg_path)
    code = cli_main(["train", "--quick", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert ("config error: trace.split_fraction (0.1) splits the trace's 5 rows "
            "into 0 train and 5 test rows; both splits must be non-empty") in err
    assert "Traceback" not in err


@pytest.mark.parametrize("seed", ["abc", True, 1.5, None, -1])
def test_cli_bad_master_seed_exit_one(tmp_path, capsys, seed):
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(yaml.safe_dump({"master_seed": seed,
                                        "trace": {"n_cells": 6, "n_steps": 10}}))
    out = tmp_path / "out"
    code = cli_main(["generate-trace", "--config", str(cfg_path), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert f"config error: master_seed must be an int >= 0, got {seed!r}" in err
    assert not (out / "trace.csv").exists()


@pytest.mark.parametrize("cells, message", [
    ([4, 2, 4, 2, 3], "cells: repeated cell ids: [2, 4]"),
    (5, "cells must be a list of ints, got 5"),
    ([1, "a"], "cells must be a list of ints, got [1, 'a']"),
    ([True], "cells must be a list of ints, got [True]"),
], ids=["repeated", "int", "str_item", "bool_item"])
def test_cli_bad_cells_exit_one(tmp_path, capsys, cells, message):
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(yaml.safe_dump({"cells": cells,
                                        "trace": {"n_cells": 6, "n_steps": 10}}))
    code = cli_main(["generate-trace", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert f"config error: {message}" in err
    assert "Traceback" not in err


def test_cli_negative_seed_flag_exit_one(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli_main(["generate-trace", "--seed", "-1", "--out", str(out)]) == 1
    assert "config error: master_seed must be an int >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_cli_missing_config_exit_one(tmp_path):
    assert cli_main(["cluster", "--config", str(tmp_path / "nope.yaml")]) == 1


def test_cli_runtime_failure_exit_two(tmp_path):
    cfg_path = tmp_path / "exp.yaml"
    save_config(tiny_config(), cfg_path)
    code = cli_main(["eval", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out"),
                     "--policy", str(tmp_path / "missing.npz")])
    assert code == 2


def test_cli_seed_override_changes_outputs(tmp_path):
    cfg_path = tmp_path / "exp.yaml"
    save_config(tiny_config(), cfg_path)
    for seed, sub in ((1, "a"), (2, "b")):
        assert cli_main(["generate-trace", "--config", str(cfg_path),
                         "--seed", str(seed), "--out", str(tmp_path / sub)]) == 0
    a = (tmp_path / "a" / "trace.csv").read_bytes()
    b = (tmp_path / "b" / "trace.csv").read_bytes()
    assert a != b
