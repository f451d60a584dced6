import dataclasses
import json
import logging
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml

from sfcsim import clustering, config, harness
from sfcsim.cli import main as cli_main
from sfcsim.config import (ConfigError, ExperimentConfig, config_from_dict,
                           config_hash, load_config)
from sfcsim.harness import (build_envs, build_trace, cmd_cluster, cmd_eval,
                            cmd_generate_trace, cmd_train)
from sfcsim.policy import PolicyNetwork
from sfcsim.trace import read_trace_csv

from helpers import save_config


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
    assert dataclasses.asdict(loaded) == dataclasses.asdict(cfg)
    save_config(loaded, path)
    assert dataclasses.asdict(load_config(path)) == dataclasses.asdict(cfg)


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


@pytest.mark.parametrize("trace, message", [
    ({"source": "sql", "path": "t.csv"}, "source must be synthetic, csv or cdr, got 'sql'"),
    ({"source": "csv"}, "source=csv requires path"),
], ids=["unknown_source", "csv_without_path"])
def test_trace_source_rules_fail_at_load(trace, message):
    with pytest.raises(ConfigError, match=f"invalid \\[trace\\] section: {message}"):
        tiny_config(trace=trace)


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


def test_build_envs_peak_memory_is_one_trace():
    cfg = load_config(Path(__file__).resolve().parent.parent / "bench" / "reference.yaml")
    tracemalloc.start()
    try:
        train_env, test_env = build_envs(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    full_bytes = cfg.trace.n_steps * cfg.trace.n_cells * 8
    assert train_env.trace.steps.nbytes + test_env.trace.steps.nbytes == full_bytes
    assert peak <= 1.15 * full_bytes


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


def test_quick_train_and_eval_stamp_the_yaml_hash(tmp_path, monkeypatch, caplog):
    # train --quick caps total_steps in its own copy, so the checkpoint and
    # every CSV of train --quick and eval --quick carry the YAML's hash.
    monkeypatch.setattr(harness, "QUICK_TRAIN_STEPS", 200)
    cfg_path = tmp_path / "exp.yaml"
    save_config(tiny_config(), cfg_path)
    expected = config_hash(load_config(cfg_path))
    out = tmp_path / "out"
    caplog.set_level(logging.INFO, logger="sfcsim.harness")
    assert cli_main(["train", "--quick", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
    # the 200 steps asked for make one whole 2 x 64-step update, and the log says so
    assert [r.getMessage().split(" in ")[0] for r in caplog.records
            if r.getMessage().startswith("trained ")] == ["trained 128 env steps"]
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
    pytest.param({"trace": {"n_cells": 1.5}}, id="trace_n_cells_float"),
    pytest.param({"ppo": {"total_steps": 4096.0}}, id="total_steps_float"),
    pytest.param({"topology": {"n_dcs": True}}, id="n_dcs_bool"),
    pytest.param({"env": {"normalize_obs": "false"}}, id="normalize_obs_str"),
    pytest.param({"ppo": {"normalize_rewards": "no"}}, id="normalize_rewards_str"),
    pytest.param({"trace": {"amplitude": "x"}}, id="amplitude_str"),
    pytest.param({"ppo": {"max_grad_norm": "0.5"}}, id="max_grad_norm_str"),
    pytest.param({"trace": {"path": 5}}, id="trace_path_int"),
    pytest.param({"out_dir": 5}, id="out_dir_int"),
    pytest.param({"energy": {"cpu_watts": math.nan}}, id="cpu_watts_nan"),
    pytest.param({"failure": {"mttf_vnf": math.nan}}, id="mttf_vnf_nan"),
    pytest.param({"failure": {"mttr_vnf": 0}}, id="mttr_vnf_0"),
    pytest.param({"failure": {"mttf_server": -1.0}}, id="mttf_server_negative"),
    pytest.param({"env": {"activity_scale": math.nan}}, id="activity_scale_nan"),
    pytest.param({"trace": {"noise": -0.1}}, id="noise_negative"),
    pytest.param({"trace": {"mean_step_total": -5.0}}, id="mean_step_total_negative"),
    pytest.param({"trace": {"mean_step_total": math.inf}}, id="mean_step_total_inf"),
    pytest.param({"energy": {"cpu_watts": math.inf}}, id="cpu_watts_inf"),
    pytest.param({"cluster": {"utc_offset_hours": math.inf}}, id="utc_offset_hours_inf"),
    pytest.param({"cluster": {"utc_offset_hours": 1.0e+300}}, id="utc_offset_hours_1e300"),
    pytest.param({"cluster": {"utc_offset_hours": 15}}, id="utc_offset_hours_15"),
    pytest.param({"cluster": {"utc_offset_hours": -12.5}}, id="utc_offset_hours_-12.5"),
    pytest.param({"cluster": {"select_index": 3}}, id="select_index_without_model_path"),
    pytest.param({"cluster": {"model_path": "m.npz"}}, id="model_path_without_select_index"),
    pytest.param({"cluster": {"model_path": "m.npz", "select_index": -1}},
                 id="select_index_negative"),
    pytest.param({"cells": [1, 2], "cluster": {"model_path": "m.npz", "select_index": 0}},
                 id="cells_with_cluster_model"),
    pytest.param({"ppo": {"max_grad_norm": None}}, id="max_grad_norm_null"),
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


def test_cli_malformed_yaml_exit_one(tmp_path, capsys):
    cfg_path = tmp_path / "bad.yaml"
    cfg_path.write_text("trace: [unclosed\n")
    code = cli_main(["eval", "--policy", "noop", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert f"config error: {cfg_path}: while parsing a flow sequence" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("data, message", [
    ({"env": {"normalize_obs": "false"}},
     "[env] section: normalize_obs must be a bool, got 'false'"),
    ({"ppo": {"normalize_observations": 1}}, "normalize_observations must be a bool, got 1"),
    ({"trace": {"amplitude": "x"}}, "[trace] section: amplitude must be a float, got 'x'"),
    ({"failure": {"mttf_vnf": True}}, "mttf_vnf must be a float, got True"),
    ({"env": {"activity_scale": "2"}}, "activity_scale must be a float, got '2'"),
    ({"trace": {"source": 1}}, "[trace] section: source must be a str, got 1"),
    ({"cluster": {"model_path": False}}, "model_path must be a str, got False"),
    ({"out_dir": 5}, "out_dir must be a str, got 5"),
    ({"energy": {"cpu_watts": math.nan}}, "[energy] section: cpu_watts must not be NaN"),
])
def test_wrong_typed_field_names_its_type(data, message):
    with pytest.raises(ConfigError) as exc:
        config_from_dict(data)
    assert message in str(exc.value)


def test_inf_loads_where_it_means_never():
    # a failure mean of inf never fires; a max_grad_norm of inf never clips
    cfg = config_from_dict({"failure": {"mttf_vnf": math.inf},
                            "ppo": {"max_grad_norm": math.inf}})
    assert cfg.failure.mttf_vnf == cfg.ppo.max_grad_norm == math.inf
    with pytest.raises(ConfigError, match=r"\[env\] section: w_e must be finite"):
        config_from_dict({"env": {"w_e": -math.inf}})


def test_typed_fields_keep_their_values():
    # ints stand for floats and null for optional fields, and nothing is
    # converted, so the config hash sees the values as written
    cfg = config_from_dict({"failure": {"mttf_vnf": 24},
                            "env": {"normalize_obs": True, "activity_scale": 3,
                                    "episode_length": None}})
    assert type(cfg.failure.mttf_vnf) is int and type(cfg.env.activity_scale) is int
    assert cfg.env.episode_length is None and cfg.env.normalize_obs is True
    for cls in config._SECTIONS.values():
        assert all(f.type in config._FIELD_TYPES for f in dataclasses.fields(cls))


def test_null_max_grad_norm_is_rejected():
    # inf is the one way to say "no clipping"
    with pytest.raises(ConfigError, match="max_grad_norm must be a float, got None"):
        config_from_dict({"ppo": {"max_grad_norm": None}})


@pytest.mark.parametrize("offset", [-12, 14])
def test_utc_offset_bounds_load(offset):
    assert config_from_dict({"cluster": {"utc_offset_hours": offset}}
                            ).cluster.utc_offset_hours == offset


@pytest.mark.parametrize("model, select_index, message", [
    pytest.param(None, 0, "No such file or directory", id="missing_model"),
    pytest.param("npz", 7, "cluster_index must be in [0, 3)", id="index_out_of_range"),
    pytest.param("yaml", 0, "not an .npz archive", id="yaml_as_model"),
])
def test_cli_bad_cluster_selection_exit_one(tmp_path, capsys, model, select_index,
                                            message):
    # caught when the managed cells are selected, so the command must build envs
    cfg_path = tmp_path / "exp.yaml"
    model_path = cfg_path if model == "yaml" else tmp_path / "cluster_model.npz"
    if model == "npz":
        clustering.ClusterModel(3, np.zeros((3, 6)), {c: c % 3 for c in range(1, 7)},
                                0.0, 0).save(model_path)
    save_config(tiny_config(cluster={"model_path": str(model_path),
                                     "select_index": select_index}), cfg_path)
    code = cli_main(["eval", "--policy", "noop", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert f"config error: cluster {select_index} in {model_path}: " in err
    assert message in err
    assert "pickle" not in err and "Traceback" not in err


@pytest.mark.parametrize("checkpoint, message", [
    ("missing.npz", "No such file or directory"),
    ("exp.yaml", "not an .npz archive"),
    ("other_topology.npz", "checkpoint obs_dim 3 does not match environment obs_dim"),
    ("static-greedy", "No such file or directory"),
    ("corrupt.npz", "Bad CRC-32"),
    ("nan_weights.npz", "checkpoint array w1 has a non-finite value"),
    ("short_head.npz", "checkpoint array wh2 has shape (64, 1), expected (64, 2)"),
    ("negative_var.npz", "checkpoint array obs_var has a negative value"),
], ids=["missing", "yaml", "other_topology", "mistyped_baseline", "corrupt",
        "nan_weights", "short_head", "negative_var"])
def test_cli_bad_checkpoint_exit_one(tmp_path, capsys, monkeypatch, checkpoint, message):
    monkeypatch.chdir(tmp_path)  # a mistyped baseline name is read as a relative path
    save_config(tiny_config(), "exp.yaml")
    PolicyNetwork(3, (2, 2, 2, 2)).save("other_topology.npz")
    damaged = bytearray(Path("other_topology.npz").read_bytes())
    damaged[200] ^= 0xFF  # inside the first member's data
    Path("corrupt.npz").write_bytes(damaged)
    # checkpoints whose meta fits the env but whose arrays do not
    _, env = build_envs(tiny_config())
    net = PolicyNetwork(env.obs_dim, env.head_sizes)
    params = net.copy_params()
    net.params["w1"][:] = np.nan
    net.save("nan_weights.npz")
    net.set_params(params)
    net.params["wh2"], net.params["bh2"] = params["wh2"][:, :1], params["bh2"][:1]
    net.save("short_head.npz")  # the meta still says 2 servers per DC
    net.set_params(params)
    net.obs_stats = (np.zeros(env.obs_dim), np.full(env.obs_dim, -1.0))
    net.save("negative_var.npz")
    code = cli_main(["eval", "--quick", "--policy", checkpoint, "--config", "exp.yaml",
                     "--out", "out"])
    err = capsys.readouterr().err
    assert code == 1
    assert f"config error: checkpoint {checkpoint}: " in err and message in err
    assert "pickle" not in err and "Traceback" not in err
    # the baseline names are listed exactly when no such file exists
    assert ("static_greedy" in err) == (checkpoint in ("missing.npz", "static-greedy"))


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


GOOD_CSV = "step_index,cell_1,cell_2\n0,1.0,2.0\n1,3.0,4.0\n2,5.0,6.0\n3,7.0,8.0\n"


@pytest.mark.parametrize("source, text, message", [
    ("csv", GOOD_CSV.replace("4.0", "-4.0"), "activity values must be finite and nonnegative"),
    ("csv", GOOD_CSV.replace("4.0", "nan"), "activity values must be finite and nonnegative"),
    ("csv", GOOD_CSV.replace("4.0", "inf"), "activity values must be finite and nonnegative"),
    ("csv", GOOD_CSV.replace("cell_2", "tower_2"), "unexpected trace header in"),
    ("csv", GOOD_CSV.replace("cell_2", "cell_1"), "repeated cell ids: [1]"),
    ("csv", None, "No such file or directory"),
    ("csv", GOOD_CSV.split("\n")[0] + "\n", "no data rows in"),
    ("csv", "step_index,cell_1,cell_2\n5,1.0,2.0\n0,3.0,4.0\n0,5.0,6.0\n",
     "step_index in"),
    # 2 of 10 rows have the wrong column count: above the 10% the loader allows
    ("cdr", "1\t0\t39\t\t\t\t\t1.5\n" * 8 + "1\t0\t39\n" * 2, "2/10 malformed rows in"),
    ("cdr", "1\t0\t39\t\t\t\t\t\n", "no usable records in"),
], ids=["negative", "nan", "inf", "header", "repeated_cell", "missing", "csv_no_rows",
        "step_index", "cdr_malformed", "cdr_no_usable_rows"])
def test_cli_bad_trace_file_exit_one(tmp_path, capsys, source, text, message):
    path = tmp_path / "trace.txt"
    if text is not None:
        path.write_text(text)
    cfg_path = tmp_path / "exp.yaml"
    save_config(tiny_config(trace={"source": source, "path": str(path)}), cfg_path)
    code = cli_main(["eval", "--quick", "--policy", "noop", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert f"config error: trace.path {path}: " in err and message in err
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


def test_ten_thousand_cells_load():
    # the Milan grid's square count; the repeated-id check is one counting pass
    cells = list(range(1, 10_001))
    assert config_from_dict({"cells": cells}).cells == cells
    with pytest.raises(ConfigError) as exc:
        config_from_dict({"cells": cells + [9_999, 7]})
    assert str(exc.value) == "cells: repeated cell ids: [7, 9999]"


def test_cli_cells_and_cluster_model_exit_one(tmp_path, capsys):
    # cells used to win silently: the model file was never opened
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(yaml.safe_dump({
        "cells": [1, 2, 3], "trace": {"n_cells": 6, "n_steps": 600},
        "cluster": {"model_path": str(tmp_path / "missing.npz"), "select_index": 0}}))
    out = tmp_path / "out"
    code = cli_main(["eval", "--quick", "--policy", "noop", "--config", str(cfg_path),
                     "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert ("config error: cells and cluster.model_path/select_index both choose "
            "the managed cells; set one of them") in err
    assert not out.exists()


def test_cli_ppo_seed_exit_one(tmp_path, capsys):
    # train always derives the agent's seed from master_seed, so a YAML's
    # ppo.seed would only move the config hash
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(yaml.safe_dump({"ppo": {"seed": 123}}))
    out = tmp_path / "out"
    code = cli_main(["train", "--quick", "--config", str(cfg_path), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert "config error: [ppo] seed is derived from master_seed; set master_seed instead" in err
    assert not out.exists()


def test_cli_negative_seed_flag_exit_one(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli_main(["generate-trace", "--seed", "-1", "--out", str(out)]) == 1
    assert "config error: master_seed must be an int >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_cli_missing_config_exit_one(tmp_path):
    assert cli_main(["cluster", "--config", str(tmp_path / "nope.yaml")]) == 1


@pytest.mark.parametrize("argv, code", [
    (["eval"], 1),  # no --policy
    (["bogus"], 1),
    (["cluster", "--quick"], 1),  # only train and eval read --quick
    (["generate-trace", "--quick"], 1),
    (["eval", "--policy", "noop", "--runs", "3"], 1),
    (["--help"], 0),
    (["eval", "--help"], 0),
], ids=["eval_without_policy", "unknown_command", "cluster_quick", "generate_trace_quick",
        "unknown_flag", "help", "eval_help"])
def test_cli_usage_error_exit_one(tmp_path, capsys, monkeypatch, argv, code):
    monkeypatch.chdir(tmp_path)
    save_config(tiny_config(), "exp.yaml")
    assert cli_main([*argv, "--config", "exp.yaml"]) == code
    captured = capsys.readouterr()
    assert "usage: sfcsim" in (captured.err if code else captured.out)
    assert not Path("out").exists()



def test_cli_runtime_failure_exit_two(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise RuntimeError("rollout failed")

    monkeypatch.setattr(harness.policies, "evaluate_policy", fail)
    cfg_path = tmp_path / "exp.yaml"
    save_config(tiny_config(), cfg_path)
    code = cli_main(["eval", "--quick", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out"), "--policy", "noop"])
    assert code == 2
    assert "runtime failure: rollout failed" in capsys.readouterr().err


def test_cli_seed_override_changes_outputs(tmp_path):
    cfg_path = tmp_path / "exp.yaml"
    save_config(tiny_config(), cfg_path)
    for seed, sub in ((1, "a"), (2, "b")):
        assert cli_main(["generate-trace", "--config", str(cfg_path),
                         "--seed", str(seed), "--out", str(tmp_path / sub)]) == 0
    a = (tmp_path / "a" / "trace.csv").read_bytes()
    b = (tmp_path / "b" / "trace.csv").read_bytes()
    assert a != b
