"""Commands behind the CLI: generate-trace, cluster, train, eval.

Each command is a pure function of (config, options) writing CSV artifacts
into the output directory. All randomness is derived from the master seed,
so rerunning a command with the same config produces byte-identical files.
"""

import dataclasses
import logging
import time
from pathlib import Path

from . import clustering, policies, ppo, trace as trace_mod
from .artifacts import write_csv
from .config import ConfigError, ExperimentConfig, config_hash
from .env import SfcEnv, write_step_records
from .policy import PolicyNetwork
from .seeding import derive_seed

logger = logging.getLogger(__name__)

QUICK_TRAIN_STEPS = 20_000  # cap on ppo.total_steps under ``train --quick``


def _comments(cfg: ExperimentConfig) -> list[str]:
    return [f"config_hash={config_hash(cfg)} seed={cfg.master_seed}"]


def _fmt(x) -> str:
    return f"{float(x):.6f}"


# ------------------------------------------------------------------- inputs

def _read_input(what: str, path, reader, *args):
    """``reader(path, *args)``; a file it cannot read, parse or fit is the input's fault."""
    try:
        return reader(path, *args)
    except (ValueError, OSError, KeyError) as exc:
        raise ConfigError(f"{what} {path}: {exc}") from exc


def build_trace(cfg: ExperimentConfig) -> trace_mod.SteppedTrace:
    """Load or generate the full stepped trace named by the config."""
    tc = cfg.trace
    if tc.source == "synthetic":
        return trace_mod.generate_synthetic_trace(
            tc.n_cells, tc.n_steps, derive_seed(cfg.master_seed, "trace"),
            tc.amplitude, tc.noise, tc.mean_step_total, tc.step_duration,
            tc.origin_time_ms)
    if tc.source == "csv":
        return _read_input("trace.path", tc.path, trace_mod.read_trace_csv)
    cell_filter = set(cfg.cells) if cfg.cells is not None else None
    return _read_input("trace.path", tc.path, trace_mod.load_cdr_trace,
                       tc.step_duration, cell_filter)


def select_managed_cells(cfg: ExperimentConfig,
                         full: trace_mod.SteppedTrace) -> trace_mod.SteppedTrace:
    """Restrict the trace to the managed cell set (explicit list or cluster)."""
    if cfg.cells is not None:
        cells, source = sorted(cfg.cells), "cells"
    elif cfg.cluster.model_path is not None:  # select_index is set with it
        index = cfg.cluster.select_index
        source = f"cluster {index} in {cfg.cluster.model_path}"
        cells = _read_input(f"cluster {index} in", cfg.cluster.model_path, lambda path:
                            clustering.select_cells(clustering.ClusterModel.load(path), index))
        if not cells:
            raise ConfigError(f"{source} is empty")
    else:
        return full
    missing = sorted(set(cells) - set(full.cell_ids))
    if missing:
        raise ConfigError(f"{source}: cell ids not in the trace: {missing}")
    return full.select_cells(cells)


def build_envs(cfg: ExperimentConfig) -> tuple[SfcEnv, SfcEnv]:
    """(train_env_template, test_env) for the configured experiment.

    The training env uses raw config episode settings; the test env always
    runs the full test split from step 0. Observation normalization, when
    enabled, is anchored to the train split's maximum activity for both.
    """
    full = select_managed_cells(cfg, build_trace(cfg))
    fraction = cfg.trace.split_fraction
    try:
        train, test = trace_mod.split_train_test(full, fraction)
    except ValueError as exc:
        raise ConfigError(f"trace.split_fraction ({fraction}) {exc}") from exc
    env_cfg = cfg.env
    if env_cfg.normalize_obs and env_cfg.activity_scale is None:
        scale = float(train.steps.max())
        env_cfg = dataclasses.replace(env_cfg, activity_scale=scale or 1.0)
    train_env = SfcEnv(train, cfg.topology, cfg.failure, cfg.energy, env_cfg)
    test_cfg = dataclasses.replace(env_cfg, episode_length=None)
    test_env = SfcEnv(test, cfg.topology, cfg.failure, cfg.energy, test_cfg)
    return train_env, test_env


# ----------------------------------------------------------------- commands

def cmd_generate_trace(cfg: ExperimentConfig, out_dir: Path) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    tr = build_trace(cfg)
    path = out_dir / "trace.csv"
    trace_mod.write_trace_csv(tr, path, _comments(cfg))
    logger.info("wrote %s (%d steps x %d cells)", path, tr.n_steps, tr.n_cells)
    return path


def cmd_cluster(cfg: ExperimentConfig, out_dir: Path) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    tr = build_trace(cfg)
    if cfg.cluster.k_min > tr.n_cells:
        raise ConfigError(f"cluster.k_min ({cfg.cluster.k_min}) exceeds the "
                          f"number of cells ({tr.n_cells})")
    if tr.n_steps * tr.step_duration < clustering.SECONDS_PER_DAY:
        raise ConfigError(f"clustering needs a trace of at least one day; this one "
                          f"has {tr.n_steps} steps of {tr.step_duration} s")
    profiles = clustering.compute_period_profiles(tr, cfg.cluster.utc_offset_hours)
    k_max = min(cfg.cluster.k_max, len(profiles))
    scan = clustering.elbow_scan(profiles, (cfg.cluster.k_min, k_max),
                                 derive_seed(cfg.master_seed, "kmeans"))
    write_csv(out_dir / "elbow.csv", ["k", "sse"],
              ([k, repr(sse)] for k, sse in scan), _comments(cfg))
    k = min(cfg.cluster.k, len(profiles))
    model = clustering.kmeans_fit(profiles, k, derive_seed(cfg.master_seed, "kmeans"))
    model.save(out_dir / "cluster_model.npz")
    write_csv(out_dir / "cluster_map.csv", ["cell_id", "cluster_index"],
              ([cell, model.assignments[cell]] for cell in sorted(model.assignments)),
              _comments(cfg))
    suggestion = clustering.suggest_elbow_k(scan)
    sizes = {j: len(clustering.select_cells(model, j)) for j in range(model.k)}
    logger.info("fitted k=%d (sse=%.3f); elbow suggestion k=%d; cluster sizes %s",
                k, model.sse, suggestion, sizes)
    return {"k": k, "sse": model.sse, "suggested_k": suggestion, "sizes": sizes}


def cmd_train(cfg: ExperimentConfig, out_dir: Path, quick: bool = False) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    train_env, _ = build_envs(cfg)

    def env_factory(index: int) -> SfcEnv:
        return SfcEnv(train_env.trace, cfg.topology, cfg.failure, cfg.energy,
                      train_env.config)

    # Derive the agent seed and the quick step cap into a copy: cfg itself
    # stays as loaded, so the artifacts of train and eval of one config
    # stamp the same hash, quick or not.
    total_steps = cfg.ppo.total_steps
    if quick:
        total_steps = min(total_steps, QUICK_TRAIN_STEPS)
    ppo_cfg = dataclasses.replace(cfg.ppo, seed=derive_seed(cfg.master_seed, "ppo"),
                                  total_steps=total_steps)
    started = time.time()
    net, log = ppo.train(env_factory, ppo_cfg)
    elapsed = time.time() - started
    logger.info("trained %d env steps in %.1fs (aborted=%s, episodes=%d)",
                ppo_cfg.total_steps, elapsed, log.aborted, len(log.episodes))

    checkpoint = out_dir / "checkpoint.npz"
    net.save(checkpoint, config_hash(cfg), cfg.master_seed)
    write_csv(out_dir / "training_updates.csv",
              ["update", "loss", "policy_loss", "value_loss",
               "entropy", "clip_fraction", "kl"],
              ([row["update"], _fmt(row["loss"]),
                _fmt(row["policy_loss"]), _fmt(row["value_loss"]),
                _fmt(row["entropy"]), _fmt(row["clip_fraction"]),
                _fmt(row["kl"])] for row in log.updates),
              _comments(cfg))
    write_csv(out_dir / "training_steps.csv",
              ["step", "reward", "sfc", "packets"],
              ([row["step"], _fmt(row["reward"]), row["sfc"], _fmt(row["packets"])]
               for row in log.env0_steps),
              _comments(cfg))
    write_csv(out_dir / "training_episodes.csv",
              ["env", "global_step", "length", "total_reward", "total_lost",
               "sfc_steps"],
              ([e.env_index, e.global_step, e.length, _fmt(e.total_reward),
                _fmt(e.total_lost), e.sfc_steps] for e in log.episodes),
              _comments(cfg))
    return checkpoint


def _resolve_policy(name_or_path: str, env: SfcEnv, seed: int):
    if name_or_path in policies.BASELINE_NAMES:
        return policies.make_baseline(name_or_path, env, seed)
    try:
        return policies.PpoPolicy(_read_input("checkpoint", name_or_path, PolicyNetwork.load,
                                              env.obs_dim, env.head_sizes))
    except ConfigError as exc:
        if Path(name_or_path).exists():
            raise
        raise ConfigError(f"{exc}; nor is it a baseline name "
                          f"({', '.join(policies.BASELINE_NAMES)})") from exc


def cmd_eval(cfg: ExperimentConfig, out_dir: Path, policy_spec: str,
             quick: bool = False) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    _, test_env = build_envs(cfg)
    policy = _resolve_policy(policy_spec, test_env, cfg.master_seed)
    n_runs = cfg.eval.quick_runs if quick else cfg.eval.n_runs
    started = time.perf_counter()
    result = policies.evaluate_policy(policy, test_env, n_runs,
                                      master_seed=cfg.master_seed)
    elapsed = time.perf_counter() - started
    logger.info("evaluated %d runs x %d steps in %.3fs (%.0f steps/s)", n_runs,
                result.n_steps, elapsed, n_runs * result.n_steps / elapsed)

    # Each (runs, steps) series as one C-order (steps, runs) copy: a row's
    # mean and std sum its runs in the order x[:, t].mean() and .std() do.
    reward, cum_reward, lost, cum_lost, sfc, energy = (x.T.copy() for x in (
        result.rewards, result.rewards.cumsum(axis=1), result.lost,
        result.lost.cumsum(axis=1), result.sfc, result.energy))
    columns = [stat(axis=1) for x in (reward, cum_reward, lost, cum_lost)
               for stat in (x.mean, x.std)]
    columns += [sfc.mean(axis=1), energy.mean(axis=1), energy.std(axis=1)]
    rows = ([t, *map(_fmt, stats)] for t, stats in enumerate(zip(*columns)))
    label = Path(policy_spec).stem if policy_spec not in policies.BASELINE_NAMES \
        else policy_spec
    write_csv(out_dir / f"eval_steps_{label}.csv",
              ["step", "reward_mean", "reward_std", "cum_reward_mean",
               "cum_reward_std", "lost_mean", "lost_std", "cum_lost_mean",
               "cum_lost_std", "sfc_mean", "energy_mean", "energy_std"],
              rows, _comments(cfg))

    write_step_records(result.step_records,
                       out_dir / f"eval_run0_steps_{label}.csv", _comments(cfg))

    summary = result.summary()  # n_runs, then the float statistics
    write_csv(out_dir / f"eval_summary_{label}.csv", ["policy", *summary],
              [[label, *(_fmt(v) if isinstance(v, float) else v for v in summary.values())]],
              _comments(cfg))
    logger.info("eval %s over %d runs: %s", label, n_runs, summary)
    return summary
