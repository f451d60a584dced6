"""Shared fixtures: the reference-scenario agent used by acceptance 6-8.

Training runs once per session; its config is the pinned reference recipe
(Table-2 topology, synthetic trace at ~400 activities/step, env defaults
w_e=0.01 and f=100).
"""

import dataclasses

import pytest

from sfcsim import ppo
from sfcsim.config import config_from_dict
from sfcsim.env import SfcEnv
from sfcsim.harness import build_envs
from sfcsim.policies import PpoPolicy, evaluate_policy
from sfcsim.seeding import derive_seed

REFERENCE_SCENARIO = {
    "trace": {"n_cells": 276, "n_steps": 8928, "mean_step_total": 400.0},
    "topology": {"n_dcs": 10, "servers_per_dc": 5},
    "env": {"normalize_obs": True, "episode_length": 100},
    "ppo": {
        "total_steps": 1_500_000,
        "n_envs": 8,
        "rollout_length": 256,
        "normalize_rewards": True,
        "normalize_observations": True,
        "entropy_coef": 0.003,
        "learning_rate": 2.5e-4,
    },
    "eval": {"n_runs": 10},
    "master_seed": 0,
}


@pytest.fixture(scope="session")
def reference_agent():
    """(config, trained network, test env, 10-rollout greedy evaluation)."""
    cfg = config_from_dict(REFERENCE_SCENARIO)
    train_env, test_env = build_envs(cfg)

    def factory(index: int) -> SfcEnv:
        return SfcEnv(train_env.trace, cfg.topology, cfg.failure, cfg.energy,
                      train_env.config)

    ppo_cfg = dataclasses.replace(cfg.ppo, seed=derive_seed(cfg.master_seed, "ppo"))
    net, log = ppo.train(factory, ppo_cfg, log_env0=False)
    assert not log.aborted
    result = evaluate_policy(PpoPolicy(net), test_env,
                             cfg.eval.n_runs, master_seed=cfg.master_seed)
    return cfg, net, test_env, result
