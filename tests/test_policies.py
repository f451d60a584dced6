import numpy as np
import pytest

from sfcsim.env import EnvConfig, SfcEnv
from sfcsim.policies import (NoopPolicy, PpoPolicy, RandomPolicy,
                             StaticGreedyPolicy, evaluate_policy,
                             make_baseline)
from sfcsim.policy import PolicyNetwork
from sfcsim.simcore import EnergyModel, FailureModel, Topology
from sfcsim.trace import SteppedTrace

from helpers import step_obs


def flat_trace(n_steps=30, n_cells=3, per_step=300.0):
    return SteppedTrace(list(range(1, n_cells + 1)),
                        np.full((n_steps, n_cells), per_step / n_cells))


def make_env(n_steps=30, **failure_kwargs):
    failure_kwargs.setdefault("mttf_server", 1e12)
    failure_kwargs.setdefault("mttf_vnf", 1e12)
    return SfcEnv(flat_trace(n_steps), Topology(n_dcs=3, servers_per_dc=2),
                  FailureModel(**failure_kwargs), EnergyModel(), EnvConfig())


def test_noop_policy_never_allocates():
    env = make_env()
    result = evaluate_policy(NoopPolicy(), env, n_runs=1, master_seed=1)
    assert np.all(result.sfc == 0)
    # every packet is lost: cumulative lost equals cumulative packets
    np.testing.assert_allclose(result.lost.sum(), 300.0 * 30)


def test_random_policy_is_seed_deterministic():
    env = make_env()
    p = RandomPolicy(env.head_sizes, seed=5)
    obs = env.reset(seed=5)
    p.reset(seed=5)
    first = [p.act(obs, env) for _ in range(20)]
    p.reset(seed=5)
    second = [p.act(obs, env) for _ in range(20)]
    assert first == second
    assert any(a.a != first[0].a for a in first)  # actually random


def test_static_greedy_creates_each_type_first():
    env = make_env()
    policy = StaticGreedyPolicy()
    obs = env.reset(seed=2)
    created = []
    for _ in range(4):
        action = policy.act(obs, env)
        assert action.a == 1
        created.append(action.vnf_type)
        obs, _, _, _ = step_obs(env, action)
    assert created == [0, 1, 2, 3]  # SGW, PGW, MME, HSS in rule order
    # chain complete: next move is no-op (risk still ~0)
    assert policy.act(obs, env).a == 4


def test_static_greedy_restarts_aged_instances():
    env = make_env()  # failures disabled; age the instance by hand
    policy = StaticGreedyPolicy(risk_threshold=0.5)
    obs = env.reset(seed=3)
    for _ in range(4):
        obs, _, _, _ = step_obs(env, policy.act(obs, env))
    # push one age past the risk threshold: risk 0.5 needs age > mttf*ln 2
    target = env.sim.servers[1][0].vnfs[0]
    target.age_anchor -= env.sim.failure.mttf_vnf * 0.8
    action = policy.act(obs, env)
    assert action.a == 3
    assert (action.dc, action.server, action.vnf_type) == \
        (1, 0, target.vnf_type)


def test_ppo_policy_greedy_matches_mode():
    env = make_env()
    obs = env.reset(seed=4)
    net = PolicyNetwork(env.obs_dim, env.head_sizes, seed=8)
    policy = PpoPolicy(net)
    action = policy.act(obs, env)
    comps = net.mode(obs[None, :])[0]
    assert action == env.action_from_components(comps)


def test_make_baseline_names():
    env = make_env()
    assert isinstance(make_baseline("noop", env), NoopPolicy)
    assert isinstance(make_baseline("random", env), RandomPolicy)
    assert isinstance(make_baseline("static_greedy", env), StaticGreedyPolicy)
    with pytest.raises(ValueError):
        make_baseline("dqn", env)


def test_evaluate_policy_shapes_and_summary():
    env = make_env(n_steps=12)
    result = evaluate_policy(StaticGreedyPolicy(), env, n_runs=3, master_seed=7)
    assert result.rewards.shape == (3, 12)
    summary = result.summary()
    assert summary["n_runs"] == 3
    assert 0.0 <= summary["sfc_uptime_fraction"] <= 1.0
    assert np.cumsum(result.lost, axis=1).shape == (3, 12)


def test_evaluate_single_run_has_zero_std():
    env = make_env(n_steps=10)
    result = evaluate_policy(NoopPolicy(), env, n_runs=1, master_seed=2)
    assert result.rewards.std(axis=0).max() == 0.0


def test_evaluate_policy_is_reproducible_and_prefix_stable():
    env = make_env(n_steps=15, mttf_vnf=0.5, mttr_vnf=0.1)
    policy = RandomPolicy(env.head_sizes, seed=0)
    r1 = evaluate_policy(policy, env, n_runs=2, master_seed=3)
    r2 = evaluate_policy(policy, env, n_runs=2, master_seed=3)
    assert np.array_equal(r1.rewards, r2.rewards)
    # run 0 of a 1-run evaluation matches run 0 of a 2-run evaluation
    r3 = evaluate_policy(policy, env, n_runs=1, master_seed=3)
    assert np.array_equal(r3.rewards[0], r1.rewards[0])
