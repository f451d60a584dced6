"""``evaluate_policy`` encodes an observation only for policies that read it.

It must give what ``helpers.evaluate_oracle`` gives, the loop that encoded a
new observation after every step for every policy and wrote the per-step
arrays item by item: the same bytes in all four arrays and the same run-0
records, for the three baselines, a policy without ``reads_obs`` and the
learned policy with and without observation statistics, over seeds and tiny
topologies whose episodes end before the trace does. A policy that reads the
observation must see, at every step, what ``encode_observation`` gives then;
the baselines must see ``None``.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from helpers import evaluate_oracle
from sfcsim.env import EnvConfig, SfcEnv
from sfcsim.policies import PpoPolicy, RandomPolicy, evaluate_policy, make_baseline
from sfcsim.policy import PolicyNetwork
from sfcsim.simcore import EnergyModel, FailureModel, Topology
from sfcsim.trace import SteppedTrace

FLAKY = FailureModel(mttf_server=3.0, mttr_server=0.5, mttf_vnf=0.5, mttr_vnf=0.1)
RELIABLE = FailureModel(mttf_server=1e9, mttf_vnf=1e9)
KINDS = ("noop", "random", "static_greedy", "reader", "ppo", "ppo_stats")


class ReadingPolicy:
    """Acts at random and declares no ``reads_obs``, so it gets the vector."""

    def __init__(self, head_sizes, seed: int):
        self.inner = RandomPolicy(head_sizes, seed)

    def reset(self, seed: int) -> None:
        self.inner.reset(seed)

    def act(self, obs, env):
        return self.inner.act(obs, env)


def make_policy(kind: str, env: SfcEnv, seed: int):
    if kind in ("noop", "random", "static_greedy"):
        return make_baseline(kind, env, seed)
    if kind == "reader":
        return ReadingPolicy(env.head_sizes, seed)
    net = PolicyNetwork(env.obs_dim, env.head_sizes, seed=seed)
    if kind == "ppo_stats":
        rng = np.random.default_rng(seed)
        net.obs_stats = (rng.normal(size=env.obs_dim), rng.uniform(0.01, 4.0, env.obs_dim))
    return PpoPolicy(net)


def spy_on(policy) -> list:
    """Wrap ``policy.act`` to note each observation it gets: None, or the
    vector (kept) and whether it equals a fresh ``encode_observation``."""
    seen = []
    act = policy.act

    def spying_act(obs, env):
        if obs is None:
            seen.append(None)
        else:
            expected = env.encode_observation()
            seen.append((obs, obs.dtype == expected.dtype
                         and obs.tobytes() == expected.tobytes()))
        return act(obs, env)

    policy.act = spying_act
    return seen


@st.composite
def tiny_envs(draw):
    n_cells = draw(st.integers(1, 4))
    n_steps = draw(st.integers(1, 20))
    values = draw(st.lists(st.floats(0.0, 1e4, allow_nan=False), min_size=n_cells * n_steps,
                           max_size=n_cells * n_steps))
    trace = SteppedTrace(list(range(n_cells)), np.reshape(values, (n_steps, n_cells)),
                         step_duration=draw(st.sampled_from([300, 3600])))
    max_vnfs = draw(st.integers(1, 4))
    topo = Topology(n_dcs=draw(st.integers(1, 3)), servers_per_dc=draw(st.integers(1, 3)),
                    max_vnfs_per_server=max_vnfs,
                    max_same_type_per_server=draw(st.integers(1, max_vnfs)))
    config = EnvConfig(normalize_obs=draw(st.booleans()),
                       activity_scale=draw(st.one_of(st.none(), st.floats(1.0, 1e4))),
                       episode_length=draw(st.one_of(st.none(), st.integers(1, n_steps))))
    failure = draw(st.sampled_from([FLAKY, RELIABLE]))
    return SfcEnv(trace, topo, failure, EnergyModel(), config)


@settings(max_examples=150, deadline=None)
@given(env=tiny_envs(), kind=st.sampled_from(KINDS), n_runs=st.integers(1, 3),
       master_seed=st.integers(0, 2**16))
def test_evaluate_policy_matches_the_encode_every_step_oracle(env, kind, n_runs,
                                                              master_seed):
    expected = evaluate_oracle(make_policy(kind, env, master_seed), env, n_runs,
                               master_seed=master_seed)
    policy = make_policy(kind, env, master_seed)
    seen = spy_on(policy)
    result = evaluate_policy(policy, env, n_runs, master_seed=master_seed)

    for name in ("rewards", "lost", "sfc", "energy"):
        got, want = getattr(result, name), getattr(expected, name)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), name
    assert repr(result.step_records) == repr(expected.step_records)

    assert len(seen) == n_runs * env.episode_steps()
    if kind in ("noop", "random", "static_greedy"):
        assert seen == [None] * len(seen)
    else:
        assert all(entry is not None and entry[1] for entry in seen)
        first = seen[0][0]
        assert all(obs is first for obs, _ in seen)  # one vector for the call
