"""The lean env and training steps, the sampler and the baseline rollouts
against their earlier forms, bit for bit.

``SfcEnv.encode_observation`` must equal the two-divide encoding,
``PolicyNetwork.sample`` the per-head sampler, ``StaticGreedyPolicy.act``
the raw ``instances`` walk and ``RandomPolicy``'s block draws the scalar
``Generator.integers`` draws (all kept in ``helpers``) over random action
sequences, simulator states and seeds. The training step
``SfcEnv.step_into`` must give what ``SfcEnv.step`` gives, as Python
scalars. The shared rejection outcomes must keep their reason strings, and
the energy table a state keeps must follow the model it is asked about.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (encode_observation_oracle, greedy_act_oracle, head_log_probs,
                     random_act_oracle, sample_oracle)
from sfcsim.env import ActionTuple, EnvConfig, SfcEnv
from sfcsim.policies import RandomPolicy, StaticGreedyPolicy, make_baseline
from sfcsim.policy import PolicyNetwork
from sfcsim.seeding import entity_rng
from sfcsim.simcore import (EnergyModel, FailureModel, N_VNF_TYPES, SERVER_FAIL,
                            SimState, Topology)
from sfcsim.trace import SteppedTrace

FAILURE = FailureModel(mttf_server=3.0, mttr_server=0.5, mttf_vnf=0.5, mttr_vnf=0.1)


@st.composite
def env_and_actions(draw):
    n_cells = draw(st.integers(1, 5))
    n_steps = draw(st.integers(1, 12))
    values = draw(st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=n_cells * n_steps,
                           max_size=n_cells * n_steps))
    trace = SteppedTrace(list(range(n_cells)), np.reshape(values, (n_steps, n_cells)),
                         step_duration=draw(st.sampled_from([60, 300, 3600])))
    max_vnfs = draw(st.integers(1, 5))
    topo = Topology(n_dcs=draw(st.integers(1, 3)), servers_per_dc=draw(st.integers(1, 3)),
                    max_vnfs_per_server=max_vnfs,
                    max_same_type_per_server=draw(st.integers(1, max_vnfs)))
    scale = draw(st.one_of(st.none(), st.integers(1, 10**6),
                           st.floats(1e-3, 1e6, allow_nan=False)))
    config = EnvConfig(normalize_obs=draw(st.booleans()), activity_scale=scale,
                       episode_length=draw(st.one_of(st.none(), st.integers(1, 12))))
    env = SfcEnv(trace, topo, FAILURE, EnergyModel(), config)
    action = st.tuples(st.sampled_from((1, 1, 2, 3, 4)), st.integers(0, topo.n_dcs - 1),
                       st.integers(0, topo.servers_per_dc - 1),
                       st.integers(0, N_VNF_TYPES - 1))
    return env, draw(st.lists(action, max_size=30)), draw(st.integers(0, 2**16))


@settings(max_examples=200, deadline=None)
@given(case=env_and_actions())
def test_observation_matches_two_divide_encoding_bit_for_bit(case):
    env, actions, seed = case
    obs = env.reset(seed)
    assert obs.tobytes() == encode_observation_oracle(env).tobytes()
    for action in actions:
        obs[:] = np.nan  # a kept allocation block must not be shared with obs
        if env.done:
            obs = env.reset(seed + 1)
            assert obs.tobytes() == encode_observation_oracle(env).tobytes()
            assert not obs[env.n_cells:].any()
            obs[:] = np.nan
        obs, _, _, _ = env.step(ActionTuple(*action))
        expected = encode_observation_oracle(env)
        assert obs.dtype == expected.dtype and obs.tobytes() == expected.tobytes()


def test_reset_clears_the_kept_allocation_block():
    trace = SteppedTrace([1, 2], np.full((3, 2), 10.0))
    env = SfcEnv(trace, Topology(n_dcs=2, servers_per_dc=2),
                 FailureModel(mttf_server=1e12, mttf_vnf=1e12), EnergyModel(),
                 EnvConfig(normalize_obs=True, activity_scale=20.0))
    env.reset(0)
    for vnf_type in range(3):
        obs, _, _, record = env.step(ActionTuple(1, 1, 0, vnf_type))
        assert record.accepted
    assert env.done and obs[2:].sum() > 0
    obs = env.reset(0)
    assert obs.tobytes() == np.array([0.5, 0.5] + [0.0] * 16).tobytes()


@settings(max_examples=200, deadline=None)
@given(case=env_and_actions(), reliable=st.booleans())
def test_step_into_matches_step(case, reliable):
    # short episodes and traces end episodes partway through the actions;
    # creates, deletes and rejected actions (full servers, no instance to
    # delete or restart, down servers) come from the drawn actions, and
    # reliable servers and VNFs let the chain complete
    drawn, actions, seed = case
    failure = FailureModel(mttf_server=1e9, mttf_vnf=1e9) if reliable else FAILURE
    env, twin = (SfcEnv(drawn.trace, drawn.topology, failure, drawn.energy, drawn.config)
                 for _ in range(2))
    row = np.full(env.obs_dim, np.nan)
    episode = 0
    env.reset(seed)
    row[:] = twin.reset(seed)
    for a, dc, server, vnf_type in actions:
        if env.done:
            episode += 1
            env.reset(seed + episode)
            row[:] = twin.reset(seed + episode)
        row[:] = np.nan  # step_into writes every entry
        obs, reward, done, record = env.step(ActionTuple(a, dc, server, vnf_type))
        result = twin.step_into([a - 1, dc, server, vnf_type], row)
        # repr tells np.float64(1.0) from 1.0 and -0.0 from 0.0
        assert repr(result) == repr((reward, record.sfc, record.packets, done))
        assert [type(v) for v in result] == [float, int, float, bool]
        assert row.tobytes() == obs.tobytes()
        assert record.energy_w == env.sim.energy_consumption(env.energy)[0]
        totals = (record.step + 1, record.cum_reward, record.cum_lost,
                  sum(r.sfc for r in env.step_records))
        assert repr(twin.episode_totals()) == repr(env.episode_totals()) == repr(totals)
    if twin.done:
        with pytest.raises(RuntimeError):
            twin.step_into([3, 0, 0, 0], row)


class FixedDraws:
    """A stand-in generator whose ``random`` returns the given draws."""

    def __init__(self, u: np.ndarray):
        self.u = u

    def random(self, shape):
        assert shape == self.u.shape
        return self.u.copy()


@settings(max_examples=200, deadline=None)
@given(batch=st.integers(1, 16), obs_dim=st.integers(1, 12),
       head_sizes=st.lists(st.integers(1, 10), min_size=1, max_size=5),
       weight_scale=st.sampled_from((0.01, 1.0, 30.0)), seed=st.integers(0, 2**32 - 1))
def test_sample_matches_per_head_oracle(batch, obs_dim, head_sizes, weight_scale, seed):
    net = PolicyNetwork(obs_dim, tuple(head_sizes), hidden=(8, 8))
    draw = np.random.default_rng(seed)
    for key, value in net.params.items():  # heads far from the near-uniform init
        net.params[key] = draw.normal(scale=weight_scale, size=value.shape)
    obs = draw.normal(scale=3.0, size=(batch, obs_dim))

    def assert_same(got, want):
        assert got[0].dtype == want[0].dtype and got[0].tolist() == want[0].tolist()
        assert got[1].tobytes() == want[1].tobytes()
        assert got[2].tobytes() == want[2].tobytes()

    rngs = [np.random.default_rng(seed + 1) for _ in range(2)]
    assert_same(net.sample(obs, rngs[0]), sample_oracle(net, obs, rngs[1]))
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
    # draws that land exactly on a cdf value, which the comparison excludes
    cdfs = [np.cumsum(np.exp(lp), axis=1) for lp in head_log_probs(net, obs)]
    u = np.stack([cdf[np.arange(batch), draw.integers(0, cdf.shape[1], batch)]
                  for cdf in cdfs])
    assert_same(net.sample(obs, FixedDraws(u)), sample_oracle(net, obs, FixedDraws(u)))


HEAD_SIZE = st.sampled_from((1, 2, 3, 4, 5, 7, 10, 2**31 + 1, 2**32))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32), head_sizes=st.tuples(*[HEAD_SIZE] * 4),
       n_acts=st.integers(0, 300), reset_seed=st.integers(0, 2**32),
       n_after=st.integers(0, 300))
def test_random_policy_matches_scalar_draws(seed, head_sizes, n_acts, reset_seed, n_after):
    # runs longer than a block cross its boundary; sizes 3, 5, 7, 10 and
    # 2**31 + 1 reject some words, 2**31 + 1 about half of them
    policy = RandomPolicy(head_sizes, seed)
    rng = entity_rng(seed, 30)
    for _ in range(n_acts):
        assert policy.act(None, None) == random_act_oracle(rng, head_sizes)
    policy.reset(reset_seed)  # mostly partway through a block
    rng = entity_rng(reset_seed, 30)
    for _ in range(n_after):
        assert policy.act(None, None) == random_act_oracle(rng, head_sizes)


PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def zero_next_output(rng) -> None:
    """Set a PCG64 generator so that its next 64-bit output is 0 (two zero words)."""
    state = rng.bit_generator.state
    inc = state["state"]["inc"]
    state["state"]["state"] = -inc * pow(PCG64_MULT, -1, 2**128) % 2**128
    state["has_uint32"] = 0
    rng.bit_generator.state = state


@pytest.mark.parametrize("head_sizes, first_acts", [
    # the size-10 head rejects the second zero word: 13 words for three acts
    ((4, 10, 5, 4), [(1, 8, 1, 2), (1, 5, 3, 2), (3, 1, 4, 0)]),
    # the first head rejects both zero words: 14 words for three acts
    ((5, 10, 5, 4), [(5, 2, 3, 0), (3, 7, 2, 2), (1, 9, 0, 3)]),
])
def test_random_policy_draws_past_rejected_words(head_sizes, first_acts):
    policy = RandomPolicy(head_sizes, seed=0)
    rng = entity_rng(0, 30)
    zero_next_output(policy._rng)
    zero_next_output(rng)
    acts = [policy.act(None, None) for _ in range(600)]
    assert acts[:3] == first_acts
    assert acts == [random_act_oracle(rng, head_sizes) for _ in range(600)]


def test_random_policy_rejects_head_sizes_above_two_to_the_32():
    assert make_baseline("random", SimpleNamespace(head_sizes=(4, 2**32, 1, 4)))
    with pytest.raises(ValueError, match="head sizes"):
        make_baseline("random", SimpleNamespace(head_sizes=(4, 2**32 + 1, 1, 4)))


GREEDY_TOPOLOGY = Topology(n_dcs=4, servers_per_dc=2, max_vnfs_per_server=3,
                           max_same_type_per_server=2)
DC = st.integers(0, GREEDY_TOPOLOGY.n_dcs - 1)
SERVER = st.integers(0, GREEDY_TOPOLOGY.servers_per_dc - 1)
OPERATION = st.one_of(
    # several creates between advances give instances of equal age: risk ties
    st.tuples(st.just("act"), st.sampled_from((1, 1, 1, 2, 3, 4)), DC, SERVER,
              st.integers(0, N_VNF_TYPES - 1)),
    st.tuples(st.just("advance"), st.floats(0.0, 1.0)),
    st.tuples(st.just("fail_server"), DC, SERVER),
    st.tuples(st.just("greedy")),
)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**16), operations=st.lists(OPERATION, max_size=80),
       threshold=st.sampled_from((0.0, 0.1, 0.5, 0.9)))
def test_greedy_scan_matches_instances_walk(seed, operations, threshold):
    state = SimState(GREEDY_TOPOLOGY, FAILURE, seed=seed)
    env = SimpleNamespace(sim=state)
    policy = StaticGreedyPolicy(risk_threshold=threshold)
    for op in operations:
        if op[0] == "act":
            state.apply_action(*op[1:])
        elif op[0] == "advance":
            state.advance_to(state.time + op[1])
        elif op[0] == "fail_server":
            server = state.servers[op[1]][op[2]]
            if server.up:
                state._push(state.time, SERVER_FAIL, server)
                state.advance_to(state.time)
        assert state.dc_alloc == tuple(state.alloc.sum(axis=(1, 2)).tolist())
        action = policy.act(None, env)
        assert action == greedy_act_oracle(policy, env)
        if op[0] == "greedy":
            state.apply_action(*action)


def test_greedy_restart_tie_keeps_first_in_walk_order():
    state = SimState(GREEDY_TOPOLOGY, FailureModel(mttf_server=1e12, mttf_vnf=1e12), seed=1)
    env = SimpleNamespace(sim=state)
    for vnf_type in range(N_VNF_TYPES):  # a complete chain in DC 3
        state.apply_action(1, 3, vnf_type // 2, vnf_type)
    state.apply_action(1, 2, 1, 0)  # same age as DC 3's, earlier in the walk
    state.advance_to(2.0)
    policy = StaticGreedyPolicy(risk_threshold=0.0)
    assert state.dc_alloc == (0, 0, 1, 4)
    assert policy.act(None, env) == ActionTuple(3, 2, 1, 0)
    assert greedy_act_oracle(policy, env) == ActionTuple(3, 2, 1, 0)
    state.apply_action(3, 2, 1, 0)  # restarted: DC 3's first instance is next
    assert policy.act(None, env) == ActionTuple(3, 3, 0, 0)


def test_rejection_reasons_are_unchanged():
    topo = Topology(n_dcs=1, servers_per_dc=2, max_vnfs_per_server=2,
                    max_same_type_per_server=1)
    state = SimState(topo, FailureModel(mttf_server=1e12, mttf_vnf=1e12), seed=0)

    def outcome(*action):
        result = state.apply_action(*action)
        return result.accepted, result.reason, result.instance_id

    for _ in range(2):  # a shared outcome stays the same on every use
        assert outcome(4, 0, 0, 0) == (True, "noop", None)
    assert outcome(1, 0, 0, 0) == (True, "created", 0)
    for _ in range(2):
        assert outcome(1, 0, 0, 0) == (False, "type_cap", None)
    assert outcome(1, 0, 0, 1) == (True, "created", 1)
    for _ in range(2):
        assert outcome(1, 0, 0, 2) == (False, "server_full", None)
        assert outcome(2, 0, 1, 0) == (False, "no_instance", None)
        assert outcome(3, 0, 1, 0) == (False, "no_instance", None)
    assert outcome(3, 0, 0, 1) == (True, "restarted", 1)
    assert outcome(2, 0, 0, 1) == (True, "deleted", 1)
    state._push(state.time, SERVER_FAIL, state.servers[0][0])
    state.advance_to(state.time)
    for action in ((1, 0, 0, 3), (2, 0, 0, 0), (3, 0, 0, 0)):
        assert outcome(*action) == (False, "server_down", None)
    assert state.dc_alloc == (1,)


def test_kept_energy_table_follows_the_model():
    state = SimState(Topology(n_dcs=2, servers_per_dc=5), FailureModel(), seed=0)
    for i in range(7):
        state.apply_action(1, 0, i % 5, i % N_VNF_TYPES)
    state.apply_action(1, 1, 0, 0)
    models = [EnergyModel(), EnergyModel(cpu_watts=10.5, mem_watts=3.25), EnergyModel()]
    for model in models:
        watts = model.cpu_watts + model.mem_watts
        per_dc = []
        for n in state.dc_alloc:
            total = 0.0
            for _ in range(n):
                total += watts
            per_dc.append(total)
        assert state.energy_consumption(model) == (float(sum(per_dc)), per_dc)
