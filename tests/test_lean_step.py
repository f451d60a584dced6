"""The lean env step against its earlier forms, bit for bit.

``SfcEnv.encode_observation`` must equal the two-divide encoding and
``StaticGreedyPolicy.act`` the raw ``instances()`` walk (both kept in
``helpers``) over random action sequences and simulator states. The shared
rejection outcomes must keep their reason strings, and the energy table a
state keeps must follow the model it is asked about.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings, strategies as st

from helpers import encode_observation_oracle, greedy_act_oracle
from sfcsim.env import ActionTuple, EnvConfig, SfcEnv
from sfcsim.policies import StaticGreedyPolicy
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
        if env.done:
            obs = env.reset(seed + 1)
            assert obs.tobytes() == encode_observation_oracle(env).tobytes()
        obs, _, _, _ = env.step(ActionTuple(*action))
        expected = encode_observation_oracle(env)
        assert obs.dtype == expected.dtype and obs.tobytes() == expected.tobytes()


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
