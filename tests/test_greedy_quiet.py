"""``StaticGreedyPolicy``'s quiet-step fast path against the full scan.

A scan that ends in a no-op keeps ``(sim, sim.changes, oldest anchor)``, and
later acts on that sim return the no-op without scanning while ``changes``
holds and the oldest eligible instance has not passed the skip floor. One
policy is kept across sub-step clock advances, outside creates, deletes and
restarts, forced server failures, threshold writes and clock moves that land
the oldest age on the floor or one ulp either side; every act must equal
``greedy_act_oracle``. The policy must also serve two simulators in turn
and many evaluation runs as a fresh policy per simulator would.
"""

import math
from types import SimpleNamespace

import numpy as np
from hypothesis import event, given, settings, strategies as st

from helpers import (force_server_failure, greedy_act_oracle, instances, nudge,
                     skip_floor)
from sfcsim.env import ActionTuple, EnvConfig, SfcEnv
from sfcsim.policies import StaticGreedyPolicy, evaluate_policy
from sfcsim.simcore import EnergyModel, FailureModel, N_VNF_TYPES, SimState, Topology
from sfcsim.trace import SteppedTrace

TOPOLOGY = Topology(n_dcs=2, servers_per_dc=2, max_vnfs_per_server=3,
                    max_same_type_per_server=2)
DC = st.integers(0, TOPOLOGY.n_dcs - 1)
SERVER = st.integers(0, TOPOLOGY.servers_per_dc - 1)
# below 1e-6 and from 1 on, the floor is -inf and only an empty scan set is
# quiet; thresholds with a floor are drawn five times as often
THRESHOLDS = (-0.5, 0.0, 1e-7, 1.0) + (1e-6, 0.1, 0.5, 0.9) * 5
# runs of sub-step advances, an act after each: about half of all acts are quiet
TICKS = st.tuples(st.just("ticks"), st.integers(8, 30), st.floats(0.0, 0.003))
OPERATION = st.one_of(
    TICKS, TICKS, TICKS,
    st.tuples(st.just("act"), st.sampled_from((1, 2, 3)), DC, SERVER,
              st.integers(0, N_VNF_TYPES - 1)),
    st.tuples(st.just("fail_server"), DC, SERVER),
    st.tuples(st.just("at_floor"), st.integers(-1, 1)),
    st.tuples(st.just("threshold"), st.sampled_from(THRESHOLDS)),
)


def oldest_anchor(state) -> float:
    """Smallest anchor of an up instance on an up server, the set the scan scores."""
    return min((inst.age_anchor for server, inst in instances(state)
                if server.up and inst.up), default=math.inf)


def act_and_see_scan(policy, env) -> tuple[ActionTuple, bool]:
    """The policy's act, and whether it scanned: every scan asks the type counts."""
    state = env.sim
    calls = []

    def counted():
        calls.append(1)
        return SimState.operational_type_counts(state)

    state.operational_type_counts = counted
    try:
        action = policy.act(None, env)
    finally:
        del state.operational_type_counts
    return action, bool(calls)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**16), operations=st.lists(OPERATION, max_size=40),
       threshold=st.sampled_from(THRESHOLDS), mttf_vnf=st.sampled_from((0.5, 2.0, 24.0)))
def test_quiet_fast_path_matches_the_full_scan(seed, operations, threshold, mttf_vnf):
    failure = FailureModel(mttf_server=3.0, mttr_server=0.5, mttf_vnf=mttf_vnf,
                           mttr_vnf=0.1)
    state = SimState(TOPOLOGY, failure, seed=seed)
    env = SimpleNamespace(sim=state)
    policy = StaticGreedyPolicy(risk_threshold=threshold)
    for _ in range(N_VNF_TYPES):  # let the policy build the chain first
        state.apply_action(*policy.act(None, env))
    for op in operations:
        if op[0] == "act":
            state.apply_action(*op[1:])
        elif op[0] == "fail_server":
            server = state.servers[op[1]][op[2]]
            if server.up:
                force_server_failure(state, server, state.time)
                state.advance_to(state.time)
        elif op[0] == "at_floor":
            # move the clock so that now - oldest is the floor, or one ulp off
            boundary = oldest_anchor(state) + skip_floor(policy.risk_threshold, mttf_vnf)
            if state.time <= boundary < math.inf:
                state.advance_to(max(state.time, nudge(boundary, op[1])))
        elif op[0] == "threshold":
            policy.risk_threshold = op[1]
        for _ in range(op[1] if op[0] == "ticks" else 1):
            if op[0] == "ticks":
                state.advance_to(state.time + op[2])
            action, scanned = act_and_see_scan(policy, env)
            event(f"{op[0]}: {'scan' if scanned else 'fast path'}")
            assert action == greedy_act_oracle(policy, env)
            state.apply_action(*action)  # as an evaluation step would


def test_quiet_step_skips_the_scan():
    state = SimState(TOPOLOGY, FailureModel(mttf_server=1e15, mttf_vnf=1e9), seed=0)
    env = SimpleNamespace(sim=state)
    policy = StaticGreedyPolicy(risk_threshold=1e-3)  # a floor of about 1.0005e6 hours
    for _ in range(N_VNF_TYPES):
        state.apply_action(*policy.act(None, env))
    assert act_and_see_scan(policy, env) == (ActionTuple(4, 0, 0, 0), True)
    state.advance_to(1e6)
    assert act_and_see_scan(policy, env) == (ActionTuple(4, 0, 0, 0), False)
    assert state.changes == N_VNF_TYPES  # nothing failed meanwhile
    state.advance_to(1.001e6)  # past the floor: the oldest instances are scored
    assert act_and_see_scan(policy, env) == (ActionTuple(3, 0, 0, 0), True)
    state.apply_action(3, 0, 0, 0)
    assert act_and_see_scan(policy, env) == (ActionTuple(3, 0, 1, 1), True)


def test_one_policy_two_states_in_turn():
    # Equal seeds and equal change counts, but the second chain lacks HSS: a
    # fast path keyed on the count alone would answer it with the first's no-op.
    failure = FailureModel(mttf_server=3.0, mttr_server=0.5, mttf_vnf=0.5, mttr_vnf=0.1)
    first, second = SimState(TOPOLOGY, failure, seed=7), SimState(TOPOLOGY, failure, seed=7)
    for vnf_type in range(N_VNF_TYPES):
        first.apply_action(1, 0, vnf_type // 2, vnf_type)
    for server, vnf_type in ((0, 0), (0, 1), (1, 2), (1, 0)):
        second.apply_action(1, 1, server, vnf_type)
    assert first.changes == second.changes
    envs = [SimpleNamespace(sim=first), SimpleNamespace(sim=second)]
    policy = StaticGreedyPolicy()
    actions = set()
    for step in range(400):
        env = envs[step % 2]
        action = policy.act(None, env)
        assert action == greedy_act_oracle(policy, env)
        actions.add(action.a)
        if step % 3:
            env.sim.apply_action(*action)
        env.sim.advance_to(env.sim.time + 0.003)
    assert actions == {1, 3, 4}


def test_reused_policy_evaluates_as_fresh_ones():
    rng = np.random.default_rng(3)
    trace = SteppedTrace([1, 2, 3], rng.uniform(0.0, 100.0, (240, 3)))
    env = SfcEnv(trace, TOPOLOGY,
                 FailureModel(mttf_server=20.0, mttr_server=0.5, mttf_vnf=2.0, mttr_vnf=0.1),
                 EnergyModel(), EnvConfig())
    seeds = [11, 12, 13, 14]
    reused = evaluate_policy(StaticGreedyPolicy(), env, len(seeds), seeds=seeds)
    fresh = [evaluate_policy(StaticGreedyPolicy(), env, 1, seeds=[seed]) for seed in seeds]
    for name in ("rewards", "lost", "sfc", "energy"):
        got = getattr(reused, name)
        want = np.concatenate([getattr(run, name) for run in fresh])
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert {rec.a for rec in reused.step_records} >= {1, 3, 4}
