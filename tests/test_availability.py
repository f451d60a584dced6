"""The simulator against exact answers from renewal theory.

Every up and down time is exponential, so each server with its instances is
a Markov chain, and the servers are independent. A server is up a fraction
A_s = mttf_server / (mttf_server + mttr_server) of the time. An instance
runs on its server's up-time clock, since a server failure suspends its
pending event without ageing it. On that clock it is up a fraction
A_v = mttf_vnf / (mttf_vnf + mttr_vnf), independently of the other
instances. So given which servers are up, a VNF type is operational with
probability 1 - prod(1 - A_v) over its instances on up servers, and the
chain's long-run up fraction is the mean of the product over the types,
taken over the 2**n_servers server states.

The simulated fraction is the time-weighted mean of ``sfc_complete`` over a
long run with no actions after setup, walked from one entity's ``due`` time
to the next; its standard error comes from batch means. Each event kind's
durations are also checked against their exponential with a
Kolmogorov-Smirnov statistic.

At the env level, after ``SfcEnv.step`` creates one instance of each type on
four distinct servers and ``noop`` runs on, a step loses its packets exactly
when the chain is down at its end. Past a burn-in, each seeded run's lost
packets over its packets estimate 1 - A_chain, and the runs are independent.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from sfcsim.env import ActionTuple, EnvConfig, SfcEnv
from sfcsim.policies import NoopPolicy
from sfcsim.simcore import (N_VNF_TYPES, SERVER_FAIL, SERVER_REPAIR, VNF_FAIL,
                            VNF_REPAIR, EnergyModel, FailureModel, SimState, Topology)
from sfcsim.trace import generate_synthetic_trace

from helpers import instances

TOPOLOGY = Topology(n_dcs=1, servers_per_dc=4, max_vnfs_per_server=5,
                    max_same_type_per_server=2)
FAILURE = FailureModel(mttf_server=10.0, mttr_server=1.0, mttf_vnf=2.0, mttr_vnf=0.5)
HORIZON = 2e4  # hours
N_BATCHES = 50
KS_BOUND = 1.95  # D * sqrt(n) at alpha ~ 0.001

# (server, vnf type) of each instance created at time 0
PLACEMENTS = {
    "one_per_type_distinct_servers": [(0, 0), (1, 1), (2, 2), (3, 3)],
    "types_sharing_a_server": [(0, 0), (0, 1), (1, 2), (1, 3)],
    "type_with_two_instances": [(0, 0), (1, 0), (1, 1), (2, 2), (3, 3)],
}


def exact_chain_availability(placement, failure: FailureModel, n_servers: int) -> float:
    a_s = failure.mttf_server / (failure.mttf_server + failure.mttr_server)
    a_v = failure.mttf_vnf / (failure.mttf_vnf + failure.mttr_vnf)
    total = 0.0
    for ups in itertools.product((True, False), repeat=n_servers):
        p_servers = math.prod(a_s if up else 1.0 - a_s for up in ups)
        p_chain = 1.0
        for vnf_type in range(N_VNF_TYPES):
            n_up_hosts = sum(ups[s] for s, t in placement if t == vnf_type)
            p_chain *= 1.0 - (1.0 - a_v) ** n_up_hosts
        total += p_servers * p_chain
    return total


def placed_state(placement, failure: FailureModel, seed: int) -> SimState:
    state = SimState(TOPOLOGY, failure, seed=seed)
    for server, vnf_type in placement:
        assert state.apply_action(1, 0, server, vnf_type).accepted
    return state


def chain_up_batch_means(state: SimState, horizon: float, n_batches: int) -> np.ndarray:
    """Fraction of each of ``n_batches`` equal spans of [0, horizon) with the
    chain complete, walking from one pending event to the next."""
    entities = [server for row in state.servers for server in row]
    entities += [inst for _, inst in instances(state)]
    width = horizon / n_batches
    means = []
    for b in range(1, n_batches + 1):
        end = b * width
        up_time = 0.0
        while state.time < end:
            t = min(min(e.due for e in entities), end)
            if state.sfc_complete():
                up_time += t - state.time
            state.advance_to(t)
        means.append(up_time / width)
    return np.array(means)


@pytest.mark.parametrize("name, seed", [(name, seed) for seed, name in enumerate(PLACEMENTS)])
def test_chain_up_fraction_matches_renewal_theory(name, seed):
    placement = PLACEMENTS[name]
    exact = exact_chain_availability(placement, FAILURE, TOPOLOGY.servers_per_dc)
    means = chain_up_batch_means(placed_state(placement, FAILURE, seed), HORIZON, N_BATCHES)
    z = (means.mean() - exact) / (means.std(ddof=1) / math.sqrt(N_BATCHES))
    assert abs(z) < 4, (name, means.mean(), exact, z)


def test_exact_availability_of_one_instance_per_type():
    a_s, a_v = 10.0 / 11.0, 0.8
    assert exact_chain_availability(PLACEMENTS["one_per_type_distinct_servers"],
                                    FAILURE, 4) == pytest.approx((a_s * a_v) ** 4)


ENV_STEPS = 2400  # 200 hours of 300-s steps
# steps; the slowest relaxation time, 1 / (1/mttf_server + 1/mttr_server), is 11
ENV_BURN_IN = 120
ENV_SEEDS = range(50)


def noop_run_after_setup(env: SfcEnv, seed: int) -> tuple[np.ndarray, np.ndarray, list]:
    """One run: create type s on server s (retried while a server is down),
    then ``noop``. Returns each step's lost and packets, and its energy
    record next to the number of instances then allocated."""
    env.reset(seed)
    policy = NoopPolicy()
    todo = list(PLACEMENTS["one_per_type_distinct_servers"])
    lost, packets, energy = [], [], []
    while not env.done:
        action = ActionTuple(1, 0, *todo[0]) if todo else policy.act(None, env)
        record = env.step(action)
        if todo and record.accepted:
            todo.pop(0)
        lost.append(record.lost)
        packets.append(record.packets)
        energy.append((record.energy_w, N_VNF_TYPES - len(todo)))
    assert not todo
    return np.array(lost), np.array(packets), energy


def test_noop_env_loses_the_chain_down_fraction_of_packets():
    env = SfcEnv(generate_synthetic_trace(5, ENV_STEPS, seed=3), TOPOLOGY, FAILURE,
                 EnergyModel(), EnvConfig())
    watts = [0.0]  # n instances' watts added one at a time, as the energy table sums them
    for _ in range(N_VNF_TYPES):
        watts.append(watts[-1] + EnergyModel.cpu_watts + EnergyModel.mem_watts)
    exact = exact_chain_availability(PLACEMENTS["one_per_type_distinct_servers"], FAILURE,
                                     TOPOLOGY.servers_per_dc)
    totals = env.trace.step_totals()
    ratios = []
    for seed in ENV_SEEDS:
        lost, packets, energy = noop_run_after_setup(env, seed)
        assert packets.tolist() == totals.tolist()
        assert all(energy_w == watts[n] for energy_w, n in energy)
        ratios.append(lost[ENV_BURN_IN:].sum() / packets[ENV_BURN_IN:].sum())
    ratios = np.array(ratios)
    z = (ratios.mean() - (1 - exact)) / (ratios.std(ddof=1) / math.sqrt(len(ratios)))
    assert abs(z) < 4, (ratios.mean(), 1 - exact, z)


def durations_by_kind(events, started_before: float) -> dict[str, np.ndarray]:
    """Each event's time since its entity's previous event (or since 0), for
    the spans that started before ``started_before``.

    Those spans are a fixed set, unlike the spans that ended by the last
    event, which the end of the run would cut short. They end long before
    it, as every run below lasts twice ``started_before``.
    """
    last: dict[tuple, float] = {}
    durations: dict[str, list[float]] = {}
    for e in events:
        key = (e.dc_id, e.server_id) if e.instance_id is None else e.instance_id
        start = last.get(key, 0.0)
        if start < started_before:
            durations.setdefault(e.kind, []).append(e.time - start)
        last[key] = e.time
    return {kind: np.array(d) for kind, d in durations.items()}


def ks_statistic(samples: np.ndarray, mean: float) -> float:
    """Kolmogorov-Smirnov D of ``samples`` against the exponential of ``mean``."""
    x = np.sort(samples)
    n = len(x)
    cdf = -np.expm1(-x / mean)
    return max((np.arange(1, n + 1) / n - cdf).max(), (cdf - np.arange(n) / n).max())


def assert_exponential(samples: np.ndarray, mean: float, min_n: int) -> None:
    assert len(samples) >= min_n
    assert ks_statistic(samples, mean) * math.sqrt(len(samples)) < KS_BOUND


def test_server_durations_are_exponential():
    state = SimState(TOPOLOGY, FAILURE, seed=11)  # no instances
    durations = durations_by_kind(state.advance_to(10_000.0), 5000.0)
    assert_exponential(durations[SERVER_FAIL], FAILURE.mttf_server, 1500)
    assert_exponential(durations[SERVER_REPAIR], FAILURE.mttr_server, 1500)


def test_vnf_durations_are_exponential():
    # servers never fail, so no suspension stretches an instance's durations
    failure = dataclasses.replace(FAILURE, mttf_server=math.inf)
    state = placed_state(PLACEMENTS["type_with_two_instances"], failure, seed=12)
    durations = durations_by_kind(state.advance_to(2000.0), 1000.0)
    assert SERVER_FAIL not in durations
    assert_exponential(durations[VNF_FAIL], failure.mttf_vnf, 1500)
    assert_exponential(durations[VNF_REPAIR], failure.mttr_vnf, 1500)


@pytest.mark.parametrize("mean", [0.5, 10.0])
def test_ks_statistic_rejects_a_wrong_mean(mean):
    samples = np.random.default_rng(0).exponential(1.25 * mean, 2000)
    assert ks_statistic(samples, mean) * math.sqrt(len(samples)) > KS_BOUND
