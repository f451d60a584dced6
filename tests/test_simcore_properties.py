"""Property tests: SimState's incremental aggregates equal a full rescan,
and instances on a down server stay suspended.

Hypothesis draws random interleavings of management actions, clock
advances and forced server failures; after every operation each query is
recomputed from the raw ``instances`` walk and compared exactly, and
``changes`` must equal the processed events plus the accepted creates,
deletes and restarts so far. The second test replays each advance's
processed events in order and checks that no instance event fires while
its server is down.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sfcsim.simcore import (EnergyModel, FailureModel, N_VNF_TYPES, SERVER_FAIL,
                            SERVER_REPAIR, SimState, Topology)

from helpers import force_server_failure, instances

TOPOLOGY = Topology(n_dcs=2, servers_per_dc=3, max_vnfs_per_server=4,
                    max_same_type_per_server=2)
FAILURE = FailureModel(mttf_server=3.0, mttr_server=0.5, mttf_vnf=0.5,
                       mttr_vnf=0.1)
MODEL = EnergyModel()

DC = st.integers(0, TOPOLOGY.n_dcs - 1)
SERVER = st.integers(0, TOPOLOGY.servers_per_dc - 1)
OPERATION = st.one_of(
    # creates drawn twice as often, so DCs fill past the 6 instances where
    # n * watts stops being bit-equal to the sequential sum
    st.tuples(st.just("act"), st.sampled_from((1, 1, 2, 3, 4)), DC, SERVER,
              st.integers(0, N_VNF_TYPES - 1)),
    st.tuples(st.just("advance"), st.floats(0.0, 1.5)),
    st.tuples(st.just("fail_server"), DC, SERVER, st.floats(0.0, 0.5)),
)


def assert_matches_rescan(state: SimState) -> None:
    topo = state.topology
    alloc = np.zeros((topo.n_dcs, topo.servers_per_dc, N_VNF_TYPES), dtype=int)
    up = [0] * N_VNF_TYPES
    per_dc = [0.0] * topo.n_dcs
    for server, inst in instances(state):
        alloc[server.dc_id, server.server_id, inst.vnf_type] += 1
        if server.up and inst.up:
            up[inst.vnf_type] += 1
        per_dc[server.dc_id] += (inst.cpu_units * MODEL.cpu_watts
                                 + inst.mem_units * MODEL.mem_watts)
    counts = state.vnf_counts()
    assert counts.dtype == alloc.dtype and np.array_equal(counts, alloc)
    assert np.array_equal(state.alloc, alloc)
    assert state.operational_type_counts() == up
    assert state.sfc_complete() == all(c > 0 for c in up)
    assert state.energy_consumption(MODEL) == (float(sum(per_dc)), per_dc)
    assert alloc.sum(axis=2).max() <= topo.max_vnfs_per_server
    assert alloc.max() <= topo.max_same_type_per_server


def apply(state: SimState, op: tuple) -> tuple[list, int]:
    """Run one drawn operation; returns the events it processed and 1 for an
    accepted create, delete or restart (else 0)."""
    if op[0] == "act":
        outcome = state.apply_action(*op[1:])
        return [], int(outcome.accepted and op[1] != 4)
    if op[0] == "advance":
        return state.advance_to(state.time + op[1]), 0
    _, dc, sid, delay = op
    server = state.servers[dc][sid]
    if server.up:  # a down server cannot fail again
        force_server_failure(state, server, state.time + delay)
    return [], 0


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**16), operations=st.lists(OPERATION, max_size=100))
def test_aggregates_equal_full_rescan(seed, operations):
    state = SimState(TOPOLOGY, FAILURE, seed=seed)
    last_time = 0.0
    changes = 0
    for op in operations:
        events, accepted = apply(state, op)
        for event in events:
            assert event.time >= last_time
            last_time = event.time
        changes += len(events) + accepted
        assert state.changes == changes
        assert_matches_rescan(state)
    state.vnf_counts()[:] += 1  # changes the caller's copy, not the state
    with pytest.raises(ValueError):
        state.alloc[0, 0, 0] = 1
    assert_matches_rescan(state)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**16), operations=st.lists(OPERATION, max_size=100))
def test_suspended_instances_never_fire(seed, operations):
    state = SimState(TOPOLOGY, FAILURE, seed=seed)
    for op in operations:
        down = {(s.dc_id, s.server_id) for row in state.servers for s in row
                if not s.up}
        for event in apply(state, op)[0]:
            host = (event.dc_id, event.server_id)
            if event.kind == SERVER_FAIL:
                down.add(host)
            elif event.kind == SERVER_REPAIR:
                down.discard(host)
            else:
                assert host not in down, event
        for server, inst in instances(state):
            assert (inst.suspended is not None) == (not server.up)
