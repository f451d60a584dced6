import math

import numpy as np
import pytest

from sfcsim.simcore import (EnergyModel, FailureModel, N_VNF_TYPES, SERVER_FAIL,
                            SimState, Topology, VNF_FAIL, VNF_REPAIR, VNF_TYPES,
                            sample_exponential, vnf_fail_risk)

from helpers import force_server_failure, instances, write_event_log


def small_state(seed=0, **failure_kwargs):
    topo = Topology(n_dcs=2, servers_per_dc=2)
    return SimState(topo, FailureModel(**failure_kwargs), seed=seed)


def type_count(server, vnf_type):
    return sum(1 for v in server.vnfs if v.vnf_type == vnf_type)


# ------------------------------------------------------------------ topology

def test_reference_init_schedules_one_failure_per_server():
    state = SimState(Topology(), FailureModel())
    assert len(state._heap) == 50
    assert all(inst is None and time == server.due and server.up
               for time, _, server, inst in state._heap)
    assert sum(1 for _ in instances(state)) == 0


def test_single_server_init():
    state = SimState(Topology(n_dcs=1, servers_per_dc=1), FailureModel())
    assert len(state._heap) == 1


def test_init_is_seed_deterministic():
    s1 = SimState(Topology(), FailureModel(), seed=42)
    s2 = SimState(Topology(), FailureModel(), seed=42)
    assert sorted(e[0] for e in s1._heap) == sorted(e[0] for e in s2._heap)


def test_topology_validation():
    with pytest.raises(ValueError):
        Topology(n_dcs=0)
    with pytest.raises(ValueError):
        Topology(max_vnfs_per_server=2, max_same_type_per_server=3)
    assert len(VNF_TYPES) == N_VNF_TYPES == 4


# --------------------------------------------------------------- exponential

class FixedRng:
    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def test_exponential_inverse_cdf_identity():
    # u chosen so 1-u = e^-1; the draw must equal the mean exactly
    mean = 24.0
    assert sample_exponential(FixedRng(1.0 - math.exp(-1.0)), mean) == \
        pytest.approx(mean, rel=1e-12)


def test_exponential_strictly_positive():
    rng = np.random.default_rng(0)
    draws = [sample_exponential(rng, 0.033) for _ in range(10_000)]
    assert min(draws) > 0.0


def test_exponential_sample_mean_24():
    rng = np.random.default_rng(1)
    draws = np.array([sample_exponential(rng, 24.0) for _ in range(100_000)])
    assert abs(draws.mean() - 24.0) < 0.3


def test_exponential_sample_mean_8760():
    rng = np.random.default_rng(2)
    draws = np.array([sample_exponential(rng, 8760.0) for _ in range(100_000)])
    assert abs(draws.mean() - 8760.0) / 8760.0 < 0.02


# ------------------------------------------------------------------- actions

def test_create_and_reject_on_full_server():
    state = small_state()
    for i in range(5):
        outcome = state.apply_action(1, 0, 0, i % 3)
        assert outcome.accepted
    outcome = state.apply_action(1, 0, 0, 3)
    assert not outcome.accepted and outcome.reason == "server_full"
    assert len(state.servers[0][0].vnfs) == 5


def test_same_type_cap_enforced():
    state = small_state()
    assert state.apply_action(1, 0, 0, 0).accepted
    assert state.apply_action(1, 0, 0, 0).accepted
    outcome = state.apply_action(1, 0, 0, 0)
    assert not outcome.accepted and outcome.reason == "type_cap"


def test_noop_changes_nothing():
    state = small_state()
    before = len(state._heap)
    outcome = state.apply_action(4, 0, 0, 0)
    assert outcome.accepted
    assert len(state._heap) == before
    assert sum(1 for _ in instances(state)) == 0


def test_delete_targets_highest_risk_instance():
    # Action {2,1,2,3} must delete the type-3 instance with the highest
    # fail risk in server 2 of DC 1.
    topo = Topology(n_dcs=2, servers_per_dc=3, max_same_type_per_server=3)
    state = SimState(topo, FailureModel())
    # three type-3 instances created at hours 0, 13, 22 -> ages 23, 10, 1
    state.apply_action(1, 1, 2, 3)
    oldest = state.servers[1][2].vnfs[0].instance_id
    state.advance_to(13.0)
    state.apply_action(1, 1, 2, 3)
    state.advance_to(22.0)
    state.apply_action(1, 1, 2, 3)
    state.advance_to(23.0)
    outcome = state.apply_action(2, 1, 2, 3)
    assert outcome.accepted
    assert outcome.instance_id == oldest
    assert type_count(state.servers[1][2], 3) == 2


def test_delete_without_instance_rejected():
    state = small_state()
    outcome = state.apply_action(2, 0, 0, 0)
    assert not outcome.accepted and outcome.reason == "no_instance"


def test_restart_reschedules_failure_and_resets_risk():
    state = small_state(mttf_vnf=1000.0)
    state.apply_action(1, 0, 0, 2)
    inst = state.servers[0][0].vnfs[0]
    state.advance_to(50.0)
    assert vnf_fail_risk(inst, state.time, 1000.0) > 0.0
    old_failure = inst.due
    outcome = state.apply_action(3, 0, 0, 2)
    assert outcome.accepted
    assert vnf_fail_risk(inst, state.time, 1000.0) == 0.0
    assert inst.due != old_failure
    assert inst.due > state.time


def test_actions_on_down_server_rejected():
    state = small_state()
    server = state.servers[0][0]
    force_server_failure(state, server, 0.0)
    state.advance_to(0.0)
    assert not server.up
    for a in (1, 2, 3):
        outcome = state.apply_action(a, 0, 0, 0)
        assert not outcome.accepted and outcome.reason == "server_down"


def test_out_of_range_action_raises():
    state = small_state()
    with pytest.raises(ValueError):
        state.apply_action(5, 0, 0, 0)
    with pytest.raises(ValueError):
        state.apply_action(1, 9, 0, 0)


# ----------------------------------------------------------------- fail risk

def test_fail_risk_zero_at_birth():
    state = small_state()
    state.apply_action(1, 0, 0, 0)
    inst = state.servers[0][0].vnfs[0]
    assert vnf_fail_risk(inst, state.time, 24.0) == 0.0


def test_fail_risk_closed_form_at_mttf():
    state = small_state(mttf_vnf=24.0)
    state.apply_action(1, 0, 0, 0)
    inst = state.servers[0][0].vnfs[0]
    assert vnf_fail_risk(inst, 24.0, 24.0) == pytest.approx(1 - math.exp(-1), rel=1e-12)


def test_fail_risk_monotone_in_age():
    state = small_state()
    risks = [vnf_fail_risk(
        type("I", (), {"age_anchor": 24.0 - age})(), 24.0, 24.0)
        for age in (1.0, 10.0, 23.0)]
    assert risks == sorted(risks)


# ------------------------------------------------------------- advance / SFC

def test_advance_without_events_is_empty():
    state = small_state(mttf_server=1e12)
    events = state.advance_to(5.0)
    assert events == []
    assert state.time == 5.0


def test_advance_backwards_rejected():
    state = small_state()
    state.advance_to(1.0)
    with pytest.raises(ValueError):
        state.advance_to(0.5)


def test_server_repair_restores_hosted_vnfs():
    # A server with 3 VNFs fails and repairs: all 3 operational afterwards.
    state = small_state(mttf_server=1e12, mttf_vnf=1e12)
    for t in range(3):
        state.apply_action(1, 0, 0, t)
    server = state.servers[0][0]
    # force a failure now by scheduling it manually through the event queue
    force_server_failure(state, server, 10.0)
    events = state.advance_to(10.0)
    assert any(e.kind == SERVER_FAIL for e in events)
    assert not server.up
    assert not state.sfc_complete()
    repair_time = server.due
    events = state.advance_to(repair_time + 1.0)
    assert server.up
    assert all(inst.up for inst in server.vnfs)
    ops = state.operational_type_counts()
    assert ops[0] == ops[1] == ops[2] == 1


def test_server_down_from_time_zero_freezes_instance_age():
    # A failure at exactly 0.0 still counts its whole downtime.
    state = SimState(Topology(n_dcs=1, servers_per_dc=1),
                     FailureModel(mttf_server=1e12, mttf_vnf=1e12), seed=0)
    state.apply_action(1, 0, 0, 0)
    inst = state.servers[0][0].vnfs[0]
    force_server_failure(state, state.servers[0][0], 0.0)
    events = state.advance_to(50.0)
    assert (events[0].kind, events[0].time) == (SERVER_FAIL, 0.0)
    repaired_at = events[1].time
    assert events[1].kind == "server_repair" and repaired_at > 0.0
    assert inst.age_anchor == repaired_at


def test_sfc_complete_transitions():
    state = small_state(mttf_server=1e12, mttf_vnf=1e12)
    assert not state.sfc_complete()  # fresh state
    for t in range(4):
        state.apply_action(1, t % 2, t // 2, t)
    assert state.sfc_complete()
    # brute-force oracle: per-type operational counts
    assert all(c >= 1 for c in state.operational_type_counts())


def test_sfc_incomplete_when_only_host_down():
    state = small_state(mttf_server=1e12, mttf_vnf=1e12)
    for t in range(4):
        state.apply_action(1, 0, 0 if t < 3 else 1, t)
    assert state.sfc_complete()
    host = state.servers[0][1]  # the only HSS host
    force_server_failure(state, host, 1.0)
    state.advance_to(1.0)
    assert not host.up
    assert not state.sfc_complete()
    counts = state.operational_type_counts()
    assert counts[3] == 0


def test_vnf_failure_and_repair_cycle():
    state = small_state(mttf_vnf=1.0, mttr_vnf=0.5, mttf_server=1e12)
    state.apply_action(1, 0, 0, 0)
    inst = state.servers[0][0].vnfs[0]
    fail_at = inst.due
    events = state.advance_to(fail_at)
    assert events[-1].kind == VNF_FAIL
    assert not inst.up
    assert inst.due > fail_at
    events = state.advance_to(inst.due)
    assert events[-1].kind == VNF_REPAIR
    assert inst.up
    assert inst.age_anchor == pytest.approx(state.time)


def test_deleted_instance_events_are_cancelled():
    state = small_state(mttf_vnf=0.1, mttr_vnf=0.05, mttf_server=1e12)
    state.apply_action(1, 0, 0, 0)
    state.apply_action(2, 0, 0, 0)
    events = state.advance_to(100.0)
    assert all(e.kind not in (VNF_FAIL, VNF_REPAIR) for e in events)


# ------------------------------------------------------------------- energy

def test_energy_single_vnf_reference_wattage():
    state = small_state()
    state.apply_action(1, 0, 0, 0)
    total, per_dc = state.energy_consumption(EnergyModel())
    assert total == pytest.approx(70.72)
    assert per_dc == [pytest.approx(70.72), 0.0]


def test_energy_empty_state_is_zero():
    total, per_dc = small_state().energy_consumption(EnergyModel())
    assert total == 0.0 and sum(per_dc) == 0.0


def test_energy_four_vnfs_across_two_dcs():
    state = small_state()
    for t in range(4):
        state.apply_action(1, t % 2, 0, t)
    total, per_dc = state.energy_consumption(EnergyModel())
    assert total == pytest.approx(4 * 70.72)
    assert total == pytest.approx(282.88)
    assert sum(per_dc) == pytest.approx(total)
    assert per_dc[0] == pytest.approx(2 * 70.72)


def test_down_instances_still_draw_power():
    state = small_state(mttf_server=1e12)
    state.apply_action(1, 0, 0, 0)
    inst = state.servers[0][0].vnfs[0]
    events = state.advance_to(inst.due)
    assert events[-1].kind == VNF_FAIL and not inst.up
    total, _ = state.energy_consumption(EnergyModel())
    assert total == pytest.approx(70.72)


# ---------------------------------------------------------------- invariants

def random_action_walk(state, rng, n_steps, dt=1.0):
    events = []
    for _ in range(n_steps):
        a = int(rng.integers(1, 5))
        state.apply_action(a, int(rng.integers(state.topology.n_dcs)),
                           int(rng.integers(state.topology.servers_per_dc)),
                           int(rng.integers(N_VNF_TYPES)))
        events.extend(state.advance_to(state.time + dt))
    return events


def test_event_times_non_decreasing_and_seq_tiebreak():
    state = small_state(seed=5, mttf_vnf=2.0, mttr_vnf=0.5)
    events = random_action_walk(state, np.random.default_rng(8), 300)
    keys = [(e.time, e.seq) for e in events]
    assert keys == sorted(keys)


def test_capacity_invariants_hold_after_random_actions():
    state = small_state(seed=6, mttf_vnf=2.0, mttr_vnf=0.5)
    rng = np.random.default_rng(9)
    for _ in range(500):
        state.apply_action(int(rng.integers(1, 5)), int(rng.integers(2)),
                           int(rng.integers(2)), int(rng.integers(4)))
        state.advance_to(state.time + 0.1)
        for row in state.servers:
            for server in row:
                assert len(server.vnfs) <= state.topology.max_vnfs_per_server
                for t in range(N_VNF_TYPES):
                    assert type_count(server, t) <= \
                        state.topology.max_same_type_per_server


def test_state_machine_soundness():
    # After any walk: up components have a pending failure, down components a
    # pending repair (instances on down servers are suspended instead).
    state = small_state(seed=7, mttf_vnf=1.0, mttr_vnf=0.3, mttf_server=50.0,
                        mttr_server=5.0)
    rng = np.random.default_rng(10)
    random_action_walk(state, rng, 400, dt=0.7)
    live = {}  # entity -> its live entries; one is live when its time is the due
    for time, seq, server, inst in state._heap:
        entity = inst or server
        if time == entity.due:
            live[id(entity)] = live.get(id(entity), 0) + 1
    for row in state.servers:
        for server in row:
            assert live[id(server)] == 1 and server.due >= state.time
            for inst in server.vnfs:
                if server.up:
                    assert inst.suspended is None
                    assert live[id(inst)] == 1
                    assert inst.due >= state.time - 1e-12
                else:
                    assert inst.suspended is not None and inst.due == math.inf
                    assert id(inst) not in live


def test_walk_is_deterministic():
    logs = []
    for _ in range(2):
        state = small_state(seed=11, mttf_vnf=1.5, mttr_vnf=0.4)
        events = random_action_walk(state, np.random.default_rng(12), 300)
        logs.append([(e.time, e.kind, e.dc_id, e.server_id, e.instance_id)
                     for e in events])
    assert logs[0] == logs[1]


def test_duplicate_entry_at_due_leaves_the_event_log_unchanged(tmp_path):
    # An entry is live exactly when its time is its entity's ``due``: a
    # second entry at the same time fires nothing once the first has fired
    # and rescheduled, so the exported log keeps its bytes.
    logs = []
    for duplicate in (False, True):
        state = small_state(seed=11, mttf_vnf=1.5, mttr_vnf=0.4, mttf_server=20.0,
                            mttr_server=2.0)
        rng = np.random.default_rng(12)
        events = random_action_walk(state, rng, 150)
        if duplicate:
            for row in state.servers:
                for server in row:
                    state._push(server.due, server)
                    for inst in server.vnfs:
                        if inst.due < math.inf:  # suspended instances have none
                            state._push(inst.due, server, inst)
        events += random_action_walk(state, rng, 150)
        path = tmp_path / f"events_{duplicate}.csv"
        write_event_log(events, path)
        logs.append(path.read_bytes())
    assert logs[0] == logs[1]


def test_action_timing_does_not_perturb_other_entities():
    # Per-entity RNG streams: creating extra VNFs elsewhere must not change
    # an existing server's failure schedule.
    s1 = small_state(seed=13)
    s2 = small_state(seed=13)
    s2.apply_action(1, 1, 1, 0)
    s2.apply_action(1, 1, 1, 1)
    t1 = s1.servers[0][0].due
    t2 = s2.servers[0][0].due
    assert t1 == t2


def test_event_log_export_schema(tmp_path):
    state = small_state(seed=15, mttf_vnf=0.5, mttr_vnf=0.2, mttf_server=20.0,
                        mttr_server=2.0)
    state.apply_action(1, 0, 0, 0)
    state.apply_action(1, 1, 1, 3)
    events = state.advance_to(50.0)
    assert events
    path = tmp_path / "events.csv"
    write_event_log(events, path, comments=["config_hash=x seed=15"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# config_hash=x seed=15"
    assert lines[1] == "time_hours,kind,dc,server,instance_id,vnf_type"
    assert len(lines) == 2 + len(events)
    first = lines[2].split(",")
    assert float(first[0]) > 0.0
    assert first[1] in ("server_fail", "server_repair", "vnf_fail", "vnf_repair")
    # VNF rows carry the type name; server rows leave it empty
    for line, event in zip(lines[2:], events):
        fields = line.split(",")
        if event.instance_id is None:
            assert fields[4] == "" and fields[5] == ""
        else:
            assert fields[5] in ("SGW", "PGW", "MME", "HSS")


def test_availability_matches_renewal_theory_smoke():
    # Short check of the availability oracle; acceptance runs the full one.
    failure = FailureModel(mttf_vnf=2.0, mttr_vnf=0.5, mttf_server=1e12)
    state = SimState(Topology(n_dcs=1, servers_per_dc=1), failure, seed=3)
    state.apply_action(1, 0, 0, 0)
    horizon = 4000.0
    events = state.advance_to(horizon)
    up_time = 0.0
    last_t, last_up = 0.0, True
    for e in events:
        if last_up:
            up_time += e.time - last_t
        last_t, last_up = e.time, e.kind == VNF_REPAIR
    if last_up:
        up_time += horizon - last_t
    expected = 2.0 / 2.5
    assert abs(up_time / horizon - expected) < 0.02
