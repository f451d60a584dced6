import numpy as np
import pytest

from sfcsim.env import ActionTuple, EnvConfig, SfcEnv, write_step_records
from sfcsim.simcore import EnergyModel, FailureModel, SimState, Topology
from sfcsim.trace import SteppedTrace, generate_synthetic_trace

from helpers import instances, step_obs

NOOP = ActionTuple(4, 0, 0, 0)


def flat_trace(total_per_step=400.0, n_steps=50, n_cells=4) -> SteppedTrace:
    return SteppedTrace(list(range(1, n_cells + 1)),
                        np.full((n_steps, n_cells), total_per_step / n_cells))


def make_env(trace=None, topo=None, config=None, **failure_kwargs) -> SfcEnv:
    failure_kwargs.setdefault("mttf_server", 1e12)
    failure_kwargs.setdefault("mttf_vnf", 1e12)
    return SfcEnv(trace if trace is not None else flat_trace(),
                  topo or Topology(), FailureModel(**failure_kwargs),
                  EnergyModel(), config or EnvConfig())


def complete_sfc(env):
    for t in range(4):
        obs, r, d, rec = step_obs(env, ActionTuple(1, t, 0, t))
    return obs, r, d, rec


# -------------------------------------------------------------------- reset

def test_reset_gives_zero_vnf_counts():
    env = make_env()
    obs = env.reset(seed=4)
    assert env.n_cells == 4 and obs.shape == (env.obs_dim,)
    assert np.all(obs[env.n_cells:] == 0)


def test_reference_observation_length_is_476():
    trace = generate_synthetic_trace(276, 60, seed=0)
    env = SfcEnv(trace, Topology(), FailureModel(), EnergyModel(), EnvConfig())
    obs = env.reset(seed=0)
    assert env.obs_dim == 476
    assert obs.shape == (476,) and obs.dtype == np.float64


def test_same_seed_same_trajectory():
    rewards = []
    for _ in range(2):
        env = SfcEnv(flat_trace(), Topology(),
                     FailureModel(mttf_vnf=0.5, mttr_vnf=0.1),
                     EnergyModel(), EnvConfig())
        env.reset(seed=21)
        run = []
        for i in range(30):
            a = ActionTuple(1, i % 10, i % 5, i % 4) if i < 8 else NOOP
            _, r, _, _ = step_obs(env, a)
            run.append(r)
        rewards.append(run)
    assert rewards[0] == rewards[1]


# -------------------------------------------------------------------- reward

def test_first_step_loses_all_packets():
    env = make_env()
    env.reset(seed=0)
    _, reward, _, rec = step_obs(env, NOOP)
    assert reward == pytest.approx(-400.0)
    assert rec.sfc == 0
    assert rec.lost == pytest.approx(400.0)
    assert rec.energy_w == 0.0


def test_complete_sfc_reward_reference_value():
    env = make_env()
    env.reset(seed=0)
    complete_sfc(env)
    _, reward, _, rec = step_obs(env, NOOP)
    assert reward == pytest.approx(100.0 - 0.01 * 282.88)
    assert reward == pytest.approx(97.1712)
    assert rec.sfc == 1 and rec.lost == 0.0


def test_accepted_restart_costs_one():
    env = make_env()
    env.reset(seed=0)
    complete_sfc(env)
    _, reward, _, rec = step_obs(env, ActionTuple(3, 0, 0, 0))
    assert reward == pytest.approx(97.1712 - 1.0)
    assert rec.a == 3 and rec.accepted


def test_rejected_restart_is_free():
    env = make_env()
    env.reset(seed=0)
    complete_sfc(env)
    # no type-2 instance on server (5,0): restart rejected, no penalty
    _, reward, _, rec = step_obs(env, ActionTuple(3, 5, 0, 2))
    assert rec.a == 3 and not rec.accepted
    assert reward == pytest.approx(97.1712)


def test_reward_decomposition_identity_random_steps():
    env = SfcEnv(flat_trace(n_steps=300), Topology(),
                 FailureModel(mttf_vnf=0.4, mttr_vnf=0.1), EnergyModel(),
                 EnvConfig())
    env.reset(seed=33)
    cfg = env.config
    rng = np.random.default_rng(14)
    for _ in range(250):
        a = ActionTuple(int(rng.integers(1, 5)), int(rng.integers(10)),
                        int(rng.integers(5)), int(rng.integers(4)))
        _, reward, done, rec = step_obs(env, a)
        assert rec is env.step_records[-1]
        assert (rec.a, rec.dc, rec.server, rec.vnf_type) == a
        assert rec.reward == reward
        restarted = 1 if (a.a == 3 and rec.accepted) else 0
        assert reward == pytest.approx(
            -(1 - rec.sfc) * cfg.w_p * rec.packets - cfg.w_e * rec.energy_w
            - cfg.restart_penalty * restarted + rec.sfc * cfg.f, abs=0.0)
        assert rec.lost == (1 - rec.sfc) * rec.packets
        # independent recomputation from a rescan of the raw simulator state
        up_types = {inst.vnf_type for server, inst in instances(env.sim)
                    if server.up and inst.up}
        sfc = 1 if len(up_types) == 4 else 0
        energy = sum(70.72 for _, _ in instances(env.sim))
        assert rec.sfc == sfc
        assert rec.energy_w == pytest.approx(energy, abs=1e-7)
        if done:
            break


def test_binary_reward_structure_without_energy():
    cfg = EnvConfig(w_e=0.0, restart_penalty=0.0)
    env = SfcEnv(flat_trace(n_steps=200), Topology(),
                 FailureModel(mttf_vnf=0.5, mttr_vnf=0.1), EnergyModel(), cfg)
    env.reset(seed=5)
    rng = np.random.default_rng(15)
    for _ in range(150):
        a = ActionTuple(int(rng.integers(1, 5)), int(rng.integers(10)),
                        int(rng.integers(5)), int(rng.integers(4)))
        _, reward, done, rec = step_obs(env, a)
        assert reward in (pytest.approx(-rec.packets), pytest.approx(100.0))
        if done:
            break


def test_deleting_last_instance_of_a_type_breaks_sfc():
    env = make_env()
    env.reset(seed=0)
    _, _, _, rec = complete_sfc(env)
    assert rec.sfc == 1
    rec = env.step(ActionTuple(2, 2, 0, 2))  # delete the only MME
    assert rec.sfc == 0
    assert rec.lost == pytest.approx(400.0)


# ------------------------------------------------------------------- actions

def test_validate_action_accepts_reference_create():
    env = make_env()
    env.reset(seed=0)
    env.step(ActionTuple(1, 0, 0, 0))
    assert env.step_records[-1].accepted
    assert SimState(Topology(), FailureModel()).apply_action(1, 0, 0, 0).accepted


@pytest.mark.parametrize("raw,message", [
    ((5, 0, 0, 0), "action type"),
    ((1, 10, 0, 0), "dc index"),
    ((1, 0, 5, 0), "server index"),
    ((1, 0, 0, 4), "vnf type"),
    ((4, 10, 0, 0), "dc index"),  # a no-op's indices are checked too
])
def test_validate_action_names_offending_component(raw, message):
    # SimState.apply_action holds the only range check; SfcEnv.step relies on it.
    env = make_env()
    env.reset(seed=0)
    with pytest.raises(ValueError, match=message):
        env.step(ActionTuple(*raw))
    assert env.step_records == []
    with pytest.raises(ValueError, match=message):
        SimState(Topology(), FailureModel()).apply_action(*raw)


def test_one_action_per_step_is_atomic():
    env = make_env()
    env.reset(seed=0)
    env.step(ActionTuple(1, 0, 0, 0))
    counts = env.sim.vnf_counts()
    assert counts.sum() == 1


# ------------------------------------------------------------- observations

def test_normalized_observation_in_unit_range():
    trace = generate_synthetic_trace(6, 40, seed=3)
    cfg = EnvConfig(normalize_obs=True, activity_scale=float(trace.steps.max()))
    env = SfcEnv(trace, Topology(), FailureModel(mttf_server=1e12, mttf_vnf=1e12),
                 EnergyModel(), cfg)
    obs = env.reset(seed=0)
    for i in range(10):
        assert np.all(obs >= 0.0) and np.all(obs <= 1.0)
        obs, _, done, _ = step_obs(env, ActionTuple(1, i % 10, i % 5, i % 4))
        if done:
            break


def test_zero_activity_step_gives_zero_activity_block():
    trace = SteppedTrace([1, 2], np.zeros((5, 2)))
    env = make_env(trace=trace)
    obs = env.reset(seed=0)
    assert np.all(obs[:env.n_cells] == 0.0)


def test_single_sgw_sets_one_count_slot():
    env = make_env()
    env.reset(seed=0)
    obs, _, _, _ = step_obs(env, ActionTuple(1, 0, 0, 0))
    counts = obs[env.n_cells:]
    assert counts[0] == 1  # (dc0, server0, SGW) is the first slot
    assert counts.sum() == 1


# ------------------------------------------------------------------ episodes

def test_episode_ends_with_trace():
    env = make_env(trace=flat_trace(n_steps=3))
    env.reset(seed=0)
    for _ in range(3):
        _, _, done, _ = step_obs(env, NOOP)
    assert done
    with pytest.raises(RuntimeError):
        env.step(NOOP)


def test_episode_length_limits_steps():
    cfg = EnvConfig(episode_length=5)
    env = make_env(trace=flat_trace(n_steps=50), config=cfg)
    env.reset(seed=0)
    done = False
    steps = 0
    while not done:
        _, _, done, _ = step_obs(env, NOOP)
        steps += 1
    assert steps == 5


def test_reset_starts_a_new_step_records_list():
    env = make_env()
    env.reset(seed=0)
    env.step(NOOP)
    env.step(NOOP)
    previous = env.step_records
    env.reset(seed=1)
    assert env.step_records is not previous and env.step_records == []
    assert [r.step for r in previous] == [0, 1]


def test_training_mode_uses_random_offsets():
    trace = SteppedTrace([1], np.arange(100, dtype=float)[:, None])
    cfg = EnvConfig(episode_length=10)
    env = make_env(trace=trace, config=cfg)
    offsets = set()
    for seed in range(8):
        obs = env.reset(seed=seed)
        offsets.add(float(obs[0]))
    assert len(offsets) > 1  # different seeds start at different rows


@pytest.mark.parametrize("step_duration", [300, 600])
def test_step_advances_sim_time_by_trace_step_duration(step_duration):
    trace = SteppedTrace([1], np.ones((10, 1)), step_duration=step_duration)
    env = make_env(trace=trace)
    env.reset(seed=0)
    for n in range(1, 4):
        env.step(NOOP)
        assert env.sim.time == pytest.approx(n * step_duration / 3600.0, rel=1e-12)


def test_step_trace_export_schema(tmp_path):
    env = make_env(trace=flat_trace(n_steps=4))
    env.reset(seed=0)
    done = False
    while not done:
        _, _, done, _ = step_obs(env, ActionTuple(1, 0, 0, 0))
    path = tmp_path / "steps.csv"
    write_step_records(env.step_records, path, comments=["config_hash=x seed=0"])
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == ("step,a,dc,server,vnf_type,accepted,sfc,packets,lost,"
                        "energy_w,reward,cum_reward,cum_lost")
    assert len(lines) == 2 + 4
