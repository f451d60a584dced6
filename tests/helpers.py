"""Test-side helpers that the program itself never calls.

``instances`` walks a simulator's raw state, which tests compare the kept
aggregates with; ``force_server_failure`` moves a server's pending event
to a given time; ``set_age_anchor`` writes an instance's anchor as an
outside writer must, counting it in ``changes``; ``skip_floor`` is the
greedy scan's skip floor and ``nudge`` steps a float by ulps;
``write_event_log`` exports the simulator's processed events (the golden
event-log digest pins its bytes); ``head_log_probs`` gives each action
head's log-probabilities, from which tests build ``old_logp`` batches and
check the sampler's joint log-probability.
``step_obs`` returns one ``SfcEnv.step``'s record together with the next
observation, the reward and ``done``. ``encode_observation_oracle``,
``greedy_act_oracle``, ``random_act_oracle``, ``sample_oracle``,
``evaluate_oracle``, ``cdr_trace_oracle`` and ``synthetic_trace_oracle``
are the earlier forms of ``SfcEnv.encode_observation``,
``StaticGreedyPolicy.act``, ``RandomPolicy.act``, ``PolicyNetwork.sample``,
``evaluate_policy``, ``trace.load_cdr_trace`` and
``trace.generate_synthetic_trace``, kept as the oracles that the current
ones must match bit for bit.
``save_config`` writes a config as a YAML that ``load_config`` reads back,
and ``build_tensors`` wraps a network's parameters as autodiff graph leaves.
"""

import dataclasses
import math

import numpy as np
import yaml

from sfcsim.artifacts import write_csv
from sfcsim.autodiff import Tensor
from sfcsim.env import ActionTuple
from sfcsim.policies import EvalResult
from sfcsim.policy import PolicyNetwork
from sfcsim.seeding import derive_seed
from sfcsim.simcore import N_VNF_TYPES, VNF_TYPES, SimEvent, vnf_fail_risk
from sfcsim.trace import (CDR_COLUMNS, DEFAULT_ORIGIN_MS, DEFAULT_STEP_DURATION,
                          SteppedTrace, TraceFormatError)


def instances(state):
    """Walk every (server, instance) pair; the raw state, not the aggregates."""
    for row in state.servers:
        for server in row:
            for inst in server.vnfs:
                yield server, inst


def force_server_failure(state, server, t: float) -> None:
    """Make ``server``'s pending event, a failure while it is up, fall at t."""
    server.due = t
    state._push(t, server)


def set_age_anchor(state, inst, anchor: float) -> None:
    """Write ``inst.age_anchor`` from outside, adding 1 to ``state.changes``
    as ``SimState``'s contract asks of such a write."""
    inst.age_anchor = anchor
    state.changes += 1


def skip_floor(threshold: float, mttf_vnf: float) -> float:
    """The age at or below which the greedy scan skips an instance (its formula)."""
    if 1e-6 <= threshold < 1:
        return -mttf_vnf * math.log1p(-threshold) * (1 - 1e-9)
    return -math.inf


def nudge(x: float, ulps: int) -> float:
    """``x`` moved by ``ulps`` units in the last place (down if negative)."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


def save_config(cfg, path) -> None:
    data = dataclasses.asdict(cfg)
    del data["ppo"]["seed"]  # derived from master_seed; a YAML may not set it
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(data, fh, sort_keys=True)


def build_tensors(net: PolicyNetwork) -> dict[str, Tensor]:
    """Wrap the current parameters as graph leaves for one update."""
    return {k: Tensor(v, requires_grad=True) for k, v in net.params.items()}


def write_event_log(events: list[SimEvent], path,
                    comments: list[str] | None = None) -> None:
    """Audit/replay export of processed events."""
    write_csv(path, ["time_hours", "kind", "dc", "server", "instance_id",
                     "vnf_type"],
              ([repr(ev.time), ev.kind, ev.dc_id, ev.server_id,
                "" if ev.instance_id is None else ev.instance_id,
                "" if ev.vnf_type is None else VNF_TYPES[ev.vnf_type]]
               for ev in events),
              comments)


def step_obs(env, action):
    """``(obs, reward, done, record)`` of one ``env.step``: the record, the
    next observation in a new vector, and the record's reward and ``done``."""
    record = env.step(action)
    return env.encode_observation(), record.reward, env.done, record


def _log_softmax_np(logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """One head's log-softmax over the last axis, as an array of its own."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return np.subtract(shifted, np.log(np.exp(shifted).sum(axis=-1, keepdims=True)),
                       out=out)


def head_log_probs(net: PolicyNetwork, obs: np.ndarray) -> list[np.ndarray]:
    """Per-head log-softmax of the network's logits, one (B, size) array each."""
    logits, _ = net.forward_np(obs)
    return [_log_softmax_np(l) for l in logits]


def sample_oracle(net: PolicyNetwork, obs: np.ndarray, rng
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``PolicyNetwork.sample`` through ``forward_np``: one log-softmax per
    head, written into the -inf padded (head, row, category) array."""
    logits, values = net.forward_np(obs)
    n_heads, batch = len(logits), logits[0].shape[0]
    logp = np.full((n_heads, batch, max(net.head_sizes)), -np.inf)
    for i, head_logits in enumerate(logits):
        _log_softmax_np(head_logits, out=logp[i, :, :net.head_sizes[i]])
    cdf = np.cumsum(np.exp(logp), axis=2)
    u = rng.random((n_heads, batch))
    last = np.array(net.head_sizes)[:, None] - 1
    idx = np.minimum((u[:, :, None] > cdf).sum(axis=2), last)
    chosen = logp[np.arange(n_heads)[:, None], np.arange(batch), idx]
    joint_logp = np.zeros(batch)
    for head_logp in chosen:
        joint_logp += head_logp
    return idx.T, joint_logp, values


def encode_observation_oracle(env) -> np.ndarray:
    """The observation written into an empty vector, one divide per part."""
    steps = env.trace.steps
    n_cells = steps.shape[1]
    activities = steps[min(env._row, steps.shape[0] - 1)]
    counts = env.sim.vnf_counts().reshape(-1)
    vector = np.empty(n_cells + counts.size)
    if env.config.normalize_obs:
        scale = env.config.activity_scale
        np.divide(activities, scale or 1, out=vector[:n_cells])
        np.divide(counts, env.topology.max_vnfs_per_server, out=vector[n_cells:])
    else:
        vector[:n_cells] = activities
        vector[n_cells:] = counts
    return vector


def least_loaded_oracle(sim, vnf_type: int) -> tuple[int, int] | None:
    """``StaticGreedyPolicy._least_loaded`` as a NumPy ``argmin`` over the
    (dc, server) grid, the servers without room scored at the server cap."""
    topo = sim.topology
    alloc = sim.vnf_counts()
    load = alloc.sum(axis=2)
    up = np.array([[server.up for server in row] for row in sim.servers])
    room = (up & (load < topo.max_vnfs_per_server)
            & (alloc[:, :, vnf_type] < topo.max_same_type_per_server))
    if not room.any():
        return None
    best = np.argmin(np.where(room, load, topo.max_vnfs_per_server))
    dc, server = np.unravel_index(best, load.shape)
    return int(dc), int(server)


def greedy_act_oracle(policy, env) -> ActionTuple:
    """``StaticGreedyPolicy.act`` over the raw ``instances`` walk."""
    sim = env.sim
    counts = sim.operational_type_counts()
    for vnf_type in range(N_VNF_TYPES):
        if counts[vnf_type] == 0:
            target = least_loaded_oracle(sim, vnf_type)
            if target is not None:
                return ActionTuple(1, target[0], target[1], vnf_type)
    riskiest = None
    for server, inst in instances(sim):
        if not (server.up and inst.up):
            continue
        risk = vnf_fail_risk(inst, sim.time, sim.failure.mttf_vnf)
        if risk > policy.risk_threshold and (riskiest is None or risk > riskiest[0]):
            riskiest = (risk, server.dc_id, server.server_id, inst.vnf_type)
    if riskiest is not None:
        return ActionTuple(3, riskiest[1], riskiest[2], riskiest[3])
    return ActionTuple(4, 0, 0, 0)


def random_act_oracle(rng, head_sizes) -> ActionTuple:
    """One ``RandomPolicy`` act as four scalar ``Generator.integers`` draws."""
    comps = [int(rng.integers(size)) for size in head_sizes]
    return ActionTuple(comps[0] + 1, comps[1], comps[2], comps[3])


def evaluate_oracle(policy, env, n_runs: int, seeds: list[int] | None = None,
                    master_seed: int = 0) -> EvalResult:
    """``evaluate_policy`` as every policy read the observation: a new vector
    from ``reset`` and after each step is passed to ``act``, and the four
    per-step arrays are written one item at a time."""
    if seeds is None:
        seeds = [derive_seed(master_seed, "eval", i) for i in range(n_runs)]
    T = env.episode_steps()
    rewards, lost, sfc, energy = (np.zeros((n_runs, T)) for _ in range(4))
    first_records = []
    for r, seed in enumerate(seeds):
        obs = env.reset(seed)
        policy.reset(seed)
        t = 0
        done = False
        while not done:
            obs, reward, done, record = step_obs(env, policy.act(obs, env))
            rewards[r, t] = reward
            lost[r, t] = record.lost
            sfc[r, t] = record.sfc
            energy[r, t] = record.energy_w
            t += 1
        if r == 0:
            first_records = list(env.step_records)
    return EvalResult(rewards, lost, sfc, energy, first_records)


def cdr_trace_oracle(path, step_duration: int,
                     cell_filter: set[int] | None = None) -> SteppedTrace:
    """``load_cdr_trace`` in three stages: parse every row into a
    ``(cell, timestamp, activity)`` record, derive the cells and the step
    horizon from the records, then sum the records into a zero matrix.

    A file with no usable row raises ``TraceFormatError`` here, as the
    loader does (the three-stage harness raised its own ``ConfigError``).
    """
    records = []
    malformed = 0
    total = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            total += 1
            fields = line.split("\t")
            if len(fields) != CDR_COLUMNS:
                malformed += 1
                continue
            internet = fields[7].strip()
            try:
                cell_id = int(fields[0])
                timestamp = int(fields[1])
                activity = float(internet) if internet else None
            except ValueError:
                malformed += 1
                continue
            if activity is None or not 0 <= activity < math.inf:
                if activity is not None:
                    malformed += 1
                continue
            if cell_filter is not None and cell_id not in cell_filter:
                continue
            records.append((cell_id, timestamp, activity))
    if total > 0 and malformed / total > 0.10:
        raise TraceFormatError(
            f"{malformed}/{total} malformed rows in {path}; not a CDR file?")
    if not records:
        raise TraceFormatError(f"no usable records in {path}")
    cells = sorted({cell for cell, _, _ in records})
    step_ms = step_duration * 1000
    start = (min(t for _, t, _ in records) // step_ms) * step_ms
    end = (max(t for _, t, _ in records) // step_ms + 1) * step_ms
    col = {c: i for i, c in enumerate(cells)}
    steps = np.zeros(((end - start) // step_ms, len(cells)))
    for cell, timestamp, activity in records:
        steps[(timestamp - start) // step_ms, col[cell]] += activity
    return SteppedTrace(cells, steps, step_duration, start)


def synthetic_trace_oracle(n_cells: int, n_steps: int, seed: int,
                           amplitude: float = 0.6, noise: float = 0.15,
                           mean_step_total: float = 400.0,
                           step_duration: int = DEFAULT_STEP_DURATION,
                           origin_time_ms: int = DEFAULT_ORIGIN_MS) -> SteppedTrace:
    """``generate_synthetic_trace`` in one shot: an ``np.outer`` base, one
    ``(n_steps, n_cells)`` noise draw, and a new array for each stage; a
    17:00 peak, lognormal(0, 0.5) cell scales and cell ids from 1."""
    rng = np.random.default_rng(seed)
    scales = np.exp(rng.normal(0.0, 1.0 / 2, size=n_cells))
    hours = (origin_time_ms / 3_600_000.0) + np.arange(n_steps) * (step_duration / 3600.0)
    diurnal = 1.0 + amplitude * np.sin(2 * np.pi * (hours - 17.0 + 6.0) / 24.0)
    base = np.outer(np.clip(diurnal, 0.0, None), scales)
    if noise > 0:
        base = base + np.abs(rng.normal(0.0, noise, size=base.shape)) * scales
    base = np.clip(base, 0.0, None)
    mean_total = base.sum(axis=1).mean()
    if mean_total > 0:
        base *= mean_step_total / mean_total
    return SteppedTrace(list(range(1, n_cells + 1)), base, step_duration, origin_time_ms)
