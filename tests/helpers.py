"""Test-side helpers that the program itself never calls.

``instances`` walks a simulator's raw state, which tests compare the kept
aggregates with; ``write_event_log`` exports the simulator's processed
events (the golden event-log digest pins its bytes); ``head_log_probs``
gives each action head's log-probabilities, from which tests build
``old_logp`` batches and check the sampler's joint log-probability.
``encode_observation_oracle``, ``greedy_act_oracle``,
``random_act_oracle`` and ``sample_oracle`` are the earlier forms of
``SfcEnv.encode_observation``, ``StaticGreedyPolicy.act``,
``RandomPolicy.act`` and ``PolicyNetwork.sample``, kept as the oracles
that the current ones must match bit for bit.
"""

import numpy as np

from sfcsim.artifacts import write_csv
from sfcsim.env import ActionTuple
from sfcsim.policy import PolicyNetwork, _log_softmax_np
from sfcsim.simcore import N_VNF_TYPES, VNF_TYPES, SimEvent, vnf_fail_risk


def instances(state):
    """Walk every (server, instance) pair; the raw state, not the aggregates."""
    for row in state.servers:
        for server in row:
            for inst in server.vnfs:
                yield server, inst


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


def greedy_act_oracle(policy, env) -> ActionTuple:
    """``StaticGreedyPolicy.act`` over the raw ``instances`` walk."""
    sim = env.sim
    counts = sim.operational_type_counts()
    for vnf_type in range(N_VNF_TYPES):
        if counts[vnf_type] == 0:
            target = policy._least_loaded(sim, vnf_type)
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
