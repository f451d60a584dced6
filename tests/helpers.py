"""Test-side helpers that the program itself never calls.

``write_event_log`` exports the simulator's processed events (the golden
event-log digest pins its bytes); ``head_log_probs`` gives each action
head's log-probabilities, from which tests build ``old_logp`` batches and
check the sampler's joint log-probability.
"""

import numpy as np

from sfcsim.artifacts import write_csv
from sfcsim.policy import PolicyNetwork, _log_softmax_np
from sfcsim.simcore import VNF_TYPES, SimEvent


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
