"""Reinforcement-learning environment over the data-center simulator.

One step covers one trace step (``trace.step_duration``, 5 minutes by
default): the agent's action is applied, failure/repair events inside the
window are processed, and the reward combines lost packets (when the
service chain is incomplete), the energy drawn by allocated VNFs, a small
restart penalty, and a completion bonus:

    reward = -(1 - sfc) * w_p * packets - w_e * energy - restart + sfc * f
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .artifacts import write_csv
from .seeding import derive_seed, entity_rng
from .simcore import EnergyModel, FailureModel, N_VNF_TYPES, SimState, Topology


class ActionTuple(NamedTuple):
    """The agent's action: (type, data center, server, VNF type).

    ``a`` is 1 create, 2 delete, 3 restart, 4 no-op; the remaining fields
    are zero-based indices, ignored by a no-op but range-checked all the
    same (``SimState.apply_action`` raises ValueError for any outside the
    topology).
    """

    a: int
    dc: int
    server: int
    vnf_type: int


@dataclass
class EnvConfig:
    f: float = 100.0
    w_p: float = 1.0
    w_e: float = 0.01
    restart_penalty: float = 1.0
    episode_length: int | None = None  # None = full trace from row 0
    normalize_obs: bool = False
    activity_scale: float | None = None  # e.g. the train split's max activity

    def __post_init__(self):
        if self.f <= 0:
            raise ValueError("f must be > 0")
        if min(self.w_p, self.w_e, self.restart_penalty) < 0:
            raise ValueError("weights must be nonnegative")
        if self.episode_length is not None and self.episode_length < 1:
            raise ValueError("episode_length must be None or >= 1")
        if self.activity_scale is not None and self.activity_scale <= 0:
            raise ValueError("activity_scale must be None or > 0")


@dataclass(slots=True)
class StepRecord:
    """The result of one step and one row of the step-trace export."""

    step: int
    a: int
    dc: int
    server: int
    vnf_type: int
    accepted: bool
    sfc: int
    packets: float
    lost: float
    energy_w: float
    reward: float
    cum_reward: float
    cum_lost: float


class SfcEnv:
    """Gym-style environment: reset() then step() until done."""

    def __init__(self, trace, topology: Topology, failure: FailureModel,
                 energy: EnergyModel, config: EnvConfig):
        if trace.n_steps == 0:
            raise ValueError("trace must be non-empty")
        self.trace = trace
        self.topology = topology
        self.failure = failure
        self.energy = energy
        self.config = config
        self._step_totals = trace.step_totals().tolist()
        self._step_hours = trace.step_duration / 3600.0
        self._last_row = trace.n_steps - 1
        # sizes, fixed with the trace and topology; head_sizes per action component
        self.n_cells = trace.n_cells
        self.obs_dim = self.n_cells + topology.n_servers * N_VNF_TYPES
        self.head_sizes = (4, topology.n_dcs, topology.servers_per_dc, N_VNF_TYPES)
        # Observation divisors, 1.0 when not normalized: x / 1.0 is x, and the
        # kept counts block is float64 either way
        normalize = config.normalize_obs
        self._activity_scale = float(config.activity_scale or 1) if normalize else 1.0
        self._alloc_scale = float(topology.max_vnfs_per_server if normalize else 1)
        self._alloc_block: np.ndarray | None = None  # see encode_observation
        self._energy_w = 0.0  # watts of the allocation, kept with _alloc_block
        self.sim: SimState | None = None
        self.done = True
        self.step_records: list[StepRecord] = []
        self._start = self._row = self._end = 0  # episode rows: [start, end)
        self._cum_reward = 0.0
        self._cum_lost = 0.0
        self._sfc_steps = 0

    def action_from_components(self, components) -> ActionTuple:
        """Map sampled head indices to an action (head 0 is 0-based)."""
        s0, s1, s2, s3 = components
        return ActionTuple(int(s0) + 1, int(s1), int(s2), int(s3))

    def episode_steps(self) -> int:
        if self.config.episode_length is None:
            return self.trace.n_steps
        return min(self.config.episode_length, self.trace.n_steps)

    # --------------------------------------------------------------- episode

    def reset(self, seed: int = 0) -> np.ndarray:
        sim_seed = derive_seed(seed, "sim")
        self.sim = SimState(self.topology, self.failure, seed=sim_seed)
        length = self.episode_steps()
        max_offset = self.trace.n_steps - length  # > 0 only with an episode_length
        offset = int(entity_rng(seed, 3).integers(0, max_offset + 1)) if max_offset > 0 else 0
        self._start = self._row = offset
        self._end = offset + length
        self._cum_reward = 0.0
        self._cum_lost = 0.0
        self._sfc_steps = 0
        self.step_records = []
        self.done = False
        self._alloc_block = self.sim.vnf_counts().reshape(-1) / self._alloc_scale
        self._energy_w, _ = self.sim.energy_consumption(self.energy)
        return self.encode_observation()

    def step(self, action: ActionTuple) -> StepRecord:
        """Apply ``action`` (see ``ActionTuple``), simulate one window, and return
        its record, also appended to ``step_records``; ``done`` says whether the
        episode ended and ``encode_observation`` gives the next observation."""
        accepted, sfc, packets, lost, energy_w, reward = self._transition(*action)
        record = StepRecord(
            self._row - 1 - self._start, action.a, action.dc, action.server,
            action.vnf_type, accepted, sfc, packets, lost, energy_w, reward,
            self._cum_reward, self._cum_lost)
        self.step_records.append(record)
        return record

    def step_into(self, components, out: np.ndarray) -> tuple[float, int, float, bool]:
        """The training step: ``step`` without its record, plus the next observation.

        ``components`` are the sampled head indices as Python ints (head 0
        is 0-based, as in ``action_from_components``). ``encode_observation``
        writes the next observation into ``out``, a float64 row of length
        ``obs_dim``. Returns ``(reward, sfc, packets, done)`` as Python
        scalars; ``episode_totals`` has the running totals.
        """
        s0, s1, s2, s3 = components
        _, sfc, packets, _, _, reward = self._transition(s0 + 1, s1, s2, s3)
        self.encode_observation(out)
        return reward, sfc, packets, self.done

    def episode_totals(self) -> tuple[int, float, float, int]:
        """The episode so far: (steps, cumulative reward, cumulative lost
        packets, steps with the service chain complete)."""
        return self._row - self._start, self._cum_reward, self._cum_lost, self._sfc_steps

    def _transition(self, a: int, dc: int, server: int, vnf_type: int
                    ) -> tuple[bool, int, float, float, float, float]:
        """Apply one action and simulate one window; the reward formula.

        Returns ``(accepted, sfc, packets, lost, energy_w, reward)`` and adds
        the step to the episode totals."""
        if self.done:
            raise RuntimeError("step() called on a finished episode; call reset()")
        sim = self.sim
        accepted = sim.apply_action(a, dc, server, vnf_type).accepted
        if accepted and a in (1, 2):  # one count moved: its entry, then the energy sum
            i = (dc * self.topology.servers_per_dc + server) * N_VNF_TYPES + vnf_type
            self._alloc_block[i] = sim.alloc_counts[i] / self._alloc_scale
            self._energy_w = sim.energy_total(self.energy)
        sim.advance_to(sim.time + self._step_hours)

        sfc = 1 if sim.sfc_complete() else 0
        packets = self._step_totals[self._row]
        total_energy = self._energy_w
        restarted = 1 if (a == 3 and accepted) else 0

        cfg = self.config
        packet_loss_term = -(1 - sfc) * cfg.w_p * packets
        energy_term = -cfg.w_e * total_energy
        restart_term = -cfg.restart_penalty * restarted
        bonus_term = sfc * cfg.f
        reward = packet_loss_term + energy_term + restart_term + bonus_term

        lost = (1 - sfc) * packets
        self._cum_reward += reward
        self._cum_lost += lost
        self._sfc_steps += sfc
        self._row += 1
        self.done = self._row >= self._end
        return accepted, sfc, packets, lost, total_energy, reward

    # ---------------------------------------------------------- observations

    def encode_observation(self, out: np.ndarray | None = None) -> np.ndarray:
        """Cell activities, then allocated-VNF counts in (dc, server, type) order.

        Written into ``out``, a float64 vector of length ``obs_dim``, or into
        a new one, and returned; normalized when configured. The counts part
        is kept between calls: ``reset`` builds it, and an accepted create or
        delete in ``_transition``, the only writers of the simulator's
        allocation in an episode, rewrites the one entry it changed; the
        energy total (down instances draw power too) is kept with it."""
        if out is None:
            out = np.empty(self.obs_dim)
        n_cells = self.n_cells
        np.divide(self.trace.steps[min(self._row, self._last_row)], self._activity_scale,
                  out=out[:n_cells])
        out[n_cells:] = self._alloc_block
        return out


def write_step_records(records: list[StepRecord], path,
                       comments: list[str] | None = None) -> None:
    write_csv(path, ["step", "a", "dc", "server", "vnf_type", "accepted",
                     "sfc", "packets", "lost", "energy_w", "reward",
                     "cum_reward", "cum_lost"],
              ([r.step, r.a, r.dc, r.server, r.vnf_type, int(r.accepted),
                r.sfc, repr(r.packets), repr(r.lost), repr(r.energy_w),
                repr(r.reward), repr(r.cum_reward), repr(r.cum_lost)]
               for r in records),
              comments)
