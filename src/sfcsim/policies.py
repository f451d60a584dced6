"""Acting policies (trained and baselines) plus seeded evaluation rollouts.

A policy exposes ``reset(seed)`` and ``act(obs, env) -> ActionTuple``, where
``obs`` is the float64 vector from ``SfcEnv.encode_observation``. The learned
policy only looks at it. The baselines never do (the greedy one inspects the
simulator state), so they set ``reads_obs = False`` and ``evaluate_policy``
passes them ``obs=None``; a policy without the attribute gets the vector.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from .env import ActionTuple, SfcEnv
from .policy import PolicyNetwork
from .seeding import derive_seed, entity_rng
from .simcore import N_VNF_TYPES, vnf_fail_risk


class NoopPolicy:
    """Always leaves the environment unchanged."""

    reads_obs = False

    def reset(self, seed: int) -> None:
        pass

    def act(self, obs, env) -> ActionTuple:
        return ActionTuple(4, 0, 0, 0)


_BLOCK = 256  # acts RandomPolicy draws at once; ``reset`` drops those left over


class RandomPolicy:
    """Uniform over the valid action space, seed-deterministic.

    Each act is four bounded draws ``entity_rng(seed, 30).integers(size)``,
    one per head in order. NumPy draws each element of an array of bounds as
    it draws one scalar bound, in C order, so acts are drawn a block at a
    time from one ``integers`` call and equal the scalar draws bit for bit.
    """

    reads_obs = False

    def __init__(self, head_sizes: tuple[int, int, int, int], seed: int = 0):
        self._sizes = np.array(head_sizes, dtype=np.int64)
        self.reset(seed)

    def reset(self, seed: int) -> None:
        self._rng = entity_rng(seed, 30)
        self._acts = iter(())

    def act(self, obs, env) -> ActionTuple:
        action = next(self._acts, None)
        if action is None:
            comps = self._rng.integers(self._sizes, size=(_BLOCK, len(self._sizes)))
            comps[:, 0] += 1
            self._acts = map(ActionTuple._make, comps.tolist())
            action = next(self._acts)
        return action


_NOOP_ACTION = ActionTuple(4, 0, 0, 0)


class StaticGreedyPolicy:
    """Deterministic rule: complete the chain, then refresh risky instances.

    If some VNF type has no operational instance, create one on the
    least-loaded up server with room for it; otherwise restart the instance
    with the highest fail-risk score once it exceeds the threshold; otherwise
    do nothing.

    A scan that ends in a no-op keeps ``(sim, sim.changes, oldest)``, the
    smallest ``age_anchor`` of an up instance on an up server (``inf`` if
    none). Acts on that sim return the no-op unscanned while ``changes``
    holds and ``now - oldest`` is at most the (recomputed) skip floor. That
    is exact: with ``changes`` unchanged, no ``up``, ``vnfs`` or anchor has
    moved, so the chain branch answers as at the kept scan; and as
    subtraction is monotone, no later anchor is older than ``oldest``, so
    none passes the floor.
    """

    reads_obs = False

    def __init__(self, risk_threshold: float = 0.5):
        self.risk_threshold = risk_threshold
        self._quiet = (None, 0, math.inf)  # (sim, changes, oldest) of the last no-op scan

    def reset(self, seed: int) -> None:
        pass

    def act(self, obs, env: SfcEnv) -> ActionTuple:
        sim = env.sim
        t = self.risk_threshold
        now, mttf_vnf = sim.time, sim.failure.mttf_vnf
        # Skip rule: no instance of age <= floor = mttf * L * (1 - 1e-9), where
        # L = -log1p(-t), scores above t. The floor and age / mttf carry under
        # 1e-15 relative error and exp one ulp, so the computed exp(-age/mttf)
        # >= (1 - t) * (1 + L * (1e-9 - 1e-15)) * (1 - 2.3e-16) > 1 - t while
        # L >= 1e-6 (t >= 1e-6), and 1 - exp(...) rounds to at most t. Else, or
        # if mttf <= 1e-300 (the floor could be subnormal), every up instance is
        # scored. As the floor is >= 0, the unclamped ``now - age_anchor`` serves.
        floor = (-mttf_vnf * math.log1p(-t) * (1 - 1e-9)
                 if 1e-6 <= t < 1 and mttf_vnf > 1e-300 else -math.inf)
        quiet_sim, quiet_changes, oldest = self._quiet
        if sim is quiet_sim and sim.changes == quiet_changes and now - oldest <= floor:
            return _NOOP_ACTION
        counts = sim.operational_type_counts()
        for vnf_type in range(N_VNF_TYPES):
            if counts[vnf_type] == 0:
                target = self._least_loaded(sim, vnf_type)
                if target is not None:
                    return ActionTuple(1, target[0], target[1], vnf_type)
        # Strict > keeps the first instance, in walk order, of the highest risk.
        best_risk = t
        target = None
        oldest = math.inf
        for row, n_allocated in zip(sim.servers, sim.dc_alloc):
            if not n_allocated:
                continue
            for server in row:
                if not (server.up and server.vnfs):
                    continue
                for inst in server.vnfs:
                    if not inst.up:
                        continue
                    if inst.age_anchor < oldest:
                        oldest = inst.age_anchor
                    if (now - inst.age_anchor > floor
                            and (risk := vnf_fail_risk(inst, now, mttf_vnf)) > best_risk):
                        best_risk = risk
                        target = (server.dc_id, server.server_id, inst.vnf_type)
        if target is not None:
            return ActionTuple(3, *target)
        self._quiet = (sim, sim.changes, oldest)
        return _NOOP_ACTION

    @staticmethod
    def _least_loaded(sim, vnf_type: int):
        """First up server, in (dc, server) order, with the fewest instances
        among those with room for one more of ``vnf_type``."""
        topo = sim.topology
        counts, cap = sim.alloc_counts, topo.max_same_type_per_server
        best, best_load = None, topo.max_vnfs_per_server
        i = vnf_type  # the server's entry of vnf_type in alloc_counts
        for row in sim.servers:
            for server in row:
                load = len(server.vnfs)
                if load < best_load and server.up and counts[i] < cap:
                    best, best_load = server, load
                i += N_VNF_TYPES
        return None if best is None else (best.dc_id, best.server_id)


class PpoPolicy:
    """Acts greedily with a trained network: the mode of each action head."""

    def __init__(self, net: PolicyNetwork):
        self.net = net

    def reset(self, seed: int) -> None:
        pass

    def act(self, obs, env) -> ActionTuple:
        comps = self.net.mode(self.net.normalize_obs(obs)[None, :])[0]
        return env.action_from_components(comps)


BASELINE_NAMES = ("noop", "random", "static_greedy")


def make_baseline(name: str, env: SfcEnv, seed: int = 0):
    """Baseline policy by name: noop, random, or static_greedy."""
    if name == "noop":
        return NoopPolicy()
    if name == "random":
        return RandomPolicy(env.head_sizes, seed)
    if name == "static_greedy":
        return StaticGreedyPolicy()
    raise ValueError(f"unknown baseline {name!r}; choose from {BASELINE_NAMES}")


@dataclass
class EvalResult:
    """Per-run step series of seeded rollouts, and run 0's step records."""

    rewards: np.ndarray  # (n_runs, T)
    lost: np.ndarray
    sfc: np.ndarray
    energy: np.ndarray
    step_records: list  # env step records of run 0

    @property
    def n_runs(self) -> int:
        return self.rewards.shape[0]

    @property
    def n_steps(self) -> int:
        return self.rewards.shape[1]

    def summary(self) -> dict[str, float]:
        return {
            "n_runs": self.n_runs,
            "total_lost_packets": float(self.lost.sum(axis=1).mean()),
            "mean_reward": float(self.rewards.mean()),
            "mean_energy_w": float(self.energy.mean()),
            "sfc_uptime_fraction": float(self.sfc.mean()),
        }


_ROW_FIELDS = operator.attrgetter("reward", "lost", "sfc", "energy_w")


def evaluate_policy(policy, env: SfcEnv, n_runs: int, seeds: list[int] | None = None,
                    master_seed: int = 0) -> EvalResult:
    """Run seeded episodes and collect per-step metrics.

    Each run gets its own derived seed; runs execute in order so results are
    reproducible regardless of how many runs are requested. A policy that
    reads the observation gets it written into one vector kept for the call;
    the per-step arrays are filled from each run's ``env.step_records``.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    if seeds is None:
        seeds = [derive_seed(master_seed, "eval", i) for i in range(n_runs)]
    if len(seeds) != n_runs:
        raise ValueError("need exactly one seed per run")
    T = env.episode_steps()
    rewards, lost, sfc, energy = (np.zeros((n_runs, T)) for _ in range(4))
    obs = np.empty(env.obs_dim) if getattr(policy, "reads_obs", True) else None
    for r, seed in enumerate(seeds):
        env.reset(seed)
        policy.reset(seed)
        while not env.done:
            if obs is not None:
                env.encode_observation(obs)
            env.step(policy.act(obs, env))
        records = env.step_records
        rewards[r], lost[r], sfc[r], energy[r] = zip(*map(_ROW_FIELDS, records))
        if r == 0:
            first_records = records  # reset gives each run a new list
    return EvalResult(rewards, lost, sfc, energy, first_records)
