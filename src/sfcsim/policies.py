"""Acting policies (trained and baselines) plus seeded evaluation rollouts.

A policy exposes ``reset(seed)`` and ``act(obs, env) -> ActionTuple``, where
``obs`` is the float64 vector from ``SfcEnv.encode_observation``. The learned
policy only looks at the observation; the rule-based baseline may inspect the
simulator state directly.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .env import ActionTuple, SfcEnv
from .policy import PolicyNetwork
from .seeding import derive_seed, entity_rng
from .simcore import N_VNF_TYPES, vnf_fail_risk


class NoopPolicy:
    """Always leaves the environment unchanged."""

    def reset(self, seed: int) -> None:
        pass

    def act(self, obs, env) -> ActionTuple:
        return ActionTuple(4, 0, 0, 0)


_MAX_HEAD = 2**32  # largest head size Generator.integers draws from one 32-bit word
_BLOCK = 256  # acts RandomPolicy draws at once; ``reset`` drops those left over
_MASK32 = np.uint64(0xFFFFFFFF)
_U32 = np.uint64(32)


class RandomPolicy:
    """Uniform over the valid action space, seed-deterministic.

    Each act is four bounded draws ``entity_rng(seed, 30).integers(size)``,
    one per head in order, and equals them bit for bit. NumPy draws a size
    up to 2**32 by Lemire's method (arXiv 1805.10941) on PCG64's 32-bit
    words, low half of each 64-bit output first: ``m = word * size`` gives
    ``m >> 32``, unless ``m mod 2**32 < (2**32 - size) % size`` rejects the
    word and the next one is tried; a head of size 1 takes no word. That is
    fixed, so acts are drawn a block at a time from one ``random_raw`` call.
    """

    def __init__(self, head_sizes: tuple[int, int, int, int], seed: int = 0):
        if not all(1 <= size <= _MAX_HEAD for size in head_sizes):
            raise ValueError(f"head sizes must be in 1..2**32, got {head_sizes}")
        self.head_sizes = head_sizes
        # heads that take a word, their sizes and rejection thresholds
        self._heads = [j for j, size in enumerate(head_sizes) if size > 1]
        self._sizes = np.array([head_sizes[j] for j in self._heads], dtype=np.uint64)
        self._thresholds = (_MAX_HEAD - self._sizes) % self._sizes
        self.reset(seed)

    def reset(self, seed: int) -> None:
        self._rng = entity_rng(seed, 30)
        self._words = np.empty(0, dtype=np.uint32)  # drawn, not yet used
        self._next = 0
        self._acts = iter(())

    def act(self, obs, env) -> ActionTuple:
        action = next(self._acts, None)
        if action is None:
            self._acts = iter(self._draw_block())
            action = next(self._acts)
        return action

    def _take(self, n: int) -> np.ndarray:
        """The next n words of the generator's 32-bit stream."""
        if len(self._words) - self._next < n:
            raw = self._rng.bit_generator.random_raw((n + 1) // 2)
            self._words = np.concatenate(
                (self._words[self._next:], raw.astype("<u8").view("<u4")))
            self._next = 0
        self._next += n
        return self._words[self._next - n:self._next]

    def _draw_block(self) -> list[ActionTuple]:
        """``_BLOCK`` acts, or fewer: up to and including the first act that
        meets a rejected word, which is drawn word by word."""
        k = len(self._heads)
        m = self._take(_BLOCK * k).reshape(_BLOCK, k) * self._sizes
        rejected = ((m & _MASK32) < self._thresholds).any(axis=1)
        n_fast = int(rejected.argmax()) if rejected.any() else _BLOCK
        comps = np.zeros((n_fast + (n_fast < _BLOCK), len(self.head_sizes)), dtype=np.int64)
        comps[:n_fast, self._heads] = m[:n_fast] >> _U32
        if n_fast < _BLOCK:
            self._next -= (_BLOCK - n_fast) * k  # give back this act's words and later ones
            for col, size, threshold in zip(self._heads, self._sizes, self._thresholds):
                word_m = self._take(1)[0] * size
                while (word_m & _MASK32) < threshold:
                    word_m = self._take(1)[0] * size
                comps[n_fast, col] = word_m >> _U32
        comps[:, 0] += 1
        return list(map(ActionTuple._make, comps.tolist()))


class StaticGreedyPolicy:
    """Deterministic rule: complete the chain, then refresh risky instances.

    If some VNF type has no operational instance, create one on the
    least-loaded up server with room for it; otherwise restart the instance
    with the highest fail-risk score once it exceeds the threshold; otherwise
    do nothing.
    """

    def __init__(self, risk_threshold: float = 0.5):
        self.risk_threshold = risk_threshold

    def reset(self, seed: int) -> None:
        pass

    def act(self, obs, env: SfcEnv) -> ActionTuple:
        sim = env.sim
        counts = sim.operational_type_counts()
        for vnf_type in range(N_VNF_TYPES):
            if counts[vnf_type] == 0:
                target = self._least_loaded(sim, vnf_type)
                if target is not None:
                    return ActionTuple(1, target[0], target[1], vnf_type)
        # Strict > keeps the first instance, in walk order, of the highest risk.
        t = best_risk = self.risk_threshold
        target = None
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
        for row, n_allocated in zip(sim.servers, sim.dc_alloc):
            if not n_allocated:
                continue
            for server in row:
                if not (server.up and server.vnfs):
                    continue
                for inst in server.vnfs:
                    if (inst.up and now - inst.age_anchor > floor
                            and (risk := vnf_fail_risk(inst, now, mttf_vnf)) > best_risk):
                        best_risk = risk
                        target = (server.dc_id, server.server_id, inst.vnf_type)
        if target is not None:
            return ActionTuple(3, *target)
        return ActionTuple(4, 0, 0, 0)

    @staticmethod
    def _least_loaded(sim, vnf_type: int):
        """First up server, in (dc, server) order, with the fewest instances
        among those with room for one more of ``vnf_type``."""
        topo = sim.topology
        alloc = sim.alloc
        load = alloc.sum(axis=2)
        up = np.array([[server.up for server in row] for row in sim.servers])
        room = (up & (load < topo.max_vnfs_per_server)
                & (alloc[:, :, vnf_type] < topo.max_same_type_per_server))
        if not room.any():
            return None
        best = np.argmin(np.where(room, load, topo.max_vnfs_per_server))
        dc, server = np.unravel_index(best, load.shape)
        return int(dc), int(server)


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
    """Per-run step series and cross-run statistics from seeded rollouts."""

    seeds: list[int]
    rewards: np.ndarray  # (n_runs, T)
    lost: np.ndarray
    sfc: np.ndarray
    energy: np.ndarray
    step_records: list = field(default_factory=list)  # env step records of run 0

    @property
    def n_runs(self) -> int:
        return self.rewards.shape[0]

    @property
    def n_steps(self) -> int:
        return self.rewards.shape[1]

    def cumulative_lost(self) -> np.ndarray:
        return np.cumsum(self.lost, axis=1)

    def cumulative_reward(self) -> np.ndarray:
        return np.cumsum(self.rewards, axis=1)

    def summary(self) -> dict[str, float]:
        return {
            "n_runs": self.n_runs,
            "total_lost_packets": float(self.lost.sum(axis=1).mean()),
            "mean_reward": float(self.rewards.mean()),
            "mean_energy_w": float(self.energy.mean()),
            "sfc_uptime_fraction": float(self.sfc.mean()),
        }


def evaluate_policy(policy, env: SfcEnv, n_runs: int, seeds: list[int] | None = None,
                    master_seed: int = 0) -> EvalResult:
    """Run seeded episodes and collect per-step metrics.

    Each run gets its own derived seed; runs execute in order so results are
    reproducible regardless of how many runs are requested.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    if seeds is None:
        seeds = [derive_seed(master_seed, "eval", i) for i in range(n_runs)]
    if len(seeds) != n_runs:
        raise ValueError("need exactly one seed per run")
    T = env.episode_steps()
    rewards = np.zeros((n_runs, T))
    lost = np.zeros((n_runs, T))
    sfc = np.zeros((n_runs, T))
    energy = np.zeros((n_runs, T))
    first_records = []
    for r, seed in enumerate(seeds):
        obs = env.reset(seed)
        policy.reset(seed)
        t = 0
        done = False
        while not done:
            action = policy.act(obs, env)
            obs, reward, done, record = env.step(action)
            rewards[r, t] = reward
            lost[r, t] = record.lost
            sfc[r, t] = record.sfc
            energy[r, t] = record.energy_w
            t += 1
        if r == 0:
            first_records = list(env.step_records)
    return EvalResult(list(seeds), rewards, lost, sfc, energy, first_records)
