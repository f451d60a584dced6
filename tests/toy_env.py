"""Toy corridor environment for PPO sanity checks.

The agent starts at cell 0 of a one-dimensional corridor and gets reward 1
for reaching the last cell; the episode ends at the goal or after
``max_steps``. Only the first action head matters (0 = left, 1 = right);
the remaining heads have size 1 so the same learner code runs unchanged.

It keeps ``SfcEnv``'s step contracts: ``reset`` starts a new
``step_records`` list and ``step`` returns ``(obs, reward, done, record)``
with the ``StepRecord`` it appended there; ``step_into`` writes the next
observation into a given row and returns ``(reward, sfc, packets, done)``,
and ``episode_totals`` has the episode's running totals. A record's ``a``
is the move (0 or 1); the corridor has no service chain, so its SFC,
packet and energy fields are zero.
"""

import numpy as np

from sfcsim.env import StepRecord


class CorridorEnv:
    def __init__(self, length: int = 8, max_steps: int = 64):
        self.length = length
        self.max_steps = max_steps
        self.obs_dim = length
        self.head_sizes = (2, 1, 1, 1)
        self.pos = 0
        self.done = True
        self.step_records: list[StepRecord] = []
        self._steps = 0
        self._cum_reward = 0.0

    def action_from_components(self, components):
        return int(components[0])

    def _obs(self) -> np.ndarray:
        vec = np.zeros(self.length)
        vec[self.pos] = 1.0
        return vec

    def reset(self, seed: int = 0) -> np.ndarray:
        self.pos = 0
        self.done = False
        self.step_records = []
        self._steps = 0
        self._cum_reward = 0.0
        return self._obs()

    def _move(self, action: int) -> float:
        if self.done:
            raise RuntimeError("step() on finished episode")
        self.pos = min(self.length - 1, max(0, self.pos + (1 if action == 1 else -1)))
        reward = 1.0 if self.pos == self.length - 1 else 0.0
        self._steps += 1
        self._cum_reward += reward
        self.done = reward > 0 or self._steps >= self.max_steps
        return reward

    def step(self, action: int):
        reward = self._move(action)
        record = StepRecord(self._steps - 1, action, 0, 0, 0, True, 0, 0.0, 0.0, 0.0,
                            reward, self._cum_reward, 0.0)
        self.step_records.append(record)
        return self._obs(), reward, self.done, record

    def step_into(self, components, out: np.ndarray):
        reward = self._move(components[0])
        out[:] = 0.0
        out[self.pos] = 1.0
        return reward, 0, 0.0, self.done

    def episode_totals(self) -> tuple[int, float, float, int]:
        return self._steps, self._cum_reward, 0.0, 0


def greedy_return(policy_net, n_episodes: int = 20, **env_kwargs) -> float:
    """Mean undiscounted return of the greedy policy; optimum is 1.0."""
    env = CorridorEnv(**env_kwargs)
    total = 0.0
    for ep in range(n_episodes):
        obs = env.reset(ep)
        done = False
        while not done:
            comps = policy_net.mode(obs[None, :])[0]
            obs, reward, done, _ = env.step(env.action_from_components(comps))
            total += reward
    return total / n_episodes
