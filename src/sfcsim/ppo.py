"""Proximal policy optimization with a clipped surrogate objective and GAE.

Defaults mirror the widely used baseline implementation: 2x64 tanh network,
Adam (eps 1e-5), rollouts of 128 steps, 4 epochs x 4 minibatches, clip 0.2
(policy ratio and value), GAE(lambda=0.95), entropy bonus 0.01,
gradient-norm clipping at 0.5.
Training is fully deterministic for a given config and seed.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from .policy import PolicyNetwork, clipped_zscore
from .seeding import derive_seed, entity_rng

logger = logging.getLogger(__name__)


@dataclass
class PpoConfig:
    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip_epsilon: float = 0.2
    learning_rate: float = 2.5e-4
    rollout_length: int = 128
    minibatches: int = 4
    epochs: int = 4
    entropy_coef: float = 0.01
    value_coef: float = 0.5
    max_grad_norm: float = 0.5  # inf: no clipping
    total_steps: int = 100_000
    seed: int = 0
    n_envs: int = 8
    # Divide learner rewards by a running std of the discounted return, as
    # the usual vec-env normalization wrapper does. Without it the value
    # targets of this environment (hundreds per step) swamp the policy
    # gradient through the shared trunk.
    normalize_rewards: bool = False
    # Standardize observations with running mean/var (the usual vec-env
    # wrapper); essential conditioning for wide all-positive observations.
    normalize_observations: bool = False

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0 or not 0.0 <= self.gae_lambda <= 1.0:
            raise ValueError("gamma and gae_lambda must be in [0, 1]")
        if self.clip_epsilon <= 0:
            raise ValueError("clip_epsilon must be > 0")
        if min(self.n_envs, self.rollout_length, self.minibatches, self.epochs) < 1:
            raise ValueError("n_envs, rollout_length, minibatches, epochs must be >= 1")
        if self.total_steps < 0:
            raise ValueError("total_steps must be >= 0")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if not (isinstance(self.max_grad_norm, (int, float)) and self.max_grad_norm > 0):
            raise ValueError("max_grad_norm must be a number > 0 (inf: no clipping)")
        if min(self.entropy_coef, self.value_coef) < 0:
            raise ValueError("entropy_coef and value_coef must be >= 0")


class RunningObsStats:
    """Per-feature running mean/variance (parallel Welford over batches)."""

    def __init__(self, dim: int):
        self.mean = np.zeros(dim)
        self.var = np.ones(dim)
        self.count = 1e-4

    def update(self, batch: np.ndarray) -> None:
        n = batch.shape[0]
        batch_mean = batch.sum(axis=0) / n  # batch.mean(axis=0), bit for bit
        dev = batch - batch_mean
        dev *= dev
        batch_var = dev.sum(axis=0) / n  # batch.var(axis=0), bit for bit
        delta = batch_mean - self.mean
        total = self.count + n
        self.mean += delta * n / total
        m_a = self.var * self.count
        m_b = batch_var * n
        self.var = (m_a + m_b + delta ** 2 * self.count * n / total) / total
        self.count = total

    def normalize(self, batch: np.ndarray) -> np.ndarray:
        return clipped_zscore(batch, self.mean, self.var)


class ReturnNormalizer:
    """Running scale estimate of the discounted return, per the usual
    normalize-reward vec wrapper: rewards are divided by the return std."""

    CLIP, EPS = 10.0, 1e-8

    def __init__(self, n_envs: int, gamma: float):
        self.gamma = gamma
        self.returns = np.zeros(n_envs)
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0

    def _push(self, values: np.ndarray) -> None:
        count, mean, m2 = self.count, self.mean, self.m2
        for x in values.tolist():
            count += 1
            delta = x - mean
            mean += delta / count
            m2 += delta * (x - mean)
        self.count, self.mean, self.m2 = count, mean, m2

    def scale(self, rewards: np.ndarray, dones: np.ndarray) -> np.ndarray:
        self.returns = self.returns * self.gamma + rewards
        self._push(self.returns)
        var = self.m2 / self.count if self.count > 1 else 1.0
        scaled = rewards / np.sqrt(var + self.EPS)
        self.returns[dones > 0] = 0.0
        return np.clip(scaled, -self.CLIP, self.CLIP)


def compute_gae(rewards: np.ndarray, values: np.ndarray, dones: np.ndarray,
                gamma: float, lam: float, bootstrap: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """Generalized advantage estimation over (T, n_envs) float64 arrays, with
    ``bootstrap`` the (n_envs,) values of the states after the last step.

    delta_t = r_t + gamma * V_{t+1} * (1 - done_t) - V_t
    A_t     = delta_t + gamma * lam * (1 - done_t) * A_{t+1}
    returns = advantages + values
    """
    advantages = np.zeros_like(rewards)
    last = np.zeros(rewards.shape[1])
    next_value = bootstrap
    for t in range(rewards.shape[0] - 1, -1, -1):
        nonterminal = 1.0 - dones[t]
        delta = rewards[t] + gamma * next_value * nonterminal - values[t]
        last = delta + gamma * lam * nonterminal * last
        advantages[t] = last
        next_value = values[t]
    return advantages, advantages + values


def ppo_loss(policy: PolicyNetwork, batch: dict, config: PpoConfig
             ) -> tuple[float, dict[str, np.ndarray], dict[str, float]]:
    """Clipped-surrogate loss on one minibatch, and its gradient in closed form.

    ``batch`` holds numpy arrays: obs (B,D), actions (B,4), old_logp (B,),
    old_values (B,), advantages (B,), returns (B,). The value loss is
    clipped too: a prediction's move from ``old_values`` counts only up to
    ``clip_epsilon``, which damps value churn that scrambles advantages.
    Returns the loss, the gradient of every parameter (in ``policy.params``
    order) and diagnostics.

    The backward pass repeats, op for op and in the same accumulation order,
    what ``autodiff.Tensor.backward`` does on the graph of ``forward_t``, so
    the gradients are bit-identical to the engine's. That is why a gradient
    with three or more terms (the trunk's, each head's log-probs') sums them
    in the engine's order, and why masks multiply rather than select:
    ``g * 0.0`` keeps the sign of a zero that a selection would drop.
    """
    p = policy.params
    x = np.asarray(batch["obs"], dtype=np.float64)
    B = x.shape[0]
    rows = np.arange(B)
    taken_idx = [np.asarray(batch["actions"][:, i], dtype=int)
                 for i in range(len(policy.head_sizes))]
    h, trunk = policy._trunk_np(x)

    # ---- forward
    logp = policy.log_probs(trunk)
    log_probs = [logp[i, :, :size] for i, size in enumerate(policy.head_sizes)]
    probs = [np.exp(lp) for lp in log_probs]
    new_logp = None
    for lp, idx in zip(log_probs, taken_idx):
        taken = lp[rows, idx]
        new_logp = taken if new_logp is None else new_logp + taken
    values = (trunk @ p["wv"] + p["bv"]).sum(axis=1)

    old_logp = np.asarray(batch["old_logp"], dtype=np.float64)
    ratio = np.exp(new_logp - old_logp)
    adv = np.asarray(batch["advantages"], dtype=np.float64)
    eps = config.clip_epsilon
    ratio_inside = (ratio >= 1.0 - eps) & (ratio <= 1.0 + eps)
    unclipped = ratio * adv
    clipped = np.clip(ratio, 1.0 - eps, 1.0 + eps) * adv
    take_unclipped = unclipped <= clipped
    policy_loss = -np.minimum(unclipped, clipped).mean()

    returns = np.asarray(batch["returns"], dtype=np.float64)
    err = values - returns
    old_values = np.asarray(batch["old_values"], dtype=np.float64)
    moved = values - old_values
    moved_inside = (moved >= -eps) & (moved <= eps)
    err_clipped = old_values + np.clip(moved, -eps, eps) - returns
    sq_raw, sq_clipped = err ** 2, err_clipped ** 2
    take_raw = sq_raw >= sq_clipped
    value_loss = np.maximum(sq_raw, sq_clipped).mean()

    entropy = None
    for lp, pr in zip(log_probs, probs):
        head_entropy = -(pr * lp).sum(axis=1)
        entropy = head_entropy if entropy is None else entropy + head_entropy
    entropy_mean = entropy.mean()

    loss = (policy_loss + config.value_coef * value_loss
            - config.entropy_coef * entropy_mean)
    if not np.isfinite(loss):
        raise FloatingPointError(
            f"non-finite PPO loss (policy={policy_loss}, "
            f"value={value_loss}, entropy={entropy_mean})")

    # ---- backward from d loss / d loss = 1, each seed formed as the engine does
    g_surrogate = np.full(B, -1.0 / B)
    g_value_elems = np.full(B, (1.0 * config.value_coef) / B)
    g_entropy_elems = -((-1.0 * config.entropy_coef) / B)

    # surrogate -> ratio -> new log-prob
    g_ratio = (g_surrogate * ~take_unclipped) * adv * ratio_inside
    g_ratio += (g_surrogate * take_unclipped) * adv
    g_new_logp = g_ratio * ratio

    # value loss -> values
    g_values = (g_value_elems * ~take_raw) * 2.0 * err_clipped * moved_inside
    g_values += (g_value_elems * take_raw) * 2.0 * err
    g_value_out = g_values.reshape(B, 1)

    grads: dict[str, np.ndarray] = {}
    g_trunk = g_value_out @ p["wv"].T
    grads["wv"] = trunk.T @ g_value_out
    grads["bv"] = g_value_out.sum(axis=0)
    for i in reversed(range(len(log_probs))):
        lp, pr = log_probs[i], probs[i]
        # entropy's two paths into the log-probs, then the taken actions'
        g_entropy = np.full(lp.shape, g_entropy_elems)
        g_lp = g_entropy * pr
        g_lp += (g_entropy * lp) * pr
        gathered = np.zeros_like(lp)
        gathered[rows, taken_idx[i]] = g_new_logp + 0.0  # 0.0 + g, as a sum would give
        g_lp += gathered
        g_logits = g_lp - pr * g_lp.sum(axis=-1, keepdims=True)
        g_trunk += g_logits @ p[f"wh{i}"].T
        grads[f"wh{i}"] = trunk.T @ g_logits
        grads[f"bh{i}"] = g_logits.sum(axis=0)
    g_pre2 = g_trunk * (1.0 - trunk ** 2)
    g_h = g_pre2 @ p["w2"].T
    g_pre1 = g_h * (1.0 - h ** 2)
    grads["w1"] = x.T @ g_pre1
    grads["b1"] = g_pre1.sum(axis=0)
    grads["w2"] = h.T @ g_pre2
    grads["b2"] = g_pre2.sum(axis=0)

    diagnostics = {
        "loss": float(loss),
        "policy_loss": float(policy_loss),
        "value_loss": float(value_loss),
        "entropy": float(entropy_mean),
        "clip_fraction": float(np.mean(np.abs(ratio - 1.0) > eps)),
        "kl": float(np.mean(old_logp - new_logp)),
    }
    return float(loss), {k: grads[k] for k in p}, diagnostics


class Adam:
    """Adam with bias correction and global gradient-norm clipping; a
    ``max_grad_norm`` of inf never clips."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-5

    def __init__(self, params: dict[str, np.ndarray], lr: float,
                 max_grad_norm: float = 0.5):
        self.lr = lr
        self.max_grad_norm = max_grad_norm
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params: dict[str, np.ndarray],
             grads: dict[str, np.ndarray]) -> None:
        total = np.sqrt(sum(float((g ** 2).sum()) for g in grads.values()))
        if total > self.max_grad_norm:
            scale = self.max_grad_norm / (total + 1e-12)
            grads = {k: g * scale for k, g in grads.items()}
        self.t += 1
        bc1 = 1.0 - self.BETA1 ** self.t
        bc2 = 1.0 - self.BETA2 ** self.t
        # In place, each operation of m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g**2
        # and p -= lr * m_hat / (sqrt(v_hat) + eps) in the same order (same bits)
        for k, g in grads.items():
            m, v = self.m[k], self.v[k]
            m *= self.BETA1
            m += (1.0 - self.BETA1) * g
            v *= self.BETA2
            v += (1.0 - self.BETA2) * g ** 2
            update = m / bc1
            update *= self.lr
            denom = v / bc2
            np.sqrt(denom, out=denom)
            denom += self.EPS
            update /= denom
            params[k] -= update


@dataclass
class EpisodeStats:
    env_index: int
    global_step: int
    length: int
    total_reward: float
    total_lost: float
    sfc_steps: int


@dataclass
class TrainLog:
    """Metrics accumulated over training."""

    updates: list[dict] = field(default_factory=list)
    episodes: list[EpisodeStats] = field(default_factory=list)
    # Per-env-step series from env 0 (reward curve over training time)
    env0_steps: list[dict] = field(default_factory=list)
    aborted: bool = False


def train(env_factory, config: PpoConfig, policy: PolicyNetwork | None = None,
          log_env0: bool = True) -> tuple[PolicyNetwork, TrainLog]:
    """Run PPO on environments produced by ``env_factory(index)``.

    Rollouts interleave ``n_envs`` environments stepped in a fixed order so
    results are seed-deterministic. Each env advances through
    ``step_into(components, row)``, which writes its next observation into
    its row of one ``(n_envs, obs_dim)`` matrix and returns ``(reward, sfc,
    packets, done)``; episode totals come from ``env.episode_totals()``.
    On non-finite parameters, training stops and the last finite
    parameters are returned with ``log.aborted`` set.
    """
    envs = [env_factory(i) for i in range(config.n_envs)]
    episode_counters = [0] * config.n_envs
    obs = np.stack([env.reset(derive_seed(config.seed, f"env{i}", 0))
                    for i, env in enumerate(envs)])
    rows = list(obs)  # row views: each env writes its next observation in place
    if policy is None:
        policy = PolicyNetwork(envs[0].obs_dim, envs[0].head_sizes, seed=config.seed)
    log = TrainLog()
    if config.total_steps <= 0:
        return policy, log

    action_rng = entity_rng(config.seed, 20)
    perm_rng = entity_rng(config.seed, 21)
    adam = Adam(policy.params, config.learning_rate,
                max_grad_norm=config.max_grad_norm)
    normalizer = (ReturnNormalizer(config.n_envs, config.gamma)
                  if config.normalize_rewards else None)
    obs_stats = RunningObsStats(envs[0].obs_dim) if config.normalize_observations \
        else None

    n, T = config.n_envs, config.rollout_length
    obs_dim, n_heads = envs[0].obs_dim, len(envs[0].head_sizes)

    global_step = 0
    n_updates = max(1, config.total_steps // (n * T))
    for update in range(n_updates):
        buf_obs = np.zeros((T, n, obs_dim))
        buf_actions = np.zeros((T, n, n_heads), dtype=int)
        buf_logp = np.zeros((T, n))
        buf_rewards = np.zeros((T, n))
        buf_values = np.zeros((T, n))
        buf_dones = np.zeros((T, n))

        for t in range(T):
            if obs_stats is not None:
                obs_stats.update(obs)
                obs_in = obs_stats.normalize(obs)
            else:
                obs_in = obs
            components, joint_logp, values = policy.sample(obs_in, action_rng)
            buf_obs[t] = obs_in
            buf_actions[t] = components
            buf_logp[t] = joint_logp
            buf_values[t] = values
            for i, (env, comps, row) in enumerate(zip(envs, components.tolist(), rows)):
                reward, sfc, packets, done = env.step_into(comps, row)
                buf_rewards[t, i], buf_dones[t, i] = reward, done
                if log_env0 and i == 0:
                    log.env0_steps.append({
                        "step": global_step + t,
                        "reward": reward,
                        "sfc": sfc,
                        "packets": packets,
                    })
                if done:
                    log.episodes.append(EpisodeStats(
                        i, global_step + t, *env.episode_totals()))
                    episode_counters[i] += 1
                    row[:] = env.reset(
                        derive_seed(config.seed, f"env{i}", episode_counters[i]))
            if normalizer is not None:
                buf_rewards[t] = normalizer.scale(buf_rewards[t], buf_dones[t])
        global_step += T * n

        _, bootstrap = policy.forward_np(
            obs_stats.normalize(obs) if obs_stats is not None else obs)
        advantages, returns = compute_gae(
            buf_rewards, buf_values, buf_dones, config.gamma,
            config.gae_lambda, bootstrap)

        flat = {
            "obs": buf_obs.reshape(T * n, obs_dim),
            "actions": buf_actions.reshape(T * n, n_heads),
            "old_logp": buf_logp.reshape(T * n),
            "old_values": buf_values.reshape(T * n),
            "advantages": advantages.reshape(T * n),
            "returns": returns.reshape(T * n),
        }
        batch_size = T * n
        mb_size = max(1, batch_size // config.minibatches)
        snapshot = policy.copy_params()
        diag_accum: dict[str, float] = {}
        n_mb = 0
        for _ in range(config.epochs):
            order = perm_rng.permutation(batch_size)
            for start in range(0, batch_size, mb_size):
                idx = order[start:start + mb_size]
                minibatch = {k: v[idx] for k, v in flat.items()}
                adv = minibatch["advantages"]
                minibatch["advantages"] = (adv - adv.mean()) / (adv.std() + 1e-8)
                _, grads, diag = ppo_loss(policy, minibatch, config)
                adam.step(policy.params, grads)
                for k, v in diag.items():
                    diag_accum[k] = diag_accum.get(k, 0.0) + v
                n_mb += 1
        if not policy.params_finite():
            logger.error("non-finite parameters after update %d; aborting", update)
            policy.set_params(snapshot)
            log.aborted = True
            break
        row = {k: v / n_mb for k, v in diag_accum.items()}
        row["update"] = update
        row["global_step"] = global_step
        log.updates.append(row)
    if obs_stats is not None:
        policy.obs_stats = (obs_stats.mean.copy(), obs_stats.var.copy())
    return policy, log
