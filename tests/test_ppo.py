import numpy as np
import pytest

from sfcsim.autodiff import Tensor
from sfcsim.policy import PolicyNetwork
from sfcsim.ppo import (Adam, PpoConfig, ReturnNormalizer, RunningObsStats,
                        compute_gae, ppo_loss, train)

from helpers import build_tensors, head_log_probs
from toy_env import CorridorEnv, greedy_return


def gae_oracle(rewards, values, dones, gamma, lam, bootstrap):
    """Brute-force backward recursion, written independently of the library."""
    T = len(rewards)
    adv = np.zeros(T)
    last = 0.0
    next_value = bootstrap
    for t in range(T - 1, -1, -1):
        nonterminal = 1.0 - dones[t]
        delta = rewards[t] + gamma * next_value * nonterminal - values[t]
        last = delta + gamma * lam * nonterminal * last
        adv[t] = last
        next_value = values[t]
    return adv, adv + values


def gae_1d(rewards, values, dones, gamma, lam, bootstrap):
    """``compute_gae`` on one env: the sequences as (T, 1) columns."""
    def column(x):
        return np.asarray(x, dtype=np.float64)[:, None]
    adv, ret = compute_gae(column(rewards), column(values), column(dones),
                           gamma, lam, np.array([bootstrap], dtype=np.float64))
    return adv[:, 0], ret[:, 0]


# ----------------------------------------------------------------------- GAE

def test_gae_lambda_zero_is_one_step_td():
    rng = np.random.default_rng(0)
    r, v = rng.normal(size=12), rng.normal(size=12)
    d = np.zeros(12)
    adv, _ = gae_1d(r, v, d, 0.95, 0.0, 0.3)
    next_v = np.append(v[1:], 0.3)
    np.testing.assert_allclose(adv, r + 0.95 * next_v - v, atol=1e-12)


def test_gae_undistorted_suffix_sums():
    r = np.array([1.0, 2.0, 3.0, 4.0])
    adv, ret = gae_1d(r, np.zeros(4), np.zeros(4), 1.0, 1.0, 0.0)
    np.testing.assert_allclose(adv, [10.0, 9.0, 7.0, 4.0])
    np.testing.assert_allclose(ret, adv)


def test_gae_worked_example():
    # rewards [1,1], values [0.5,0.5], bootstrap 0, gamma .9, lambda .8:
    # A_1 = 1 - 0.5 = 0.5; A_0 = 1 + 0.45 - 0.5 + 0.72*0.5 = 1.31
    adv, ret = gae_1d([1.0, 1.0], [0.5, 0.5], [0.0, 0.0], 0.9, 0.8, 0.0)
    oracle_adv, oracle_ret = gae_oracle(
        np.array([1.0, 1.0]), np.array([0.5, 0.5]), np.zeros(2), 0.9, 0.8, 0.0)
    np.testing.assert_allclose(adv, [1.31, 0.5], atol=1e-12)
    np.testing.assert_array_equal(adv, oracle_adv)
    np.testing.assert_array_equal(ret, oracle_ret)


def test_gae_matches_oracle_exactly_on_random_sequences():
    rng = np.random.default_rng(1)
    for _ in range(100):
        T = int(rng.integers(1, 33))
        r = rng.normal(size=T)
        v = rng.normal(size=T)
        d = (rng.random(T) < 0.25).astype(float)
        gamma, lam = rng.uniform(0.8, 1.0), rng.uniform(0.0, 1.0)
        boot = float(rng.normal())
        adv, ret = gae_1d(r, v, d, gamma, lam, boot)
        o_adv, o_ret = gae_oracle(r, v, d, gamma, lam, boot)
        assert np.array_equal(adv, o_adv)
        assert np.array_equal(ret, o_ret)


def test_gae_done_masks_bootstrap():
    adv, _ = gae_1d([1.0], [0.0], [1.0], 0.9, 0.9, 100.0)
    np.testing.assert_allclose(adv, [1.0])


def test_gae_batch_matches_oracle_per_env():
    # staggered dones: env 0 never ends, env 1 ends twice, env 2 at the last step
    rng = np.random.default_rng(2)
    T = 16
    r, v = rng.normal(size=(T, 3)), rng.normal(size=(T, 3))
    d = np.zeros((T, 3))
    d[[4, 11], 1] = 1.0
    d[T - 1, 2] = 1.0
    boot = rng.normal(size=3)
    adv, ret = compute_gae(r, v, d, 0.97, 0.9, boot)
    assert adv.shape == ret.shape == (T, 3)
    for i in range(3):
        o_adv, o_ret = gae_oracle(r[:, i], v[:, i], d[:, i], 0.97, 0.9, boot[i])
        assert adv[:, i].tobytes() == o_adv.tobytes()
        assert ret[:, i].tobytes() == o_ret.tobytes()


# ---------------------------------------------------------------------- loss

def make_batch(net, rng, B=8):
    """A batch as the rollout collects it: old log-probs and values from ``net``."""
    obs = rng.normal(size=(B, net.obs_dim))
    actions = np.stack([rng.integers(0, s, B) for s in net.head_sizes], axis=1)
    logps = head_log_probs(net, obs)
    old_logp = sum(lp[np.arange(B), actions[:, i]] for i, lp in enumerate(logps))
    return {
        "obs": obs, "actions": actions, "old_logp": old_logp,
        "old_values": net.forward_np(obs)[1],
        "advantages": rng.normal(size=B), "returns": rng.normal(size=B),
    }


def graph_loss(policy, batch, config):
    """The PPO loss composed on the autodiff engine: the oracle for ppo_loss.

    Returns (loss tensor, parameter tensors, diagnostics); call
    ``loss.backward()`` to fill each parameter tensor's ``grad``.
    """
    tensors = build_tensors(policy)
    log_probs, values = policy.forward_t(tensors, batch["obs"])
    actions = batch["actions"]
    new_logp = log_probs[0].take_along_rows(actions[:, 0])
    for i in range(1, len(log_probs)):
        new_logp = new_logp + log_probs[i].take_along_rows(actions[:, i])

    ratio = (new_logp - batch["old_logp"]).exp()
    adv = batch["advantages"]
    eps = config.clip_epsilon
    surrogate = (ratio * adv).minimum(ratio.clamp(1.0 - eps, 1.0 + eps) * adv)
    policy_loss = -surrogate.mean()

    clipped = Tensor(batch["old_values"]) + \
        (values - batch["old_values"]).clamp(-eps, eps)
    err_raw = (values - batch["returns"]).square()
    err_clipped = (clipped - batch["returns"]).square()
    value_loss = err_raw.maximum(err_clipped).mean()

    entropy = None
    for lp in log_probs:
        head_entropy = -(lp.exp() * lp).sum(axis=1)
        entropy = head_entropy if entropy is None else entropy + head_entropy
    entropy_mean = entropy.mean()

    loss = (policy_loss + config.value_coef * value_loss
            - config.entropy_coef * entropy_mean)
    diagnostics = {
        "loss": float(loss.data),
        "policy_loss": float(policy_loss.data),
        "value_loss": float(value_loss.data),
        "entropy": float(entropy_mean.data),
        "clip_fraction": float(np.mean(np.abs(ratio.data - 1.0) > eps)),
        "kl": float(np.mean(batch["old_logp"] - new_logp.data)),
    }
    return loss, tensors, diagnostics


def oracle_case(rng, obs_dim, head_sizes, hidden, B):
    """A network with peaked heads and a batch whose ratios and value moves
    fall both inside and outside the clip range (and exactly at 1)."""
    net = PolicyNetwork(obs_dim, head_sizes, hidden=hidden,
                        seed=int(rng.integers(1 << 31)))
    for key, arr in net.params.items():
        arr += rng.normal(scale=0.3, size=arr.shape)
    batch = make_batch(net, rng, B=B)
    exact = rng.random(B) < 0.3  # these rows keep ratio exactly 1
    batch["old_logp"] = batch["old_logp"] + np.where(
        exact, 0.0, rng.normal(scale=0.4, size=B))
    _, values = net.forward_np(batch["obs"])
    batch["old_values"] = values + rng.normal(scale=0.3, size=B)
    batch["returns"] = values + rng.normal(scale=1.0, size=B)
    return net, batch


ORACLE_SIZES = [
    (476, (4, 10, 5, 4), (64, 64), 512),  # reference network, one minibatch
    (476, (4, 10, 5, 4), (64, 64), 1),
    (5, (4, 3, 2, 2), (6, 6), 8),
    (3, (2, 2, 1, 1), (4, 3), 1),
    (8, (2, 1, 1, 1), (64, 64), 37),
]


@pytest.mark.parametrize("sizes", ORACLE_SIZES, ids=lambda s: f"{s[0]}x{s[3]}")
def test_closed_form_matches_graph_bit_for_bit(sizes):
    obs_dim, head_sizes, hidden, B = sizes
    rng = np.random.default_rng(obs_dim * 1000 + B)
    configs = [PpoConfig(),
               PpoConfig(clip_epsilon=0.05, value_coef=0.25, entropy_coef=0.0)]
    for _ in range(6):
        net, batch = oracle_case(rng, obs_dim, head_sizes, hidden, B)
        for cfg in configs:
            loss, grads, diag = ppo_loss(net, batch, cfg)
            ref_loss, tensors, ref_diag = graph_loss(net, batch, cfg)
            ref_loss.backward()
            assert np.float64(loss).tobytes() == ref_loss.data.tobytes()
            assert list(grads) == list(net.params)
            for key, t in tensors.items():
                assert grads[key].shape == t.grad.shape, key
                assert grads[key].tobytes() == t.grad.tobytes(), key
            assert list(diag) == list(ref_diag)
            for key, value in ref_diag.items():
                assert np.float64(diag[key]).tobytes() == np.float64(value).tobytes(), key


def test_oracle_cases_cross_both_clip_ranges():
    rng = np.random.default_rng(0)
    net, batch = oracle_case(rng, 476, (4, 10, 5, 4), (64, 64), 512)
    cfg = PpoConfig()
    _, _, diag = ppo_loss(net, batch, cfg)
    assert 0.2 < diag["clip_fraction"] < 0.8
    _, values = net.forward_np(batch["obs"])
    moved = np.abs(values - batch["old_values"])
    assert (moved < cfg.clip_epsilon).any() and (moved > cfg.clip_epsilon).any()


def test_unchanged_params_give_ratio_one_surrogate():
    net = PolicyNetwork(5, (4, 3, 2, 2), hidden=(6, 6), seed=1)
    rng = np.random.default_rng(2)
    batch = make_batch(net, rng)
    cfg = PpoConfig(value_coef=0.0, entropy_coef=0.0)
    loss, _, diag = ppo_loss(net, batch, cfg)
    assert loss == pytest.approx(-batch["advantages"].mean(), abs=1e-12)
    assert diag["clip_fraction"] == 0.0
    assert diag["kl"] == pytest.approx(0.0, abs=1e-12)


def test_clip_saturation_zeroes_policy_gradient():
    net = PolicyNetwork(5, (4, 3, 2, 2), hidden=(6, 6), seed=3)
    rng = np.random.default_rng(4)
    batch = make_batch(net, rng, B=4)
    eps = 0.2
    # make every ratio exactly 1+2*eps with positive advantages
    batch["old_logp"] = batch["old_logp"] - np.log(1.0 + 2 * eps)
    batch["advantages"] = np.abs(batch["advantages"]) + 0.1
    cfg = PpoConfig(clip_epsilon=eps, value_coef=0.0, entropy_coef=0.0)
    loss, grads, diag = ppo_loss(net, batch, cfg)
    assert diag["clip_fraction"] == 1.0
    assert loss == pytest.approx(-(1 + eps) * batch["advantages"].mean(), rel=1e-9)
    assert list(grads) == list(net.params)
    for g in grads.values():
        np.testing.assert_allclose(g, 0.0, atol=1e-12)


def test_gradients_match_finite_differences():
    net = PolicyNetwork(3, (2, 2, 1, 1), hidden=(4, 3), seed=5)
    rng = np.random.default_rng(6)
    batch = make_batch(net, rng, B=6)
    cfg = PpoConfig()
    _, grads, _ = ppo_loss(net, batch, cfg)
    eps = 1e-6
    worst = 0.0
    for key, arr in net.params.items():
        analytic = grads[key].reshape(-1)
        for j in range(arr.size):
            orig = arr.flat[j]
            arr.flat[j] = orig + eps
            lp, _, _ = ppo_loss(net, batch, cfg)
            arr.flat[j] = orig - eps
            lm, _, _ = ppo_loss(net, batch, cfg)
            arr.flat[j] = orig
            fd = (lp - lm) / (2 * eps)
            rel = abs(fd - analytic[j]) / max(abs(fd), abs(analytic[j]), 1e-8)
            worst = max(worst, rel)
    assert worst < 1e-4


def test_non_finite_loss_raises():
    net = PolicyNetwork(3, (2, 2, 1, 1), hidden=(4, 3), seed=7)
    rng = np.random.default_rng(8)
    batch = make_batch(net, rng, B=4)
    batch["advantages"] = np.full(4, np.inf)
    with pytest.raises(FloatingPointError):
        ppo_loss(net, batch, PpoConfig())


# ---------------------------------------------------------------- normalizers

def test_obs_stats_match_two_pass_welford_bit_for_bit():
    rng = np.random.default_rng(11)
    stats = RunningObsStats(7)
    mean, var, count = np.zeros(7), np.ones(7), 1e-4
    for _ in range(50):
        batch = rng.normal(loc=3.0, scale=rng.uniform(0.1, 5.0), size=(8, 7))
        stats.update(batch)
        n = batch.shape[0]
        delta = batch.mean(axis=0) - mean
        total = count + n
        mean = mean + delta * n / total
        var = (var * count + batch.var(axis=0) * n
               + delta ** 2 * count * n / total) / total
        count = total
        assert stats.mean.tobytes() == mean.tobytes()
        assert stats.var.tobytes() == var.tobytes()


def test_return_normalizer_matches_numpy_scalar_welford():
    rng = np.random.default_rng(12)
    norm = ReturnNormalizer(4, gamma=0.99)
    count, mean, m2 = 0, 0.0, 0.0
    for _ in range(100):
        rewards = rng.normal(scale=50.0, size=4)
        for x in norm.returns * 0.99 + rewards:  # np.float64 scalars
            count += 1
            delta = x - mean
            mean += delta / count
            m2 += delta * (x - mean)
        norm.scale(rewards, np.zeros(4))
        assert norm.count == count
        assert np.float64(norm.mean).tobytes() == np.float64(mean).tobytes()
        assert np.float64(norm.m2).tobytes() == np.float64(m2).tobytes()


# ---------------------------------------------------------------------- Adam

def test_adam_minimizes_quadratic():
    params = {"x": np.array([5.0, -3.0])}
    opt = Adam(params, lr=0.1, max_grad_norm=np.inf)
    for _ in range(500):
        opt.step(params, {"x": 2.0 * params["x"]})
    np.testing.assert_allclose(params["x"], 0.0, atol=1e-4)


def test_gradient_norm_clipping():
    params = {"x": np.array([0.0])}
    opt = Adam(params, lr=1.0, max_grad_norm=0.5)
    grads = {"x": np.array([100.0])}
    opt.step(params, grads)
    # clipped gradient keeps the original direction
    assert params["x"][0] < 0.0
    assert np.array_equal(grads["x"], [100.0])  # caller's array untouched


def test_adam_with_inf_norm_takes_the_unclipped_step():
    rng = np.random.default_rng(3)
    params = {"a": rng.normal(size=(3, 2)), "b": rng.normal(size=4)}
    expected = {k: v.copy() for k, v in params.items()}
    m = {k: np.zeros_like(v) for k, v in params.items()}
    s = {k: np.zeros_like(v) for k, v in params.items()}
    opt = Adam(params, lr=0.01, max_grad_norm=np.inf)
    for t in range(1, 4):
        grads = {k: 1e3 * rng.normal(size=v.shape) for k, v in params.items()}
        opt.step(params, grads)
        for k, g in grads.items():  # textbook Adam, betas (0.9, 0.999), eps 1e-5
            m[k] = 0.9 * m[k] + (1.0 - 0.9) * g
            s[k] = 0.999 * s[k] + (1.0 - 0.999) * g ** 2
            m_hat = m[k] / (1.0 - 0.9 ** t)
            s_hat = s[k] / (1.0 - 0.999 ** t)
            expected[k] = expected[k] - 0.01 * m_hat / (np.sqrt(s_hat) + 1e-5)
        for k in params:
            assert params[k].tobytes() == expected[k].tobytes()


def test_max_grad_norm_none_is_rejected():
    with pytest.raises(ValueError, match="max_grad_norm"):
        PpoConfig(max_grad_norm=None)


# --------------------------------------------------------------------- train

def test_total_steps_zero_returns_initial_params():
    cfg = PpoConfig(total_steps=0, n_envs=2, seed=3)
    net, log = train(lambda i: CorridorEnv(), cfg)
    fresh = PolicyNetwork(8, (2, 1, 1, 1), seed=3)
    for key in net.params:
        assert np.array_equal(net.params[key], fresh.params[key])
    assert log.updates == []


def test_training_is_bitwise_deterministic():
    cfg = PpoConfig(total_steps=4096, n_envs=2, seed=9)
    net1, log1 = train(lambda i: CorridorEnv(), cfg)
    net2, log2 = train(lambda i: CorridorEnv(), cfg)
    for key in net1.params:
        assert np.array_equal(net1.params[key], net2.params[key])
    assert [u["loss"] for u in log1.updates] == [u["loss"] for u in log2.updates]


def test_corridor_quick_learning_smoke():
    cfg = PpoConfig(total_steps=20_000, n_envs=4, seed=2)
    net, log = train(lambda i: CorridorEnv(), cfg, log_env0=False)
    assert not log.aborted
    assert greedy_return(net) >= 0.95
    assert len(log.episodes) > 50


def test_update_diagnostics_schema():
    cfg = PpoConfig(total_steps=1024, n_envs=2, seed=4)
    _, log = train(lambda i: CorridorEnv(), cfg)
    assert log.updates
    row = log.updates[0]
    for key in ("loss", "policy_loss", "value_loss", "entropy",
                "clip_fraction", "kl", "update", "global_step"):
        assert key in row
    assert row["entropy"] >= 0.0
