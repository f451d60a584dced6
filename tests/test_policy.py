import numpy as np
import pytest

from sfcsim.policy import PolicyNetwork, orthogonal

from helpers import head_log_probs


def tiny_net(seed=0):
    return PolicyNetwork(obs_dim=6, head_sizes=(4, 3, 2, 4), hidden=(8, 8),
                         seed=seed)


def test_orthogonal_init_has_orthonormal_columns():
    rng = np.random.default_rng(0)
    w = orthogonal(rng, 10, 4, gain=1.0)
    np.testing.assert_allclose(w.T @ w, np.eye(4), atol=1e-10)


def test_zero_weights_give_uniform_heads():
    net = tiny_net()
    for key in net.params:
        net.params[key] = np.zeros_like(net.params[key])
    logits, values = net.forward_np(np.random.default_rng(1).normal(size=(3, 6)))
    for head_logits, size in zip(logits, net.head_sizes):
        probs = np.exp(head_logits - head_logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(probs, 1.0 / size, atol=1e-12)
    np.testing.assert_array_equal(values, 0.0)


def test_head_probabilities_sum_to_one():
    net = tiny_net(seed=3)
    obs = np.random.default_rng(2).normal(size=(5, 6))
    for lp in head_log_probs(net, obs):
        np.testing.assert_allclose(np.exp(lp).sum(axis=1), 1.0, atol=1e-6)


def test_joint_logp_is_sum_of_head_logps():
    net = tiny_net(seed=4)
    obs = np.random.default_rng(3).normal(size=(7, 6))
    comps, joint, _ = net.sample(obs, np.random.default_rng(9))
    logps = head_log_probs(net, obs)
    manual = sum(lp[np.arange(7), comps[:, i]] for i, lp in enumerate(logps))
    np.testing.assert_allclose(joint, manual, atol=1e-9)


def test_sampling_is_seed_deterministic():
    net = tiny_net(seed=5)
    obs = np.random.default_rng(4).normal(size=(6, 6))
    c1, l1, v1 = net.sample(obs, np.random.default_rng(77))
    c2, l2, v2 = net.sample(obs, np.random.default_rng(77))
    assert np.array_equal(c1, c2)
    assert np.array_equal(l1, l2)


def test_sample_components_within_head_ranges():
    net = tiny_net(seed=6)
    obs = np.random.default_rng(5).normal(size=(200, 6))
    comps, _, _ = net.sample(obs, np.random.default_rng(11))
    for i, size in enumerate(net.head_sizes):
        assert comps[:, i].min() >= 0
        assert comps[:, i].max() < size


def test_mode_matches_argmax():
    net = tiny_net(seed=7)
    obs = np.random.default_rng(6).normal(size=(4, 6))
    logits, _ = net.forward_np(obs)
    modes = net.mode(obs)
    for i, head_logits in enumerate(logits):
        np.testing.assert_array_equal(modes[:, i], head_logits.argmax(axis=1))


def test_init_is_seed_deterministic():
    a, b = tiny_net(seed=8), tiny_net(seed=8)
    for key in a.params:
        assert np.array_equal(a.params[key], b.params[key])


def test_checkpoint_round_trip(tmp_path):
    net = tiny_net(seed=9)
    path = tmp_path / "ckpt.npz"
    net.save(path, config_hash="abc123", seed=9)
    loaded = PolicyNetwork.load(path, 6, (4, 3, 2, 4))
    obs = np.random.default_rng(7).normal(size=(3, 6))
    l1, v1 = net.forward_np(obs)
    l2, v2 = loaded.forward_np(obs)
    for a, b in zip(l1, l2):
        assert np.array_equal(a, b)
    assert np.array_equal(v1, v2)


def test_checkpoint_rejects_mismatched_topology(tmp_path):
    net = tiny_net(seed=10)
    path = tmp_path / "ckpt.npz"
    net.save(path)
    with pytest.raises(ValueError, match="head sizes"):
        PolicyNetwork.load(path, 6, (4, 10, 5, 4))
    with pytest.raises(ValueError, match="obs_dim"):
        PolicyNetwork.load(path, 476, (4, 3, 2, 4))


def test_forward_rejects_wrong_obs_dim():
    net = tiny_net()
    with pytest.raises(ValueError, match="matmul"):
        net.forward_np(np.zeros((2, 5)))
