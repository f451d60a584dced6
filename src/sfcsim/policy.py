"""MLP policy with factored categorical action heads and a value head.

The action is a 4-component tuple, so the policy factors its distribution
into four independent categorical heads on top of a shared tanh trunk; the
joint log-probability of an action is the sum of the per-head
log-probabilities. A scalar value head shares the trunk.
"""

import json

import numpy as np

from .autodiff import Tensor
from .seeding import entity_rng

CHECKPOINT_VERSION = 1


def orthogonal(rng: np.random.Generator, rows: int, cols: int,
               gain: float) -> np.ndarray:
    """Orthogonal weight init (sign-fixed QR of a Gaussian), scaled by gain."""
    a = rng.normal(size=(max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(a)
    q *= np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return np.ascontiguousarray(gain * q[:rows, :cols])


def clipped_zscore(x: np.ndarray, mean: np.ndarray, var: np.ndarray) -> np.ndarray:
    """Standardize by running mean/variance and clip to [-10, 10]."""
    z = x - mean
    z /= np.sqrt(var + 1e-8)
    np.maximum(z, -10.0, out=z)
    return np.minimum(z, 10.0, out=z)


def _log_softmax_np(logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return np.subtract(shifted, np.log(np.exp(shifted).sum(axis=-1, keepdims=True)),
                       out=out)


class PolicyNetwork:
    """Parameter container plus forward passes: numpy for acting and learning,
    Tensor for the autodiff reference that the learner's gradient is checked
    against.

    The network itself never normalizes its input; when the learner
    standardizes observations, the running statistics are attached here
    (``obs_stats``) so checkpoints carry them and acting wrappers can apply
    them.
    """

    def __init__(self, obs_dim: int, head_sizes: tuple[int, ...],
                 hidden: tuple[int, int] = (64, 64), seed: int = 0):
        self.obs_dim = obs_dim
        self.head_sizes = tuple(int(h) for h in head_sizes)
        self.hidden = tuple(int(h) for h in hidden)
        self.obs_stats: tuple[np.ndarray, np.ndarray] | None = None  # (mean, var)
        rng = entity_rng(seed, 40)
        h1, h2 = self.hidden
        self.params: dict[str, np.ndarray] = {
            "w1": orthogonal(rng, obs_dim, h1, np.sqrt(2.0)),
            "b1": np.zeros(h1),
            "w2": orthogonal(rng, h1, h2, np.sqrt(2.0)),
            "b2": np.zeros(h2),
            "wv": orthogonal(rng, h2, 1, 1.0),
            "bv": np.zeros(1),
        }
        for i, size in enumerate(self.head_sizes):
            self.params[f"wh{i}"] = orthogonal(rng, h2, size, 0.01)
            self.params[f"bh{i}"] = np.zeros(size)
        # sample()'s constants: parameter names, and index arrays with one row
        # per head and its last category
        self._head_keys = [(f"wh{i}", f"bh{i}") for i in range(len(self.head_sizes))]
        self._head_rows = np.arange(len(self.head_sizes))[:, None]
        self._head_last = np.array(self.head_sizes)[:, None] - 1

    # ------------------------------------------------------------ numpy path

    def _trunk_np(self, obs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Both hidden layers' activations, (first, second)."""
        p = self.params
        h = np.tanh(obs @ p["w1"] + p["b1"])
        return h, np.tanh(h @ p["w2"] + p["b2"])

    def forward_np(self, obs: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        """Per-head logits and state values for a batch of observations."""
        obs = np.atleast_2d(np.asarray(obs, dtype=np.float64))
        if obs.shape[1] != self.obs_dim:
            raise ValueError(f"expected obs dim {self.obs_dim}, got {obs.shape[1]}")
        _, trunk = self._trunk_np(obs)
        p = self.params
        logits = [trunk @ p[f"wh{i}"] + p[f"bh{i}"]
                  for i in range(len(self.head_sizes))]
        values = (trunk @ p["wv"] + p["bv"])[:, 0]
        return logits, values

    def sample(self, obs: np.ndarray, rng: np.random.Generator
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sample one action per row of a (batch, obs_dim) float64 array;
        returns (components, joint_logp, values)."""
        p = self.params
        _, trunk = self._trunk_np(obs)
        batch = trunk.shape[0]
        # Heads side by side, (head, row, category), padded with -inf: the
        # padding's probability is 0, so each row's cumulative sum ends on
        # its last category and inverse-CDF sampling cannot land on it. The
        # row max, the shift and exp are elementwise or order-free, so they
        # run once over the padded array; each head's log-sum-exp sums its
        # own block, as the one-head log-softmax does.
        logp = np.full((len(self.head_sizes), batch, max(self.head_sizes)), -np.inf)
        blocks = [logp[i, :, :size] for i, size in enumerate(self.head_sizes)]
        for block, (w, b) in zip(blocks, self._head_keys):
            np.add(trunk @ p[w], p[b], out=block)
        logp -= logp.max(axis=2, keepdims=True)
        shifted_exp = np.exp(logp)
        for i, block in enumerate(blocks):
            block -= np.log(shifted_exp[i, :, :block.shape[1]].sum(axis=1, keepdims=True))
        values = (trunk @ p["wv"] + p["bv"])[:, 0]
        cdf = np.cumsum(np.exp(logp), axis=2)
        # one draw for all heads: the same stream as one rng.random(batch) per head
        u = rng.random((len(self.head_sizes), batch))
        idx = np.minimum((u[:, :, None] > cdf).sum(axis=2), self._head_last)
        chosen = logp[self._head_rows, np.arange(batch), idx]
        joint_logp = np.zeros(batch)
        for head_logp in chosen:  # summed head by head, in order
            joint_logp += head_logp
        return idx.T, joint_logp, values

    def mode(self, obs: np.ndarray) -> np.ndarray:
        """Greedy action components (argmax of each head)."""
        logits, _ = self.forward_np(obs)
        return np.stack([l.argmax(axis=1) for l in logits], axis=1)

    # ----------------------------------------------------------- tensor path

    def build_tensors(self) -> dict[str, Tensor]:
        """Wrap the current parameters as graph leaves for one update."""
        return {k: Tensor(v, requires_grad=True) for k, v in self.params.items()}

    def forward_t(self, tensors: dict[str, Tensor], obs: np.ndarray
                  ) -> tuple[list[Tensor], Tensor]:
        """Differentiable forward: per-head log-softmax tensors and values."""
        x = Tensor(np.asarray(obs, dtype=np.float64))
        h = (x @ tensors["w1"] + tensors["b1"]).tanh()
        trunk = (h @ tensors["w2"] + tensors["b2"]).tanh()
        log_probs = [(trunk @ tensors[f"wh{i}"] + tensors[f"bh{i}"]).log_softmax()
                     for i in range(len(self.head_sizes))]
        values = (trunk @ tensors["wv"] + tensors["bv"]).sum(axis=1)
        return log_probs, values

    # ------------------------------------------------------------ utilities

    def normalize_obs(self, obs: np.ndarray) -> np.ndarray:
        """Apply the attached running statistics, if any (clipped z-score)."""
        if self.obs_stats is None:
            return obs
        return clipped_zscore(obs, *self.obs_stats)

    def copy_params(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.params.items()}

    def set_params(self, params: dict[str, np.ndarray]) -> None:
        for k, v in params.items():
            self.params[k] = v.copy()

    def params_finite(self) -> bool:
        return all(np.isfinite(v).all() for v in self.params.values())

    # ----------------------------------------------------------- persistence

    def save(self, path, config_hash: str = "", seed: int | None = None) -> None:
        meta = {
            "version": CHECKPOINT_VERSION,
            "obs_dim": self.obs_dim,
            "head_sizes": list(self.head_sizes),
            "hidden": list(self.hidden),
            "config_hash": config_hash,
            "seed": seed,
            "has_obs_stats": self.obs_stats is not None,
        }
        extra = {}
        if self.obs_stats is not None:
            extra["obs_mean"], extra["obs_var"] = self.obs_stats
        np.savez(path, __meta__=json.dumps(meta), **self.params, **extra)

    @classmethod
    def load(cls, path, expect_obs_dim: int | None = None,
             expect_head_sizes: tuple[int, ...] | None = None) -> "PolicyNetwork":
        data = np.load(path, allow_pickle=False)
        meta = json.loads(str(data["__meta__"]))
        if meta["version"] != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {meta['version']}")
        if expect_obs_dim is not None and meta["obs_dim"] != expect_obs_dim:
            raise ValueError(
                f"checkpoint obs_dim {meta['obs_dim']} does not match "
                f"environment obs_dim {expect_obs_dim}")
        if (expect_head_sizes is not None
                and tuple(meta["head_sizes"]) != tuple(expect_head_sizes)):
            raise ValueError(
                f"checkpoint head sizes {meta['head_sizes']} do not match "
                f"topology head sizes {list(expect_head_sizes)}")
        net = cls(meta["obs_dim"], tuple(meta["head_sizes"]),
                  tuple(meta["hidden"]))
        for key in net.params:
            net.params[key] = np.asarray(data[key], dtype=np.float64)
        if meta.get("has_obs_stats"):
            net.obs_stats = (np.asarray(data["obs_mean"], dtype=np.float64),
                             np.asarray(data["obs_var"], dtype=np.float64))
        return net
