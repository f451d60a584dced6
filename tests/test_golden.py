"""Golden trajectories: sha256 digests of seeded runs, pinned byte for byte.

A small topology with frequent VNF and server failures drives every
transition of the simulator (create, delete, restart, VNF fail/repair,
server fail/repair with suspended instances). Any change to the simulator's
state handling that moves a single event, step record or float shows up
here as a different digest. The energy digests use ``repr``, so replacing
the sequential per-DC sum with ``n * watts`` fails them. The training
digest covers a short seeded PPO run on the same topology: final
parameters, observation statistics and every logged update, episode and
env-0 step, so a change anywhere in the rollout or the learner shows up.
The clustering digests cover the elbow scan over k = 1..50 of two seeded
synthetic traces, one ``kmeans_fit`` and two Lloyd runs whose init leaves
clusters empty, so that the empty-cluster repair runs.
"""

import hashlib

import numpy as np
import pytest

from sfcsim import ppo
from sfcsim.clustering import (_lloyd, compute_period_profiles, elbow_scan,
                               kmeans_fit)
from sfcsim.env import EnvConfig, SfcEnv, write_step_records
from sfcsim.policies import make_baseline, evaluate_policy
from sfcsim.policy import PolicyNetwork
from sfcsim.simcore import (EnergyModel, FailureModel, N_VNF_TYPES, SimState,
                            Topology)
from sfcsim.trace import generate_synthetic_trace

from helpers import write_event_log

TOPOLOGY = Topology(n_dcs=3, servers_per_dc=3, max_vnfs_per_server=4,
                    max_same_type_per_server=2)
FAILURE = FailureModel(mttf_server=4.0, mttr_server=0.8, mttf_vnf=0.6,
                       mttr_vnf=0.15)

GOLDEN = {
    "random": {
        "step_records": "9f55e8573c815aed5fa659d6fa396cbf504a6d3e06ed84bbc853fb0b3928a86b",
        "arrays": "8c38adf9ce33ccc488238fe0d602b4fd9a28849ba3123476a516d8dfb21c4b58",
        "energy_w": "abf8b75d13a0411b7789d330419dd5e2914f72b6bc6040fae962a3dffaec5276",
    },
    "static_greedy": {
        "step_records": "7a2f5a01920499383ab719fa458a7e2664bcfc7ce575d357b9ffcd2b293fb965",
        "arrays": "aabba43071b2c8a6b266059a3e1162c2cc54852ae94029a179b8f1273b9e1468",
        "energy_w": "59c5f707f3362a73a6ad42b9d71dacdd658f908d5a6884c3bd20e239e565bc14",
    },
    "event_log": "5f598d78cd745d98e1bbf1b0cdf613570870fb756dfd170eb8e03123b201ea9e",
    "walk_energy": "4543750ec1864d662bea5f4b41e04ab06fe119e23dc1873fe289d00810fb2b48",
    "training": "d7e219ce839bfd1224d2c27b92707896e3e8b1233f62c8b7772ec5ee032c4e72",
    "clustering": {
        "elbow_scans": "eff31ea390157f2984ed12b26eb1dbf1fa7b195031f56bb92ba12f97e0b0cd2e",
        "kmeans_fit": "c6586a98ec8869f50297fd0812fc2bdb3b07bd3238378a2e3678fa3e906c3d36",
        "empty_repair": "6cb611841073591b2f264850ae41cdc4c285f26f0929b039887aa4367a02e732",
    },
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def golden_env() -> SfcEnv:
    trace = generate_synthetic_trace(6, 240, seed=7)
    return SfcEnv(trace, TOPOLOGY, FAILURE, EnergyModel(), EnvConfig())


@pytest.mark.parametrize("name", ["random", "static_greedy"])
def test_evaluation_trajectory_is_pinned(name, tmp_path):
    env = golden_env()
    result = evaluate_policy(make_baseline(name, env, seed=3), env, 2,
                             seeds=[11, 12])
    path = tmp_path / "steps.csv"
    write_step_records(result.step_records, path, comments=["golden"])
    arrays = b"".join(a.tobytes() for a in (result.rewards, result.lost,
                                            result.sfc, result.energy))
    energy = "\n".join(repr(float(w)) for w in result.energy.ravel())
    assert {"step_records": sha(path.read_bytes()), "arrays": sha(arrays),
            "energy_w": sha(energy.encode())} == GOLDEN[name]


def test_random_walk_event_log_is_pinned(tmp_path):
    state = SimState(TOPOLOGY, FAILURE, seed=21)
    rng = np.random.default_rng(22)
    events, energy = [], []
    for _ in range(600):
        state.apply_action(int(rng.integers(1, 5)),
                           int(rng.integers(TOPOLOGY.n_dcs)),
                           int(rng.integers(TOPOLOGY.servers_per_dc)),
                           int(rng.integers(N_VNF_TYPES)))
        events.extend(state.advance_to(state.time + 0.25))
        total, per_dc = state.energy_consumption(EnergyModel())
        energy.append(repr(total) + " " + " ".join(map(repr, per_dc)))
    path = tmp_path / "events.csv"
    write_event_log(events, path, comments=["golden"])
    assert sha(path.read_bytes()) == GOLDEN["event_log"]
    assert sha("\n".join(energy).encode()) == GOLDEN["walk_energy"]


def test_training_run_is_pinned():
    trace = generate_synthetic_trace(6, 240, seed=7)
    env_cfg = EnvConfig(episode_length=20, normalize_obs=True,
                        activity_scale=float(trace.steps.max()))
    config = ppo.PpoConfig(total_steps=3 * 3 * 32, n_envs=3, rollout_length=32,
                           minibatches=2, epochs=2, seed=5,
                           normalize_rewards=True, normalize_observations=True)

    def make_env(index: int) -> SfcEnv:
        return SfcEnv(trace, TOPOLOGY, FAILURE, EnergyModel(), env_cfg)

    env = make_env(0)
    net = PolicyNetwork(env.obs_dim, env.head_sizes, hidden=(8, 8), seed=5)
    policy, log = ppo.train(make_env, config, net)
    assert len(log.updates) == 3 and len(log.episodes) >= 9
    params = b"".join(policy.params[k].tobytes() for k in sorted(policy.params))
    stats = b"".join(a.tobytes() for a in policy.obs_stats)
    logs = "\n".join(map(repr, (log.updates, log.episodes, log.env0_steps)))
    assert sha(params + stats + logs.encode()) == GOLDEN["training"]


def clustering_points(seed: int):
    profiles = compute_period_profiles(generate_synthetic_trace(80, 2 * 288, seed=seed))
    return profiles, np.stack([p.features for p in profiles])


def test_clustering_is_pinned():
    scans = [elbow_scan(clustering_points(seed)[0], (1, 50), seed=seed + 1)
             for seed in (31, 32)]
    profiles, points = clustering_points(31)
    model = kmeans_fit(profiles, 12, seed=4)
    fit = (model.centroids.tobytes() + repr(sorted(model.assignments.items())).encode()
           + repr(model.sse).encode())
    repaired = []
    for far in ([2], [1, 3]):
        init = points[:4].copy()
        init[far] = 1e6
        d2 = ((points[:, None, :] - init[None]) ** 2).sum(axis=2)
        assert not np.isin(d2.argmin(axis=1), far).any()  # those clusters start empty
        centroids, labels, sse = (a[0] for a in _lloyd(points, init[None], 300, 1e-6))
        assert centroids.max() < 1e6
        repaired.append(centroids.tobytes() + labels.tobytes() + repr(sse).encode())
    assert {"elbow_scans": sha(repr(scans).encode()), "kmeans_fit": sha(fit),
            "empty_repair": sha(b"".join(repaired))} == GOLDEN["clustering"]
