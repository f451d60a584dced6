"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Criteria 6-8 share one trained agent (session fixture in
conftest.py); everything else runs standalone.
"""

import math
import time

import numpy as np
import pytest

from sfcsim.clustering import elbow_scan, kmeans_fit
from sfcsim.env import ActionTuple, EnvConfig, SfcEnv
from sfcsim.policies import PpoPolicy, RandomPolicy, NoopPolicy, evaluate_policy
from sfcsim.policy import PolicyNetwork
from sfcsim.ppo import PpoConfig, compute_gae, ppo_loss, train
from sfcsim.simcore import (EnergyModel, FailureModel, SimState, Topology,
                            VNF_REPAIR)
from sfcsim.trace import SteppedTrace

from helpers import head_log_probs, instances, step_obs
from test_clustering import adjusted_rand_index, blob_profiles
from toy_env import CorridorEnv, greedy_return


def report(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\n[acceptance] {status} {criterion} {detail}")
    assert passed, f"{criterion}: {detail}"


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_reward_oracle_equivalence():
    """env.step reward equals an independent reward recomputation, 1e-9 abs."""
    started = time.time()
    rng = np.random.default_rng(101)
    topo = Topology()
    cfg = EnvConfig()
    checked = 0
    worst = 0.0
    while checked < 1000:
        n_steps = 120
        trace = SteppedTrace(
            list(range(1, 7)), rng.uniform(0, 120, size=(n_steps, 6)))
        env = SfcEnv(trace, topo, FailureModel(mttf_vnf=0.3, mttr_vnf=0.08),
                     EnergyModel(), cfg)
        env.reset(seed=int(rng.integers(1 << 30)))
        done = False
        while not done and checked < 1000:
            a = ActionTuple(int(rng.integers(1, 5)), int(rng.integers(10)),
                            int(rng.integers(5)), int(rng.integers(4)))
            before = {id(i): True for _, i in instances(env.sim)}
            _, reward, done, b = step_obs(env, a)
            # independent recomputation of the reward from raw state
            sfc = 1
            for vnf_type in range(4):
                ok = any(srv.up and inst.up and inst.vnf_type == vnf_type
                         for srv, inst in instances(env.sim))
                if not ok:
                    sfc = 0
            watts = 0.0
            for _, inst in instances(env.sim):
                watts += inst.cpu_units * 40.0 + inst.mem_units * 30.72
            restart = 1 if (a.a == 3 and env.step_records[-1].accepted) else 0
            expected = (-(1 - sfc) * cfg.w_p * b.packets - cfg.w_e * watts
                        - cfg.restart_penalty * restart + sfc * cfg.f)
            worst = max(worst, abs(reward - expected))
            checked += 1
    elapsed = time.time() - started
    report("criterion 1 (reward oracle, 1000 random steps)",
           worst <= 1e-9 and elapsed < 10.0,
           f"max |diff|={worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_availability_oracle():
    """Long-run availability matches mttf/(mttf+mttr) renewal estimates."""
    started = time.time()
    # VNF availability: 24/24.033 over 10,000 hours (server failures off)
    failure = FailureModel(mttf_server=1e15)
    state = SimState(Topology(n_dcs=1, servers_per_dc=1), failure, seed=7)
    state.apply_action(1, 0, 0, 0)
    horizon = 10_000.0
    events = state.advance_to(horizon)
    down_time = 0.0
    down_since = None
    for e in events:
        if e.kind == "vnf_fail":
            down_since = e.time
        elif e.kind == VNF_REPAIR:
            down_time += e.time - down_since
            down_since = None
    if down_since is not None:
        down_time += horizon - down_since
    vnf_avail = 1.0 - down_time / horizon
    vnf_expected = 24.0 / 24.033
    vnf_ok = abs(vnf_avail - vnf_expected) <= 0.002

    # server availability: 8760/8761.667 over 500,000 server-hours
    state = SimState(Topology(n_dcs=10, servers_per_dc=5), FailureModel(),
                     seed=11)
    per_server_h = 10_000.0
    events = state.advance_to(per_server_h)
    down_time = 0.0
    down_since = {}
    for e in events:
        key = (e.dc_id, e.server_id)
        if e.kind == "server_fail":
            down_since[key] = e.time
        else:
            down_time += e.time - down_since.pop(key)
    for t0 in down_since.values():
        down_time += per_server_h - t0
    server_avail = 1.0 - down_time / (50 * per_server_h)
    server_expected = 8760.0 / 8761.667
    server_ok = abs(server_avail - server_expected) <= 0.005
    elapsed = time.time() - started
    report("criterion 2 (availability oracle)",
           vnf_ok and server_ok and elapsed < 30.0,
           f"vnf={vnf_avail:.5f} (want {vnf_expected:.5f}+-0.002), "
           f"server={server_avail:.6f} (want {server_expected:.6f}+-0.005), "
           f"{elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 3

def test_criterion_3_energy_arithmetic():
    state = SimState(Topology(), FailureModel(mttf_server=1e15,
                                              mttf_vnf=1e15))
    model = EnergyModel()
    zero_total, _ = state.energy_consumption(model)
    state.apply_action(1, 0, 0, 0)
    one_total, _ = state.energy_consumption(model)
    for t in range(1, 4):
        state.apply_action(1, t % 2, 0, t)
    four_total, per_dc = state.energy_consumption(model)
    ok = (zero_total == 0.0 and one_total == pytest.approx(70.72, abs=1e-12)
          and four_total == pytest.approx(282.88, abs=1e-12)
          and sum(per_dc) == pytest.approx(four_total, abs=1e-12))
    report("criterion 3 (energy arithmetic)", ok,
           f"1 VNF={one_total}W, 4 VNFs={four_total}W, per-DC sum={sum(per_dc)}W")


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_gae_and_gradients():
    started = time.time()
    # GAE equals the brute-force recursion exactly on 100 random sequences
    rng = np.random.default_rng(41)
    gae_exact = True
    for _ in range(100):
        T = int(rng.integers(1, 64))
        r, v = rng.normal(size=T), rng.normal(size=T)
        d = (rng.random(T) < 0.2).astype(float)
        gamma, lam = rng.uniform(0.8, 1.0), rng.uniform(0.0, 1.0)
        boot = float(rng.normal())
        adv, _ = compute_gae(r[:, None], v[:, None], d[:, None], gamma, lam,
                             np.array([boot]))
        oracle = np.zeros(T)
        last, next_v = 0.0, boot
        for t in range(T - 1, -1, -1):
            nonterminal = 1.0 - d[t]
            delta = r[t] + gamma * next_v * nonterminal - v[t]
            last = delta + gamma * lam * nonterminal * last
            oracle[t] = last
            next_v = v[t]
        gae_exact = gae_exact and np.array_equal(adv[:, 0], oracle)

    # analytic gradients vs central differences on a toy policy
    net = PolicyNetwork(3, (2, 2, 1, 1), hidden=(4, 3), seed=42)
    obs = rng.normal(size=(6, 3))
    actions = np.stack([rng.integers(0, 2, 6), rng.integers(0, 2, 6),
                        np.zeros(6, int), np.zeros(6, int)], axis=1)
    logps = head_log_probs(net, obs)
    old_logp = sum(lp[np.arange(6), actions[:, i]] for i, lp in enumerate(logps))
    batch = {"obs": obs, "actions": actions, "old_logp": old_logp,
             "old_values": net.forward_np(obs)[1],
             "advantages": rng.normal(size=6), "returns": rng.normal(size=6)}
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
            worst = max(worst, abs(fd - analytic[j])
                        / max(abs(fd), abs(analytic[j]), 1e-8))
    elapsed = time.time() - started
    report("criterion 4 (GAE + gradient suite)",
           gae_exact and worst < 1e-4 and elapsed < 60.0,
           f"gae_exact={gae_exact}, max grad rel err={worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 5

@pytest.mark.slow
def test_criterion_5_ppo_toy_corridor():
    """>= 4 of 5 seeds reach >= 95% of the optimal corridor return in 50k steps."""
    started = time.time()
    passes = 0
    returns = []
    for seed in range(5):
        cfg = PpoConfig(total_steps=50_000, n_envs=4, seed=seed)
        net, log = train(lambda i: CorridorEnv(), cfg, log_env0=False)
        ret = greedy_return(net)
        returns.append(round(ret, 3))
        if not log.aborted and ret >= 0.95:
            passes += 1
    elapsed = time.time() - started
    report("criterion 5 (PPO corridor sanity)",
           passes >= 4 and elapsed < 600.0,
           f"{passes}/5 seeds >= 0.95 optimal, returns={returns}, {elapsed:.0f}s")


# ------------------------------------------------------------- criteria 6-8
# One agent is trained on the reference scenario per session (conftest) and
# shared by the three trained-agent criteria.

@pytest.mark.slow
def test_criterion_6_trained_agent_result_shape(reference_agent):
    """Trained agent reproduces the headline result shapes on the test split:
    (a) complete chain within 150 steps in >=8/10 rollouts, (b) mean per-step
    reward >= 80 over steps 200-893, (c) late cumulative-lost-packet slope
    <= 10% of the early slope."""
    cfg, net, test_env, result = reference_agent
    assert result.n_runs == 10 and result.n_steps == 893

    first_complete = []
    for r in range(result.n_runs):
        hits = np.nonzero(result.sfc[r] == 1)[0]
        first_complete.append(int(hits[0]) if len(hits) else 893)
    a_hits = sum(1 for f in first_complete if f < 150)

    b_mean = float(result.rewards[:, 200:].mean())

    cum = np.cumsum(result.lost, axis=1)
    early_slope = float(((cum[:, 100] - cum[:, 0]) / 100.0).mean())
    late_slope = float(((cum[:, 892] - cum[:, 400]) / 492.0).mean())
    c_ratio = late_slope / early_slope if early_slope > 0 else math.inf

    ok = a_hits >= 8 and b_mean >= 80.0 and c_ratio <= 0.10
    report("criterion 6 (trained-agent result shape)", ok,
           f"(a) {a_hits}/10 complete <150 (first={first_complete}); "
           f"(b) mean reward[200:]={b_mean:.2f} (>=80); "
           f"(c) slope ratio={c_ratio:.4f} (<=0.10, early={early_slope:.2f}, "
           f"late={late_slope:.3f})")


@pytest.mark.slow
def test_criterion_7_baseline_dominance(reference_agent):
    """Trained lost packets <= 50% of random's and <= 5% of no-op's."""
    cfg, net, test_env, result = reference_agent
    trained_lost = float(result.lost.sum(axis=1).mean())
    random_result = evaluate_policy(
        RandomPolicy(test_env.head_sizes, seed=1), test_env, 10,
        master_seed=cfg.master_seed + 1)
    random_lost = float(random_result.lost.sum(axis=1).mean())
    noop_result = evaluate_policy(NoopPolicy(), test_env, 10,
                                  master_seed=cfg.master_seed + 2)
    noop_lost = float(noop_result.lost.sum(axis=1).mean())
    ok = trained_lost <= 0.5 * random_lost and trained_lost <= 0.05 * noop_lost
    report("criterion 7 (baseline dominance)", ok,
           f"trained={trained_lost:.0f}, random={random_lost:.0f} "
           f"(ratio {trained_lost / random_lost:.3f} <= 0.5), "
           f"noop={noop_lost:.0f} (ratio {trained_lost / noop_lost:.4f} <= 0.05)")


@pytest.mark.slow
def test_criterion_8_evaluation_determinism(reference_agent, tmp_path):
    """Repeating the criterion-6 evaluation yields byte-identical CSVs."""
    cfg, net, test_env, result = reference_agent
    paths = []
    for name in ("first", "second"):
        rerun = evaluate_policy(PpoPolicy(net), test_env,
                                cfg.eval.n_runs, master_seed=cfg.master_seed)
        path = tmp_path / f"{name}.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# determinism check\n")
            fh.write("run,step,reward,lost,sfc,energy\n")
            for r in range(rerun.n_runs):
                for t in range(rerun.n_steps):
                    fh.write(f"{r},{t},{rerun.rewards[r, t]!r},"
                             f"{rerun.lost[r, t]!r},{rerun.sfc[r, t]!r},"
                             f"{rerun.energy[r, t]!r}\n")
        paths.append(path)
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    # and the rerun reproduces the fixture's own evaluation exactly
    matches_fixture = np.array_equal(rerun.rewards, result.rewards)
    report("criterion 8 (evaluation determinism)",
           identical and matches_fixture,
           f"byte-identical={identical}, matches fixture={matches_fixture}")


# ---------------------------------------------------------------- criterion 9

def test_criterion_9_clustering():
    rng = np.random.default_rng(91)
    sigma = 0.5
    centers = [np.full(6, 30.0), np.full(6, 30.0 + 25 * sigma),
               np.full(6, 30.0 + 50 * sigma)]
    profiles, truth = blob_profiles(rng, centers, n_per=40, sigma=sigma)
    model = kmeans_fit(profiles, k=3, seed=9)
    labels = np.array([model.assignments[p.cell_id] for p in profiles])
    ari = adjusted_rand_index(labels, truth)

    scan = elbow_scan(profiles, (1, 10), seed=9)
    sses = [s for _, s in scan]
    non_increasing = all(sses[i + 1] <= sses[i] + 1e-12
                         for i in range(len(sses) - 1))
    report("criterion 9 (clustering)",
           ari == 1.0 and non_increasing,
           f"planted-blob ARI={ari}, elbow non-increasing={non_increasing} "
           "(real-dataset cluster-size comparison: dataset not bundled)")
