"""Correctness checks on the outputs of each workload.

Every check returns a list of failure messages (empty when the output is
right), so the benchmark can count failed operations and the smoke test can
show that a tampered output is caught.
"""

import math

import numpy as np

REL_TOL = 1e-9


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def check_rollout(records, step_totals: np.ndarray, env_cfg,
                  energy) -> list[str]:
    """Recompute every step of one evaluation rollout from its StepRecords.

    The reward is rebuilt from the record fields and the config weights, as
    acceptance criterion 1 does; packets must be the trace's step total; and
    the energy must be the allocated instances times the per-instance
    wattage, where allocations follow the accepted creates and deletes.
    """
    failures = []
    watts_per_instance = energy.cpu_watts + energy.mem_watts
    allocated = 0
    cum_reward = 0.0
    if len(records) != len(step_totals):
        failures.append(f"rollout has {len(records)} steps, trace has "
                        f"{len(step_totals)}")
    for t, rec in enumerate(records):
        if rec.accepted and rec.a == 1:
            allocated += 1
        elif rec.accepted and rec.a == 2:
            allocated -= 1
        restarted = 1 if (rec.a == 3 and rec.accepted) else 0
        expected = (-(1 - rec.sfc) * env_cfg.w_p * rec.packets
                    - env_cfg.w_e * rec.energy_w
                    - env_cfg.restart_penalty * restarted + rec.sfc * env_cfg.f)
        cum_reward += rec.reward
        problems = []
        if rec.step != t:
            problems.append(f"index {rec.step}")
        if t < len(step_totals) and not close(rec.packets, step_totals[t]):
            problems.append(f"packets {rec.packets} != trace {step_totals[t]}")
        if not close(rec.reward, expected):
            problems.append(f"reward {rec.reward} != recomputed {expected}")
        if not close(rec.lost, (1 - rec.sfc) * rec.packets):
            problems.append(f"lost {rec.lost}")
        if not close(rec.energy_w, allocated * watts_per_instance):
            problems.append(f"energy {rec.energy_w} W != {allocated} x "
                            f"{watts_per_instance} W")
        if not close(rec.cum_reward, cum_reward, 1e-6):
            problems.append(f"cum_reward {rec.cum_reward} != {cum_reward}")
        if problems:
            failures.append(f"step {t}: " + "; ".join(problems))
    return failures


def check_eval_result(result, rollouts) -> list[str]:
    """The EvalResult arrays must match the per-step records of each run."""
    failures = []
    if len(rollouts) != result.n_runs:
        return [f"{len(rollouts)} rollouts recorded, result has {result.n_runs}"]
    for r, records in enumerate(rollouts):
        fields = {
            "rewards": [rec.reward for rec in records],
            "lost": [rec.lost for rec in records],
            "sfc": [rec.sfc for rec in records],
            "energy": [rec.energy_w for rec in records],
        }
        for name, values in fields.items():
            if not np.array_equal(getattr(result, name)[r], np.asarray(values, float)):
                failures.append(f"run {r}: EvalResult.{name} differs from the steps")
    return failures


def check_train_log(log, n_updates: int, n_envs: int, rollout_length: int,
                    episode_length: int) -> list[str]:
    """A training chunk ran to the end, took every step, and stayed finite."""
    failures = []
    steps = n_updates * n_envs * rollout_length
    if log.aborted:
        failures.append("training aborted on non-finite parameters")
    if len(log.updates) != n_updates:
        failures.append(f"{len(log.updates)} updates logged, {n_updates} requested")
    elif log.updates[-1]["global_step"] != steps:
        failures.append(f"global_step {log.updates[-1]['global_step']} != {steps}")
    for row in log.updates:
        bad = [k for k, v in row.items() if not math.isfinite(v)]
        if bad:
            failures.append(f"update {row['update']}: non-finite {bad}")
    if len(log.env0_steps) != n_updates * rollout_length:
        failures.append(f"env 0 logged {len(log.env0_steps)} steps")
    expected_episodes = n_envs * (n_updates * rollout_length // episode_length)
    if len(log.episodes) != expected_episodes:
        failures.append(f"{len(log.episodes)} episodes, expected {expected_episodes}")
    elif any(e.length != episode_length for e in log.episodes):
        failures.append("an episode did not last episode_length steps")
    return failures


def check_scan(scan, k_range: tuple[int, int], points: np.ndarray) -> list[str]:
    """An elbow scan covers k_range in order with finite, non-increasing SSEs.

    k = 1 has a closed form, the scatter around the mean, which checks the
    SSE arithmetic independently of the K-means code.
    """
    failures = []
    ks = [k for k, _ in scan]
    if ks != list(range(k_range[0], k_range[1] + 1)):
        return [f"scan covers k={ks[:3]}..., expected {k_range}"]
    sses = [s for _, s in scan]
    for k, sse in scan:
        if not (math.isfinite(sse) and sse >= 0.0):
            failures.append(f"k={k}: SSE {sse}")
    for (k, a), (_, b) in zip(scan, scan[1:]):
        if b > a * (1 + REL_TOL):
            failures.append(f"SSE rises from k={k} ({a}) to k={k + 1} ({b})")
    if k_range[0] == 1:
        scatter = float(((points - points.mean(axis=0)) ** 2).sum())
        if not close(sses[0], scatter):
            failures.append(f"k=1 SSE {sses[0]} != scatter {scatter}")
    return failures


def compare_recorded(actual: dict, recorded: dict, label: str) -> list[str]:
    """Integers must match exactly, floats to REL_TOL, lists item by item."""
    failures = []
    for key, want in recorded.items():
        got = actual.get(key)
        if isinstance(want, list):
            if not isinstance(got, list) or len(got) != len(want):
                failures.append(f"{label}.{key}: length differs from the record")
                continue
            bad = [i for i, (g, w) in enumerate(zip(got, want)) if not close(g, w)]
            if bad:
                failures.append(f"{label}.{key}[{bad[0]}]: {got[bad[0]]} != "
                                f"recorded {want[bad[0]]} ({len(bad)} differ)")
        elif isinstance(want, int):
            if got != want:
                failures.append(f"{label}.{key}: {got} != recorded {want}")
        elif got is None or not close(got, want):
            failures.append(f"{label}.{key}: {got} != recorded {want}")
    return failures
