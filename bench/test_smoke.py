"""Smoke test of the benchmark itself: tiny runs and tampered outputs.

Run from the repository root:

    python3 -m pytest -q bench/test_smoke.py
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import run  # noqa: E402

run.import_program()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300,
                          check=False)


def tiny_result(workload: str, trace: int) -> dict:
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_appears_with_its_unit(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = tiny_result(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {name: entry["unit"] for name, entry in result["metrics"].items()}
        assert got == want
        for name, entry in result["metrics"].items():
            assert math.isfinite(entry["value"]), name
        if trace == 0:
            assert all(entry["value"] > 0 for entry in result["metrics"].values())
        else:
            check_trace_predictions(workload, result["metrics"])


def check_trace_predictions(workload: str, metrics: dict) -> None:
    """Modules a workload does not use record no calls in its trace."""
    calls = {name.split(".")[0]: entry["value"] for name, entry in metrics.items()
             if name.endswith(".calls")}
    unused = {
        "train": ("policies", "clustering"),
        "eval-greedy": ("policy", "ppo", "autodiff", "clustering"),
        "eval-random": ("policy", "ppo", "autodiff", "clustering"),
        "cluster": ("simcore", "env", "policies", "policy", "ppo", "autodiff"),
    }[workload]
    for module in unused:
        assert calls[module] == 0, f"{workload} called {module}"
    used = "clustering" if workload == "cluster" else "simcore"
    assert calls[used] > 0
    # Module self times account for the timed chunks.
    assert abs(metrics["bench.unaccounted_share"]["value"]) < 0.05


def test_without_sources_the_benchmark_fails_cleanly(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "train", "--seed", "1", "--seconds", "1",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def eval_workload(baseline: str):
    from sfcsim import policies
    wl = run.EvalWorkload(3, run.TINY, baseline)
    wl.setup()
    recorder = run.RecordingPolicy(wl.policy)
    result = policies.evaluate_policy(recorder, wl.env, 1, master_seed=3)
    return wl, recorder.rollouts()[0], result


def test_tampered_reward_or_energy_fails_the_rollout_check():
    wl, records, _ = eval_workload("random")
    args = (wl.env.trace.step_totals(), wl.env.config, wl.env.energy)
    assert checks.check_rollout(records, *args) == []
    for field, delta in (("reward", 1.0), ("energy_w", 70.72), ("packets", 1.0)):
        tampered = list(records)
        tampered[100] = dataclasses.replace(
            records[100], **{field: getattr(records[100], field) + delta})
        assert checks.check_rollout(tampered, *args), field


def test_tampered_result_array_fails_the_eval_check():
    _, records, result = eval_workload("static_greedy")
    assert checks.check_eval_result(result, [records]) == []
    result.rewards[0, 5] += 1.0
    assert checks.check_eval_result(result, [records])


def test_tampered_sse_fails_the_scan_checks():
    wl = run.ClusterWorkload(3, run.TINY)
    wl.setup()
    scans = wl.chunk()
    assert len(scans) == run.TINY.cluster_traces
    assert wl.check(scans) == []
    scan = scans[-1]
    wrong = [(k, sse * (1 + 1e-6) if k == 1 else sse) for k, sse in scan]
    assert checks.check_scan(wrong, wl.k_range, wl.points[-1])
    assert wl.check(scans[:-1] + [wrong])  # fails its check and differs
    recorded = {"sse": [sse for _, sse in scan]}
    assert checks.compare_recorded({"sse": [sse for _, sse in scan]}, recorded, "c") == []
    assert checks.compare_recorded({"sse": [sse for _, sse in wrong]}, recorded, "c")


def test_recorded_counts_must_match_exactly():
    recorded = {"events": 420, "mean_energy_w": 350.5}
    assert checks.compare_recorded({"events": 420, "mean_energy_w": 350.5},
                                   recorded, "e") == []
    assert checks.compare_recorded({"events": 421, "mean_energy_w": 350.5},
                                   recorded, "e")
    assert checks.compare_recorded({"events": 420, "mean_energy_w": 350.6},
                                   recorded, "e")


def test_bad_training_log_fails_the_train_check():
    wl = run.TrainWorkload(3, run.TINY)
    wl.setup()
    log = wl.chunk()
    assert wl.check(log) == []
    pc = wl.ppo_cfg
    args = (1, pc.n_envs, pc.rollout_length, wl.cfg.env.episode_length)
    log.updates[0]["loss"] = float("nan")
    assert checks.check_train_log(log, *args)
    log.updates[0]["loss"] = 1.0
    log.aborted = True
    assert checks.check_train_log(log, *args)
    log.aborted = False
    log.updates[-1]["global_step"] -= 1
    assert checks.check_train_log(log, *args)
