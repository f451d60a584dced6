"""sfcsim benchmark: four closed-loop workloads over the reference scenario.

Usage (from the root of a source checkout):

    python3 bench/run.py --workload train --seed 1 --seconds 28 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 28

Each workload sets up its inputs from ``--seed`` (used as the config's
master seed), checks the program's outputs, measures for ``--seconds`` and
prints one JSON line last: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``. See bench/README.md.
"""

import argparse
import contextlib
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from hostspeed import Reference, Segments
from tracer import MODULES, SETUP_MODULES, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
REFERENCE_CONFIG = BENCH_DIR / "reference.yaml"
BASELINE = BENCH_DIR / "baseline.json"
WORKLOADS = ("train", "eval-greedy", "eval-random", "cluster")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class ProgramMissing(RuntimeError):
    """The checkout holds no importable sfcsim sources."""


def import_program():
    """Import sfcsim from this checkout's src/, never from elsewhere."""
    package = SRC / "sfcsim"
    if not (package / "__init__.py").is_file():
        raise ProgramMissing(f"no sfcsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sfcsim
    if Path(sfcsim.__file__).resolve().parent != package.resolve():
        raise ProgramMissing(f"imported sfcsim from {sfcsim.__file__}, not {package}")


@dataclasses.dataclass(frozen=True)
class Size:
    setups: int = 11         # set-ups per run; setup_s is their median
    train_updates: int = 1   # PPO updates per timed train chunk
    eval_runs: int = 4       # seeded rollouts per timed eval chunk
    verify_runs: int = 10    # seeded rollouts checked step by step
    k_max: int = 50          # elbow scan covers k = k_min..k_max
    cluster_traces: int = 3  # traces scanned per cluster chunk


FULL = Size()
TINY = Size(setups=1, eval_runs=1, verify_runs=2, k_max=4, cluster_traces=2)


# ------------------------------------------------------------------ workloads

class Workload:
    """One workload: set-up, a timed chunk, and the checks on its output."""

    unit = "env steps"

    def __init__(self, seed: int, size: Size):
        self.seed = seed
        self.size = size
        self.cfg = None

    def load_config(self):
        from sfcsim import config
        cfg = config.load_config(REFERENCE_CONFIG)
        cfg.master_seed = self.seed
        return cfg

    def setup(self) -> None:
        raise NotImplementedError

    def chunk(self):
        raise NotImplementedError

    def units(self, output) -> int:
        """Work units in one chunk: env steps, or elbow scans for cluster."""
        raise NotImplementedError

    def operations(self, output) -> int:
        """Checked operations in one chunk, for the attempted/failed counts."""
        return self.units(output)

    def check(self, output) -> list[str]:
        raise NotImplementedError

    def verify(self) -> tuple[list[str], int]:
        """Untimed full check before measuring: (failures, operations)."""
        return [], 0

    def stats(self) -> dict:
        """Simulated statistics compared with the recorded seed's."""
        return {}

    def headline(self, rate: float) -> tuple[str, float, str]:
        """The rate under its everyday name, for the lines printed for people."""
        return "env_steps_per_s", rate, "steps/s"

    def paced(self, cut):
        """Context in which ``cut`` runs after each call that splits a chunk."""
        return contextlib.nullcontext()


class TrainWorkload(Workload):
    name = "train"

    def setup(self) -> None:
        from sfcsim import harness
        from sfcsim.env import SfcEnv
        from sfcsim.seeding import derive_seed
        cfg = self.load_config()
        train_env, _ = harness.build_envs(cfg)
        pc = cfg.ppo
        self.ppo_cfg = dataclasses.replace(
            pc, seed=derive_seed(cfg.master_seed, "ppo"),
            total_steps=self.size.train_updates * pc.n_envs * pc.rollout_length)

        def factory(index: int) -> SfcEnv:
            return SfcEnv(train_env.trace, cfg.topology, cfg.failure,
                          cfg.energy, train_env.config)

        self.factory = factory
        self.cfg = cfg
        self.first_updates = None

    def chunk(self):
        from sfcsim import ppo
        _, log = ppo.train(self.factory, self.ppo_cfg)
        return log

    def units(self, log) -> int:
        return self.ppo_cfg.total_steps

    def verify(self) -> tuple[list[str], int]:
        """One untimed chunk, checked; it also warms the learner up."""
        log = self.chunk()
        return self.check(log), self.units(log)

    def check(self, log) -> list[str]:
        pc = self.ppo_cfg
        failures = checks.check_train_log(log, self.size.train_updates, pc.n_envs,
                                          pc.rollout_length, self.cfg.env.episode_length)
        if self.first_updates is None:
            self.first_updates = log.updates
        elif log.updates != self.first_updates:
            failures.append("diagnostics differ from the first chunk's (same seed)")
        return failures


class EvalWorkload(Workload):
    def __init__(self, seed: int, size: Size, baseline: str):
        super().__init__(seed, size)
        self.name = f"eval-{baseline.split('_')[-1]}"
        self.baseline = baseline

    def setup(self) -> None:
        from sfcsim import harness, policies
        cfg = self.load_config()
        _, self.env = harness.build_envs(cfg)
        self.policy = policies.make_baseline(self.baseline, self.env, cfg.master_seed)
        self.cfg = cfg
        self.reference = None

    def chunk(self):
        from sfcsim import policies
        return policies.evaluate_policy(self.policy, self.env, self.size.eval_runs,
                                        master_seed=self.cfg.master_seed)

    def units(self, result) -> int:
        return result.n_runs * result.n_steps

    def check(self, result) -> list[str]:
        """A timed chunk repeats the first rollouts of the verified run exactly."""
        import numpy as np
        n = result.n_runs
        same = all(np.array_equal(getattr(result, f), getattr(self.reference, f)[:n])
                   for f in ("rewards", "lost", "sfc", "energy"))
        return [] if same else ["rollouts differ from the verified rollouts"]

    def verify(self) -> tuple[list[str], int]:
        """Seeded rollouts under counting hooks; every step of each is rebuilt."""
        from sfcsim import policies
        recorder = RecordingPolicy(self.policy)
        tracer = Tracer()
        with tracer.installed():
            result = policies.evaluate_policy(recorder, self.env, self.size.verify_runs,
                                              master_seed=self.cfg.master_seed)
        self.reference = result
        rollouts = recorder.rollouts()
        totals = self.env.trace.step_totals()
        failures = checks.check_eval_result(result, rollouts)
        for r, records in enumerate(rollouts):
            failures += [f"run {r} {msg}" for msg in
                         checks.check_rollout(records, totals, self.env.config,
                                              self.env.energy)]
        counts = tracer.counts
        summary = result.summary()
        self.verified_stats = {
            "n_runs": result.n_runs,
            "steps": self.units(result),
            "sfc_uptime_fraction": summary["sfc_uptime_fraction"],
            "total_lost_packets": summary["total_lost_packets"],
            "mean_energy_w": summary["mean_energy_w"],
            "events": counts.events,
            "actions": counts.actions,
            "accepted": counts.accepted,
        }
        return failures, self.units(result)

    def stats(self) -> dict:
        return self.verified_stats


class RecordingPolicy:
    """Delegates to a policy and keeps each rollout's StepRecord list.

    ``SfcEnv.reset`` replaces ``env.step_records`` with a new list, so
    holding on to each list object keeps every rollout's records.
    """

    def __init__(self, policy):
        self.policy = policy
        self._lists = []

    def reset(self, seed: int) -> None:
        self.policy.reset(seed)

    def act(self, obs, env):
        if not self._lists or self._lists[-1] is not env.step_records:
            self._lists.append(env.step_records)
        return self.policy.act(obs, env)

    def rollouts(self) -> list[list]:
        return self._lists


class ClusterWorkload(Workload):
    """Elbow scans over the profiles of ``size.cluster_traces`` traces.

    Scan time depends on the trace: over single seeds it varied by about
    +-8%. Each chunk scans every trace, so a run's figure is the mean over
    several traces. The first trace is the one the master seed gives, as in
    the other workloads; the others take master seeds derived from it.
    """

    name = "cluster"
    unit = "elbow scans"

    def setup(self) -> None:
        import numpy as np
        from sfcsim import clustering, harness
        from sfcsim.seeding import derive_seed
        cfg = self.load_config()
        self.profiles, self.points = [], []
        for j in range(self.size.cluster_traces):
            trace_cfg = self.load_config()
            if j:
                trace_cfg.master_seed = derive_seed(cfg.master_seed, "bench-cluster", j)
            profiles = clustering.compute_period_profiles(
                harness.build_trace(trace_cfg), cfg.cluster.utc_offset_hours)
            self.profiles.append(profiles)
            self.points.append(np.stack([p.features for p in profiles]))
        self.k_range = (cfg.cluster.k_min,
                        min(cfg.cluster.k_max, self.size.k_max, len(self.profiles[0])))
        self.kmeans_seed = derive_seed(cfg.master_seed, "kmeans")
        self.cfg = cfg
        self.first_scans = None

    def chunk(self):
        from sfcsim import clustering
        return [clustering.elbow_scan(profiles, self.k_range, self.kmeans_seed)
                for profiles in self.profiles]

    def units(self, scans) -> int:
        return len(scans)

    def operations(self, scans) -> int:
        return sum(len(scan) for scan in scans)

    def check(self, scans) -> list[str]:
        failures = []
        for j, (scan, points) in enumerate(zip(scans, self.points)):
            failures += [f"trace {j}: {msg}"
                         for msg in checks.check_scan(scan, self.k_range, points)]
        if self.first_scans is None:
            self.first_scans = scans
        elif scans != self.first_scans:
            failures.append("scans differ from the first chunk's (same seed)")
        return failures

    def stats(self) -> dict:
        return {"sse": [sse for _, sse in self.first_scans[0]] if self.first_scans else []}

    def headline(self, rate: float) -> tuple[str, float, str]:
        return "elbow_scan_s", 1.0 / rate, "s"

    @contextlib.contextmanager
    def paced(self, cut):
        """Split a chunk after each ``kmeans_fit``: it lasts long enough for the
        host to change within it."""
        from sfcsim import clustering
        fit = clustering.kmeans_fit

        def paced_fit(*args, **kwargs):
            model = fit(*args, **kwargs)
            cut()
            return model

        clustering.kmeans_fit = paced_fit
        try:
            yield
        finally:
            clustering.kmeans_fit = fit


def make_workload(name: str, seed: int, size: Size) -> Workload:
    if name == "train":
        return TrainWorkload(seed, size)
    if name == "eval-greedy":
        return EvalWorkload(seed, size, "static_greedy")
    if name == "eval-random":
        return EvalWorkload(seed, size, "random")
    if name == "cluster":
        return ClusterWorkload(seed, size)
    raise ValueError(f"unknown workload {name!r}")


# -------------------------------------------------------------- measurement

@dataclasses.dataclass
class Phase:
    """Timed chunks of one measurement phase."""

    rates: list[float] = dataclasses.field(default_factory=list)
    host_rates: list[float] = dataclasses.field(default_factory=list)
    busy_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = dataclasses.field(default_factory=list)

    @property
    def median_rate(self) -> float:
        """Median chunk rate, scaled to the reference host's speed."""
        return statistics.median(self.host_rates)

    @property
    def median_wall_rate(self) -> float:
        return statistics.median(self.rates)


def measure(wl: Workload, seconds: float, reference: Reference,
            paced: bool = True) -> Phase:
    """Run chunks back to back (closed loop) until ``seconds`` have passed.

    Only the chunk itself is timed. The host-speed reference runs right after
    it (and, if ``paced``, inside it where the workload splits it), and its
    output is checked after that; neither is in the chunk's time. At least
    one chunk always runs, and no chunk starts that would end past
    ``seconds`` if it took as long as the one before.
    """
    phase = Phase()
    reference.rep_s  # builds the reference's ring now, not inside a chunk
    deadline = time.perf_counter() + seconds
    while True:
        round_started = time.perf_counter()
        segments = Segments(reference)
        with wl.paced(segments.cut) if paced else contextlib.nullcontext():
            output = wl.chunk()
        segments.cut(final=True)
        phase.busy_s += segments.wall_s
        phase.rates.append(wl.units(output) / segments.wall_s)
        phase.host_rates.append(wl.units(output) / segments.host_s)
        failures = wl.check(output)
        ops = wl.operations(output)
        phase.attempted += ops
        if failures:
            phase.failed += ops
            phase.failures += failures[:5]
        now = time.perf_counter()
        if now + (now - round_started) > deadline:
            return phase


def timed_setups(wl: Workload, n: int, reference: Reference) -> tuple[list[float], float]:
    """Wall times of ``n`` set-ups, and the median host slowdown while they ran."""
    times, slowdowns = [], []
    for _ in range(n):
        started = time.perf_counter()
        wl.setup()
        times.append(time.perf_counter() - started)
        slowdowns.append(reference.stream_slowdown(times[-1]))
    return times, statistics.median(slowdowns)


def layer_metrics(spans, wall_s: float, counts, setup_spans,
                  overhead: float) -> dict:
    """Per-layer metrics of one traced phase, each as (value, unit)."""
    def share(module, exclude=()):
        return spans.module_self_s(module, exclude) / wall_s

    def ms(name):
        return spans.mean_us(name) / 1e3

    def per_scan(value):
        return value / scans if scans else 0.0

    steps = spans.n_calls("env.step")
    scans = spans.n_calls("clustering.elbow_scan")
    obs_updates = spans.n_calls("ppo.obs_stats_update")
    obs_stats_s = (spans.total_s("ppo.obs_stats_update")
                   + spans.total_s("ppo.obs_stats_normalize"))
    m = {f"{module}.calls": (spans.module_calls(module), "count")
         for module in MODULES if module not in SETUP_MODULES}
    accounted = sum(share(mod) for mod in MODULES)
    m.update({
        "simcore.self_share": (share("simcore"), "ratio"),
        "simcore.init_us": (spans.mean_us("simcore.init"), "us"),
        "simcore.apply_action_us": (spans.mean_us("simcore.apply_action"), "us"),
        "simcore.advance_to_us": (spans.mean_us("simcore.advance_to"), "us"),
        "simcore.sfc_complete_us": (spans.mean_us("simcore.sfc_complete"), "us"),
        "simcore.vnf_counts_us": (spans.mean_us("simcore.vnf_counts"), "us"),
        "simcore.energy_us": (spans.mean_us("simcore.energy"), "us"),
        "simcore.type_counts_us": (spans.mean_us("simcore.type_counts"), "us"),
        "simcore.events_per_step": (counts.events / steps if steps else 0.0, "count"),
        "simcore.instances_mean": (counts.instances / counts.inventory_samples
                                   if counts.inventory_samples else 0.0, "count"),
        "simcore.accept_ratio": (counts.accepted / counts.actions
                                 if counts.actions else 0.0, "ratio"),
        "env.self_share": (share("env"), "ratio"),
        "env.step_us_p50": (spans.percentile_us("env.step", 50), "us"),
        "env.step_us_p99": (spans.percentile_us("env.step", 99), "us"),
        "env.reset_us": (spans.mean_us("env.reset"), "us"),
        "env.encode_observation_us": (spans.mean_us("env.encode_observation"), "us"),
        "policies.self_share": (share("policies"), "ratio"),
        "policies.act_us": (spans.mean_us("policies.act"), "us"),
        "policy.self_share": (share("policy"), "ratio"),
        "policy.sample_us": (spans.mean_us("policy.sample"), "us"),
        "ppo.self_share": (share("ppo", exclude=("ppo.train",)), "ratio"),
        "ppo.loop_self_share": (spans.self_s("ppo.train") / wall_s, "ratio"),
        "ppo.ppo_loss_ms": (ms("ppo.ppo_loss"), "ms"),
        "ppo.adam_step_ms": (ms("ppo.adam_step"), "ms"),
        "ppo.compute_gae_ms": (ms("ppo.compute_gae"), "ms"),
        "ppo.obs_stats_us": (obs_stats_s * 1e6 / obs_updates if obs_updates else 0.0,
                             "us"),
        "ppo.return_norm_us": (spans.mean_us("ppo.return_norm"), "us"),
        "autodiff.self_share": (share("autodiff"), "ratio"),
        "autodiff.backward_ms": (ms("autodiff.backward"), "ms"),
        "clustering.self_share": (share("clustering"), "ratio"),
        "clustering.profiles_s": (setup_spans.mean_us("clustering.profiles") / 1e6, "s"),
        "clustering.kmeans_fit_ms": (ms("clustering.kmeans_fit"), "ms"),
        "clustering.kmeans_fit_calls": (
            per_scan(spans.n_calls("clustering.kmeans_fit")), "count"),
        "clustering.warm_start_self_s": (
            per_scan(spans.self_s("clustering.elbow_scan")), "s"),
        "trace.generate_s": (setup_spans.mean_us("trace.generate") / 1e6, "s"),
        "harness.build_envs_s": (setup_spans.total_s("harness.build_envs"), "s"),
        "bench.tracing_overhead": (overhead, "ratio"),
        "bench.unaccounted_share": (1.0 - accounted, "ratio"),
    })
    return m


# ------------------------------------------------------------- environment

def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, read from the library itself."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(cfg) -> dict:
    import numpy as np
    from sfcsim.config import config_hash
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "commit": git_commit(),
        "config_hash": config_hash(cfg),
        "seed": cfg.master_seed,
    }


# --------------------------------------------------------------------- main

def recorded_stats(workload: str, seed: int) -> dict | None:
    if not BASELINE.is_file():
        return None
    record = json.loads(BASELINE.read_text())
    if seed != record["recorded_seed"]:
        return None
    return record["stats"].get(workload)


def run_workload(args) -> int:
    size = TINY if args.tiny else FULL
    wl = make_workload(args.workload, args.seed, size)
    reference = Reference()
    setup_times, setup_slowdown = timed_setups(wl, size.setups, reference)
    if args.trace:
        setup_tracer = Tracer()
        with setup_tracer.installed():
            wl.setup()
    failures, attempted = wl.verify()
    failed = attempted if failures else 0

    if args.trace:
        # Unpaced, so that no span includes the reference's time.
        untraced = measure(wl, args.seconds / 2, reference, paced=False)
        tracer = Tracer()
        with tracer.installed():
            phase = measure(wl, args.seconds / 2, reference, paced=False)
        spans = tracer.summary()
        metrics = layer_metrics(spans, phase.busy_s, tracer.counts,
                                setup_tracer.summary(),
                                phase.median_rate / untraced.median_rate)
        phases = (untraced, phase)
    else:
        phase = measure(wl, args.seconds, reference)
        phases = (phase,)
        metrics = {
            "throughput_per_s": (phase.median_rate, "1/s"),
            "setup_s": (statistics.median(setup_times) / setup_slowdown, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MiB"),
        }
    stats = wl.stats()
    recorded = None if args.tiny else recorded_stats(wl.name, args.seed)
    if recorded is not None:
        mismatch = checks.compare_recorded(stats, recorded, wl.name)
        failures += mismatch
        if mismatch:
            failed += 1
        attempted += 1
    for p in phases:
        attempted += p.attempted
        failed += p.failed
        failures += p.failures
    correct = failed == 0 and not failures

    env = environment(wl.cfg)
    rates = phases[0].host_rates
    q = statistics.quantiles(rates, n=4) if len(rates) > 1 else [rates[0]] * 3
    name, value, unit = wl.headline(phases[0].median_rate)
    _, wall_value, _ = wl.headline(phases[0].median_wall_rate)
    slowdown = statistics.median(reference.samples)
    print(f"workload={wl.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} size={'tiny' if args.tiny else 'full'}")
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"{name} = {value:.6g} {unit} (untraced, at reference host speed; median "
          f"of {len(rates)} chunks; {wl.unit} per second quartiles {q[0]:.6g} / "
          f"{q[2]:.6g})")
    print(f"  as measured on this host: {wall_value:.6g} {unit}; host slowdown "
          f"{slowdown:.3f} (median of {len(reference.samples)} reference reps)")
    print(f"setup_s samples = {[round(t, 4) for t in setup_times]} s as measured; "
          f"host slowdown {setup_slowdown:.3f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"checks: attempted={attempted} failed={failed}")
    for msg in failures[:20]:
        print(f"  FAILED: {msg}")

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.save(OUT_DIR / f"spans-{stem}.npz")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(
        {**result, "environment": env, "stats": stats, "setup_times_s": setup_times,
         "chunk_rates": [p.rates for p in phases],
         "host_chunk_rates": [p.host_rates for p in phases],
         "reference_slowdowns": reference.samples,
         "setup_slowdowns": reference.stream_samples, "failures": failures[:100]},
        indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in turn, each in its own process, never concurrently."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    print(f"{'workload':<12} {'metric':<16} {'value':>12}  unit")
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            sys.stderr.write(proc.stdout + proc.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
        for line in lines:
            if line.startswith(("env_steps_per_s", "elbow_scan_s")):
                metric, rest = line.split(" = ", 1)
                value, unit = rest.split()[:2]
                print(f"{name:<12} {metric:<16} {value:>12}  {unit}")
        if not args.trace:
            for metric in ("setup_s", "peak_rss_mb"):
                entry = result["metrics"][metric]
                print(f"{name:<12} {metric:<16} {entry['value']:>12.6g}  {entry['unit']}")
        print(f"{name:<12} {'checks':<16} {'attempted=' + str(result['attempted'])}"
              f" failed={result['failed']}")
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest chunks and one set-up (smoke test only)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        import_program()
    except ProgramMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
