"""Span tracing of sfcsim's public calls, installed from outside the package.

``Tracer.installed()`` replaces each function named in ``TRACED`` with a
wrapper that records one span (name, start, end, parent) per call, then puts
the originals back. Spans live in flat arrays while the run lasts; the
benchmark writes them out when it ends. Nothing here edits ``src/``: the
wrappers are attribute patches made inside the benchmark process only.
"""

import contextlib
import importlib
from array import array
from time import perf_counter_ns

import numpy as np

# (module, attribute path, span name). Patching a module attribute catches
# the package's own calls, because sfcsim looks functions up in the module
# namespace at call time (e.g. ``ppo.train`` calls ``compute_gae``).
TRACED = (
    ("sfcsim.config", "load_config", "config.load"),
    ("sfcsim.harness", "build_envs", "harness.build_envs"),
    ("sfcsim.harness", "build_trace", "harness.build_trace"),
    ("sfcsim.trace", "generate_synthetic_trace", "trace.generate"),
    ("sfcsim.simcore", "SimState.__init__", "simcore.init"),
    ("sfcsim.simcore", "SimState.apply_action", "simcore.apply_action"),
    ("sfcsim.simcore", "SimState.advance_to", "simcore.advance_to"),
    ("sfcsim.simcore", "SimState.sfc_complete", "simcore.sfc_complete"),
    ("sfcsim.simcore", "SimState.vnf_counts", "simcore.vnf_counts"),
    ("sfcsim.simcore", "SimState.energy_consumption", "simcore.energy"),
    ("sfcsim.simcore", "SimState.operational_type_counts", "simcore.type_counts"),
    ("sfcsim.env", "SfcEnv.reset", "env.reset"),
    ("sfcsim.env", "SfcEnv.step", "env.step"),
    ("sfcsim.env", "SfcEnv.encode_observation", "env.encode_observation"),
    ("sfcsim.policies", "evaluate_policy", "policies.evaluate"),
    ("sfcsim.policies", "StaticGreedyPolicy.act", "policies.act"),
    ("sfcsim.policies", "RandomPolicy.act", "policies.act"),
    ("sfcsim.policy", "PolicyNetwork.sample", "policy.sample"),
    ("sfcsim.policy", "PolicyNetwork.forward_np", "policy.forward_np"),
    ("sfcsim.policy", "PolicyNetwork.forward_t", "policy.forward_t"),
    ("sfcsim.ppo", "train", "ppo.train"),
    ("sfcsim.ppo", "ppo_loss", "ppo.ppo_loss"),
    ("sfcsim.ppo", "Adam.step", "ppo.adam_step"),
    ("sfcsim.ppo", "compute_gae", "ppo.compute_gae"),
    ("sfcsim.ppo", "RunningObsStats.update", "ppo.obs_stats_update"),
    ("sfcsim.ppo", "RunningObsStats.normalize", "ppo.obs_stats_normalize"),
    ("sfcsim.ppo", "ReturnNormalizer.scale", "ppo.return_norm"),
    ("sfcsim.autodiff", "Tensor.backward", "autodiff.backward"),
    ("sfcsim.clustering", "compute_period_profiles", "clustering.profiles"),
    ("sfcsim.clustering", "kmeans_fit", "clustering.kmeans_fit"),
    ("sfcsim.clustering", "elbow_scan", "clustering.elbow_scan"),
)

MODULES = ("config", "harness", "trace", "simcore", "env", "policies",
           "policy", "ppo", "autodiff", "clustering")
SETUP_MODULES = ("config", "harness", "trace")  # called only while setting up

_NOOP = 4  # action type of a no-op; accept_ratio leaves no-ops out


class Counts:
    """Counts taken at the simcore boundary while the tracer is installed."""

    def __init__(self):
        self.events = 0
        self.inventory_samples = 0
        self.instances = 0
        self.actions = 0
        self.accepted = 0

    def on_result(self, name: str, args: tuple, result) -> None:
        if name == "simcore.advance_to":
            self.events += len(result)
        elif name == "simcore.vnf_counts":
            self.inventory_samples += 1
            self.instances += int(result.sum())
        elif name == "simcore.apply_action" and args[1] != _NOOP:
            self.actions += 1
            self.accepted += bool(result.accepted)


class Tracer:
    """In-memory span recorder; one instance per traced phase."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self._stack: list[int] = []
        self.counts = Counts()

    def _wrap(self, span: str, fn):
        nid = self._ids.setdefault(span, len(self._ids))
        if nid == len(self.names):
            self.names.append(span)
        name, start, end, parent = self.name, self.start, self.end, self.parent
        stack, on_result = self._stack, self.counts.on_result
        counted = span in ("simcore.advance_to", "simcore.vnf_counts",
                           "simcore.apply_action")

        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()
            if counted:
                on_result(span, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every TRACED function for the duration of the block."""
        undo = []
        try:
            for module_name, path, span in TRACED:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                undo.append((owner, attr, original))
                setattr(owner, attr, self._wrap(span, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    # -------------------------------------------------------------- analysis

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.asarray(self.parent, dtype=np.int64),
        }

    def summary(self) -> "SpanSummary":
        return SpanSummary(self.names, self.arrays())

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class SpanSummary:
    """Per-name call counts, inclusive durations and self times (ns)."""

    def __init__(self, names: list[str], spans: dict[str, np.ndarray]):
        self.names = names
        ids = spans["name"].astype(np.int64)
        duration = (spans["end_ns"] - spans["start_ns"]).astype(np.float64)
        parent = spans["parent"]
        has_parent = parent >= 0
        # Children of one span never overlap (one thread, stack discipline),
        # so the time they cover is the sum of their durations.
        covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                              minlength=len(duration))
        self_ns = duration - covered
        self.root_ns = float(duration[~has_parent].sum())
        n = len(names)
        self.calls = np.bincount(ids, minlength=n)
        self.total_ns = np.bincount(ids, weights=duration, minlength=n)
        self.self_ns = np.bincount(ids, weights=self_ns, minlength=n)
        self._ids = ids
        self._duration = duration

    def _index(self, name: str) -> int | None:
        return self.names.index(name) if name in self.names else None

    def n_calls(self, name: str) -> int:
        i = self._index(name)
        return 0 if i is None else int(self.calls[i])

    def total_s(self, name: str) -> float:
        i = self._index(name)
        return 0.0 if i is None else float(self.total_ns[i]) / 1e9

    def self_s(self, name: str) -> float:
        i = self._index(name)
        return 0.0 if i is None else float(self.self_ns[i]) / 1e9

    def mean_us(self, name: str) -> float:
        """Mean inclusive duration per call in microseconds (0 if never called)."""
        calls = self.n_calls(name)
        return self.total_s(name) * 1e6 / calls if calls else 0.0

    def percentile_us(self, name: str, q: float) -> float:
        i = self._index(name)
        if i is None or not self.calls[i]:
            return 0.0
        return float(np.percentile(self._duration[self._ids == i], q)) / 1e3

    def module_calls(self, module: str) -> int:
        return sum(int(self.calls[i]) for i, name in enumerate(self.names)
                   if name.split(".")[0] == module)

    def module_self_s(self, module: str, exclude: tuple[str, ...] = ()) -> float:
        return sum(float(self.self_ns[i]) / 1e9 for i, name in enumerate(self.names)
                   if name.split(".")[0] == module and name not in exclude)
