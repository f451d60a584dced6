"""Experiment configuration: one YAML document drives every command.

The file has one section per module (trace, topology, failure, energy, env,
ppo, cluster, eval) plus a master seed and output directory. CLI flags
override file values. Every derived artifact records the config hash and
seed in a header comment so runs can be traced back to their inputs.
"""

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields

import yaml

from .env import EnvConfig
from .ppo import PpoConfig
from .simcore import EnergyModel, FailureModel, Topology
from .trace import DEFAULT_ORIGIN_MS, DEFAULT_STEP_DURATION, repeated_ids


class ConfigError(ValueError):
    """Raised for malformed or inconsistent experiment configuration."""


@dataclass
class TraceConfig:
    source: str = "synthetic"
    path: str | None = None
    n_cells: int = 276
    n_steps: int = 8928
    step_duration: int = DEFAULT_STEP_DURATION
    origin_time_ms: int = DEFAULT_ORIGIN_MS
    amplitude: float = 0.6
    noise: float = 0.15
    mean_step_total: float = 400.0
    split_fraction: float = 0.9

    def __post_init__(self):
        if self.source not in ("synthetic", "csv", "cdr"):
            raise ValueError(f"source must be synthetic, csv or cdr, got {self.source!r}")
        if self.source != "synthetic" and not self.path:
            raise ValueError(f"source={self.source} requires path; use source=synthetic "
                             "when the dataset is absent")
        if min(self.n_cells, self.n_steps, self.step_duration) < 1:
            raise ValueError("n_cells, n_steps and step_duration must be >= 1")
        if not 0.0 < self.split_fraction < 1.0:
            raise ValueError("split_fraction must be in (0, 1)")
        if min(self.noise, self.mean_step_total) < 0:
            raise ValueError("noise and mean_step_total must be >= 0")


@dataclass
class ClusterConfig:
    k: int = 12
    k_min: int = 1
    k_max: int = 50
    utc_offset_hours: float = 1.0
    model_path: str | None = None
    select_index: int | None = None

    def __post_init__(self):
        # k_max may exceed the number of cells: cmd_cluster clamps it.
        if min(self.k, self.k_min, self.k_max) < 1:
            raise ValueError("k, k_min and k_max must be >= 1")
        if self.k_min > self.k_max:
            raise ValueError("k_min must be <= k_max")
        if not -12.0 <= self.utc_offset_hours <= 14.0:  # the real UTC offsets
            raise ValueError("utc_offset_hours must be in [-12, 14]")
        if (self.model_path is None) != (self.select_index is None):
            raise ValueError("model_path and select_index must be set together")
        if self.select_index is not None and self.select_index < 0:
            raise ValueError("select_index must be >= 0")


@dataclass
class EvalSettings:
    n_runs: int = 100
    quick_runs: int = 10

    def __post_init__(self):
        if min(self.n_runs, self.quick_runs) < 1:
            raise ValueError("n_runs and quick_runs must be >= 1")


@dataclass
class ExperimentConfig:
    trace: TraceConfig = field(default_factory=TraceConfig)
    topology: Topology = field(default_factory=Topology)
    failure: FailureModel = field(default_factory=FailureModel)
    energy: EnergyModel = field(default_factory=EnergyModel)
    env: EnvConfig = field(default_factory=EnvConfig)
    ppo: PpoConfig = field(default_factory=PpoConfig)
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    eval: EvalSettings = field(default_factory=EvalSettings)
    cells: list[int] | None = None  # explicit managed-cell list
    master_seed: int = 0
    out_dir: str = "out"

    def __post_init__(self):
        if not isinstance(self.out_dir, str):
            raise ConfigError(f"out_dir must be a str, got {self.out_dir!r}")
        seed = self.master_seed
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            raise ConfigError(f"master_seed must be an int >= 0, got {seed!r}")
        cells = self.cells
        if cells is not None:
            if not isinstance(cells, list) or any(
                    isinstance(c, bool) or not isinstance(c, int) for c in cells):
                raise ConfigError(f"cells must be a list of ints, got {cells!r}")
            if not cells:
                raise ConfigError("cells must name at least one cell; omit it to manage every cell")
            repeated = repeated_ids(cells)
            if repeated:
                raise ConfigError(f"cells: repeated cell ids: {repeated}")
            if self.cluster.model_path is not None:  # select_index is set with it
                raise ConfigError("cells and cluster.model_path/select_index both choose "
                                  "the managed cells; set one of them")


_SECTIONS = {
    "trace": TraceConfig,
    "topology": Topology,
    "failure": FailureModel,
    "energy": EnergyModel,
    "env": EnvConfig,
    "ppo": PpoConfig,
    "cluster": ClusterConfig,
    "eval": EvalSettings,
}


# YAML gives 1.5, true or "0.5" where a number is meant and "false" where a
# bool is; a dataclass would take any of them. Nothing is converted, so the
# config hash sees the YAML's own values. A bool passes only a bool field.
_NONE = type(None)
_FIELD_TYPES = {
    int: ("an int", int), int | None: ("an int", (int, _NONE)),
    float: ("a float", (int, float)), float | None: ("a float", (int, float, _NONE)),
    bool: ("a bool", bool), str: ("a str", str), str | None: ("a str", (str, _NONE)),
}

# inf is a limit, not a typo, only where it means "never": a failure mean of
# inf never fails (or is never repaired), a max_grad_norm of inf never clips.
_INF_OK = {("failure", f.name) for f in fields(FailureModel)} | {("ppo", "max_grad_norm")}


def _build_section(cls, data: dict, section: str):
    if section == "ppo" and "seed" in data:
        raise ConfigError("[ppo] seed is derived from master_seed; set master_seed instead")
    known = {f.name: f for f in fields(cls)}
    unknown = set(data) - set(known)
    if unknown:
        raise ConfigError(f"unknown keys in [{section}]: {sorted(unknown)}")
    for name, value in data.items():
        ftype = known[name].type
        kind, allowed = _FIELD_TYPES[ftype]
        if not isinstance(value, allowed) or (isinstance(value, bool) and ftype is not bool):
            raise ConfigError(f"invalid [{section}] section: {name} must be {kind}, "
                              f"got {value!r}")
        if isinstance(value, float) and math.isnan(value):  # passes every `x <= 0` check
            raise ConfigError(f"invalid [{section}] section: {name} must not be NaN")
        if isinstance(value, float) and math.isinf(value) and (section, name) not in _INF_OK:
            raise ConfigError(f"invalid [{section}] section: {name} must be finite")
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid [{section}] section: {exc}") from exc


def config_from_dict(data: dict) -> ExperimentConfig:
    data = dict(data or {})
    kwargs = {}
    for section, cls in _SECTIONS.items():
        raw = data.pop(section, {})
        if raw is None:
            raw = {}
        if not isinstance(raw, dict):
            raise ConfigError(f"section [{section}] must be a mapping")
        kwargs[section] = _build_section(cls, raw, section)
    for key in ("cells", "master_seed", "out_dir"):
        if key in data:
            kwargs[key] = data.pop(key)
    if data:
        raise ConfigError(f"unknown top-level keys: {sorted(data)}")
    return ExperimentConfig(**kwargs)


def load_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be a mapping in {path}")
    return config_from_dict(data)


def config_hash(cfg: ExperimentConfig) -> str:
    """Short stable digest of the full configuration."""
    canonical = json.dumps(asdict(cfg), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]
