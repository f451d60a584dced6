"""Golden bytes of the ``eval`` command's report.

``cmd_eval --quick`` runs on a tiny config with frequent server and VNF
failures, once for each baseline and once for a checkpoint saved from an
untrained seeded ``PolicyNetwork`` (the ``PpoPolicy`` path). The sha256 of
every CSV it writes is pinned: the per-step statistics table, run 0's step
records and the summary row. A change to how the report is computed that
moves one formatted digit shows up here.
"""

import hashlib

import pytest

from sfcsim.config import config_from_dict, config_hash
from sfcsim.harness import build_envs, cmd_eval
from sfcsim.policy import PolicyNetwork

CONFIG = {
    "trace": {"n_cells": 6, "n_steps": 400, "mean_step_total": 60.0,
              "split_fraction": 0.5},
    "topology": {"n_dcs": 3, "servers_per_dc": 3, "max_vnfs_per_server": 4,
                 "max_same_type_per_server": 2},
    "failure": {"mttf_server": 4.0, "mttr_server": 0.8, "mttf_vnf": 0.6,
                "mttr_vnf": 0.15},
    "eval": {"n_runs": 8, "quick_runs": 3},
    "master_seed": 13,
}

GOLDEN = {
    "noop": {
        "eval_run0_steps_noop.csv": "0254954acadf6d9c4d45a37193869396fefaa16ddf94fb99c5fa388856108ac9",
        "eval_steps_noop.csv": "6f2a9a5b331c601b6ffaea2a320fb4402280e09bec80d1be59bd8f035cf9716e",
        "eval_summary_noop.csv": "d6c962820d083144b99a55167328089f80b91a17a06e0b20738b918c320971bc",
    },
    "random": {
        "eval_run0_steps_random.csv": "1201bcc70042f1db6f01dc2085d5d16977a81d13666d2834deb7dcae6bd7056a",
        "eval_steps_random.csv": "2b73ea1a78492285657dca4102cd9507a4aa16eb802defbe55621b71b873f8b6",
        "eval_summary_random.csv": "8877689a8f2b1af93047b0527546a1cfa3efeb0eeb5ce12479aecbad0e70296c",
    },
    "static_greedy": {
        "eval_run0_steps_static_greedy.csv":
            "0158a504184490db43ccb64fc8724e71cd0d09694f417996fb86a95413396516",
        "eval_steps_static_greedy.csv":
            "3a9c281cb8f98b50fe6c84ecadb2c083d3dcd5bcb39d478c7594f1b18317bed1",
        "eval_summary_static_greedy.csv":
            "4a945955a36d278d815b4277400e39755506c4b56439dc362a294b32a4c1f90d",
    },
    "checkpoint": {
        "eval_run0_steps_checkpoint.csv":
            "551c9a7340efa677b687c039b6c8d16130fd17c2c9ed619b0a097ad81e1b4b9e",
        "eval_steps_checkpoint.csv": "b1d9b9f917eef01769677303d6cb7ed1e829f943f0a1849e824c59bcb2fb50b5",
        "eval_summary_checkpoint.csv": "b056a0657a55692447c1125a925310fbb44d5cd5392a6a8250d7d695e4dc609f",
    },
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("label", ["noop", "random", "static_greedy", "checkpoint"])
def test_eval_report_is_pinned(label, tmp_path):
    cfg = config_from_dict(CONFIG)
    spec = label
    if label == "checkpoint":
        _, test_env = build_envs(cfg)
        spec = str(tmp_path / "checkpoint.npz")
        PolicyNetwork(test_env.obs_dim, test_env.head_sizes, seed=17).save(
            spec, config_hash(cfg), cfg.master_seed)
    out = tmp_path / "out"
    cmd_eval(cfg, out, spec, quick=True)
    digests = {path.name: sha(path.read_bytes()) for path in sorted(out.glob("*.csv"))}
    assert digests == GOLDEN[label]
