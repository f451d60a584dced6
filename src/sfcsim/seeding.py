"""Deterministic seed derivation shared by the simulator, agent, and harness.

Every source of randomness in an experiment is keyed off one master seed.
Sub-seeds are derived as sha256(master_seed, component_name, index) so that
adding or reordering components never shifts the seeds of unrelated ones.
"""

import hashlib

import numpy as np


def derive_seed(master_seed: int, component: str, index: int = 0) -> int:
    """Derive a stable 63-bit sub-seed from (master_seed, component, index)."""
    digest = hashlib.sha256(f"{master_seed}/{component}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def entity_rng(seed: int, *tags: int) -> np.random.Generator:
    """Per-entity RNG stream (e.g. one per server or VNF instance).

    Streams with different tags are statistically independent, so events on
    one entity never perturb the draws of another.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *tags])))
