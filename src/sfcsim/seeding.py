"""Deterministic seed derivation shared by the simulator, agent, and harness.

Every source of randomness in an experiment is keyed off one master seed.
Sub-seeds are derived as sha256(master_seed, component_name, index) so that
adding or reordering components never shifts the seeds of unrelated ones.

``entity_streams`` seeds many per-entity streams at once. Each is NumPy's
PCG64 under a ``Generator``, bit-equal to ``entity_rng`` with the same tags:
only NumPy's SeedSequence mixing, a fixed algorithm, is reproduced here,
vectorized over all rows, and its words are handed to PCG64 through the
``ISeedSequence`` interface.
"""

import functools
import hashlib

import numpy as np
from numpy.random.bit_generator import ISeedSequence


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


# SeedSequence constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK32 = 0xFFFFFFFF
_U16 = np.uint32(16)


class _Words(ISeedSequence):
    """Already generated state words: PCG64 asks ``generate_state(4, np.uint64)``
    for its 128-bit seed and increment, high word first."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


@functools.lru_cache(maxsize=None)
def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """The first n + 1 values of a SeedSequence hash constant."""
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & _MASK32)
    consts = np.array(consts, dtype=np.uint32)
    consts.flags.writeable = False  # shared through the cache
    return consts


def _hasher(init: int, mult: int, n_calls: int):
    """SeedSequence's ``hashmix`` over one running hash constant: ``hashmix(values,
    n)`` makes n successive calls, one per column of ``values`` (broadcast to n
    columns), so calls that read no result of each other run as one array op."""
    consts = _hash_constants(init, mult, n_calls)
    k = 0

    def hashmix(values: np.ndarray, n: int) -> np.ndarray:
        nonlocal k
        x = (values ^ consts[k:k + n]) * consts[k + 1:k + n + 1]
        k += n
        return x ^ (x >> _U16)

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_MULT_L * x - _MIX_MULT_R * y
    return r ^ (r >> _U16)


def entity_streams(seed: int, tag_rows) -> list[np.random.Generator]:
    """One stream per row of tags, bit-equal to ``entity_rng(seed, *row)``.

    The seed is >= 0, and every row has the same number of tags, each in
    0..2**32-1. The SeedSequence pools of all rows are mixed in one pass of
    uint32 array operations; only the PCG64 construction runs per row.
    """
    tags = np.asarray(tag_rows)
    if tags.ndim != 2:
        raise ValueError("tag_rows must be a 2-D table of tags")
    if seed < 0 or tags.size and (tags.min() < 0 or tags.max() > _MASK32):
        raise ValueError("the seed must be >= 0 and tags in 0..2**32-1")
    # little-endian 32-bit words, as SeedSequence splits an int
    seed_words = [seed >> s & _MASK32 for s in range(0, max(int(seed).bit_length(), 1), 32)]
    n_seed = len(seed_words)
    n_words = n_seed + tags.shape[1]
    # missing pool words hash as zeros, as in SeedSequence
    entropy = np.zeros((len(tags), max(n_words, _POOL_SIZE)), dtype=np.uint32)
    entropy[:, :n_seed] = seed_words
    entropy[:, n_seed:n_words] = tags
    # mix_entropy: hash the pool, mix each pool word into the three others,
    # then each entropy word past the pool into all four
    hashmix = _hasher(_INIT_A, _MULT_A, _POOL_SIZE * entropy.shape[1])
    pool = hashmix(entropy[:, :_POOL_SIZE], _POOL_SIZE)
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        pool[:, dst] = _mix(pool[:, dst], hashmix(pool[:, src:src + 1], _POOL_SIZE - 1))
    for src in range(_POOL_SIZE, n_words):
        pool = _mix(pool, hashmix(entropy[:, src:src + 1], _POOL_SIZE))
    # generate_state(4, np.uint64): eight words cycled from the pool, read
    # as little-endian uint64 pairs
    words = _hasher(_INIT_B, _MULT_B, 8)(np.tile(pool, 2), 8).astype(np.uint64)
    state = words[:, 0::2] | (words[:, 1::2] << np.uint64(32))
    return [np.random.Generator(np.random.PCG64(_Words(row))) for row in state]
