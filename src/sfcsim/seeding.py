"""Deterministic seed derivation shared by the simulator, agent, and harness.

Every source of randomness in an experiment is keyed off one master seed.
Sub-seeds are derived as sha256(master_seed, component_name, index) so that
adding or reordering components never shifts the seeds of unrelated ones.

``entity_streams`` seeds many per-entity streams at once. Each is bit-equal
to ``entity_rng`` with the same tags: NumPy's SeedSequence mixing and its
PCG64 (128-bit LCG, XSL-RR output; O'Neill 2014) are fixed algorithms, so
they are reproduced here, the mixing vectorized over all rows and the
generator stepped in Python ints.
"""

import functools
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


# SeedSequence constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF

_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_TWO_M53 = 2.0 ** -53


class Pcg64Stream:
    """PCG64 in Python ints; ``random()`` equals ``Generator.random()``."""

    __slots__ = ("_state", "_inc")

    def __init__(self, seed128: int, seq128: int):
        # pcg_setseq_128_srandom_r: state 0, step, add the seed, step
        self._inc = ((seq128 << 1) | 1) & _MASK128
        self._state = ((self._inc + seed128) * _PCG_MULT + self._inc) & _MASK128

    def random(self) -> float:
        """Next double in [0, 1): the top 53 bits of the next output."""
        state = (self._state * _PCG_MULT + self._inc) & _MASK128
        self._state = state
        x = ((state >> 64) ^ state) & _MASK64
        rot = state >> 122
        out = ((x >> rot) | (x << (64 - rot))) & _MASK64
        return (out >> 11) * _TWO_M53


def _uint32_words(n: int) -> list[int]:
    """An int's little-endian 32-bit words, as SeedSequence splits it."""
    if n < 0:
        raise ValueError("seeds and tags must be nonnegative")
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """The first n + 1 values of a SeedSequence hash constant."""
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & _MASK32)
    consts = np.array(consts, dtype=np.uint32)
    consts.flags.writeable = False  # shared through _mixing_plan's cache
    return consts


@functools.lru_cache(maxsize=None)
def _mixing_plan(n_words: int):
    """Hash constants of each step of SeedSequence for n_words of entropy.

    The hash constant advances once per hashmix call (call k xors with
    constant k and multiplies by constant k + 1), and the order of the calls
    does not depend on the data, so every step's constants are known up
    front and a step's independent calls run as one array op: the pool's
    initial hashing, one round per source word of the pool (into the three
    other words), one per entropy word past the pool, and
    ``generate_state``'s eight output words.
    """
    n_extra = max(0, n_words - _POOL_SIZE)
    hc = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * (_POOL_SIZE + n_extra))

    def calls(k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
        return hc[k:k + n], hc[k + 1:k + n + 1]

    init = calls(0, _POOL_SIZE)
    rounds = [(src, [d for d in range(_POOL_SIZE) if d != src],
               *calls(_POOL_SIZE + src * (_POOL_SIZE - 1), _POOL_SIZE - 1))
              for src in range(_POOL_SIZE)]
    extra = [(src, *calls(_POOL_SIZE * src, _POOL_SIZE))
             for src in range(_POOL_SIZE, n_words)]
    hb = _hash_constants(_INIT_B, _MULT_B, 8)
    return init, rounds, extra, (hb[:8], hb[1:])


_U16 = np.uint32(16)
_U32_MIX_L, _U32_MIX_R = np.uint32(_MIX_MULT_L), np.uint32(_MIX_MULT_R)


def _hashmix(values: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    x = (values ^ xor) * mult
    return x ^ (x >> _U16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _U32_MIX_L * x - _U32_MIX_R * y
    return r ^ (r >> _U16)


def entity_streams(seed: int, tag_rows) -> list[Pcg64Stream]:
    """One stream per row of tags, bit-equal to ``entity_rng(seed, *row)``.

    Every row has the same number of tags, each in 0..2**32-1. The
    SeedSequence pools of all rows are mixed in one pass of uint32 array
    operations; only the 128-bit generator seeding runs per row.
    """
    tags = np.asarray(tag_rows)
    if tags.ndim != 2:
        raise ValueError("tag_rows must be a 2-D table of tags")
    if tags.size and (tags.min() < 0 or tags.max() > _MASK32):
        raise ValueError("tags must be in 0..2**32-1")
    seed_words = _uint32_words(seed)
    n_seed = len(seed_words)
    n_words = n_seed + tags.shape[1]
    # missing pool words hash as zeros, as in SeedSequence
    entropy = np.zeros((len(tags), max(n_words, _POOL_SIZE)), dtype=np.uint32)
    entropy[:, :n_seed] = seed_words
    entropy[:, n_seed:n_words] = tags
    init, rounds, extra, generate = _mixing_plan(n_words)
    pool = _hashmix(entropy[:, :_POOL_SIZE], *init)
    for src, dst, xor, mult in rounds:
        pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, src:src + 1], xor, mult))
    for src, xor, mult in extra:
        pool = _mix(pool, _hashmix(entropy[:, src:src + 1], xor, mult))
    # generate_state(4, np.uint64): eight words cycled from the pool, read
    # as little-endian uint64 pairs: (seed high, seed low, inc high, inc low)
    words = _hashmix(np.tile(pool, 2), *generate).astype(np.uint64)
    state = (words[:, 0::2] | (words[:, 1::2] << np.uint64(32))).tolist()
    return [Pcg64Stream((s_hi << 64) | s_lo, (i_hi << 64) | i_lo)
            for s_hi, s_lo, i_hi, i_lo in state]
