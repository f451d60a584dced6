"""Property tests: batch-mixed entity stream seeds equal NumPy's, state and draws.

``entity_words`` reproduces SeedSequence's mixing outside NumPy for many
tag rows at once, and ``words_rng`` seeds NumPy's PCG64 with one row's
words, so every stream's generator state (the 128-bit state and increment)
and first draws are checked against ``entity_rng`` over the seed ranges
that change how a seed splits into 32-bit words (0, one word, two words),
over both tag shapes the simulator uses, and over tables of both widths
mixed in one call. The simulator's own streams are checked by their state
and by the failure times they schedule, and by how many mixing calls and
generators it makes.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sfcsim import simcore
from sfcsim.seeding import entity_rng, entity_words, words_rng
from sfcsim.simcore import (FailureModel, SimState, Topology,
                            _VNF_STREAM_BLOCK, sample_exponential)

from helpers import instances

N_DRAWS = 6
SEEDS = st.one_of(st.just(0), st.integers(0, 2**32 - 1),
                  st.integers(0, 2**63 - 1))


def server_table(servers: list[tuple[int, int]]) -> np.ndarray:
    return np.array([(1, dc, server) for dc, server in servers]).reshape(-1, 3)


def instance_table(start: int, count: int) -> np.ndarray:
    return np.array([(2, i) for i in range(start, start + count)]).reshape(-1, 2)


def assert_streams_match(seed: int, *tables: np.ndarray) -> None:
    rows = [tuple(map(int, row)) for table in tables for row in table]
    words = entity_words(seed, *tables)
    assert words.shape == (len(rows), 4)
    for row, w in zip(rows, words):
        stream, rng = words_rng(w), entity_rng(seed, *row)
        assert stream.bit_generator.state == rng.bit_generator.state, (seed, row)
        assert ([stream.random() for _ in range(N_DRAWS)]
                == [rng.random() for _ in range(N_DRAWS)]), (seed, row)


def assert_state_after_one_draw(stream: np.random.Generator,
                                rng: np.random.Generator) -> None:
    """``stream``, which scheduled one event, is ``rng`` one draw on."""
    rng.random()
    assert stream.bit_generator.state == rng.bit_generator.state


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS,
       servers=st.lists(st.tuples(st.integers(0, 63), st.integers(0, 63)),
                        min_size=1, max_size=8))
def test_server_streams_equal_entity_rng(seed, servers):
    assert_streams_match(seed, server_table(servers))


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS, block=st.integers(0, 40), offset=st.integers(-3, 3),
       count=st.integers(1, 8))
def test_instance_streams_equal_entity_rng_across_blocks(seed, block, offset, count):
    # ids start within a few of a block boundary, so ranges straddle it
    start = max(0, block * _VNF_STREAM_BLOCK + offset)
    assert_streams_match(seed, instance_table(start, count))


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS,
       servers=st.lists(st.tuples(st.integers(0, 63), st.integers(0, 63)),
                        min_size=0, max_size=8),
       start=st.integers(0, 40 * _VNF_STREAM_BLOCK), count=st.integers(0, 8))
def test_server_and_instance_tables_mix_in_one_call(seed, servers, start, count):
    # a seed past 32 bits gives the server rows one entropy word beyond the
    # pool and the instance rows none, so only the server prefix mixes it
    assert_streams_match(seed, server_table(servers), instance_table(start, count))


@settings(max_examples=50, deadline=None)
@given(seed=SEEDS, tags=st.lists(st.integers(0, 2**32 - 1), min_size=0, max_size=6))
def test_any_tag_count_equals_entity_rng(seed, tags):
    assert_streams_match(seed, np.array([tags], dtype=np.int64))


def test_bad_tags_are_rejected():
    with pytest.raises(ValueError):
        entity_words(0, np.array([[2, -1]]))
    with pytest.raises(ValueError):
        entity_words(0, np.array([[2, 2**32]]))
    with pytest.raises(ValueError):
        entity_words(0, [1, 2, 3])
    with pytest.raises(ValueError):
        entity_words(-1, np.array([[2, 0]]))
    with pytest.raises(ValueError, match="widest first"):
        entity_words(0, np.array([[2, 0]]), np.array([[1, 0, 0]]))


def test_simulator_schedules_from_entity_rng_streams():
    """Servers' and instances' streams are ``entity_rng``'s: the same state
    after the one draw each made, and the same failure time from it, for
    instance ids in the first three seeding blocks. Deletes keep at most 160
    instances alive, so the ids pass the 250 slots of the topology."""
    topo = Topology(n_dcs=10, servers_per_dc=5, max_vnfs_per_server=5,
                    max_same_type_per_server=2)
    failure = FailureModel(mttf_server=1e9)  # no server fails while we create
    seed = 2**62 + 7
    state = SimState(topo, failure, seed=seed)
    for d, row in enumerate(state.servers):
        for s, server in enumerate(row):
            assert_state_after_one_draw(server.rng, entity_rng(seed, 1, d, s))
            expected = sample_exponential(entity_rng(seed, 1, d, s),
                                          failure.mttf_server)
            assert server.due == expected
    # (dc, server, type) of id i repeats every 80 ids and no two of those 80
    # share it, so two periods fit every server's type cap of 2
    n, live = 2 * _VNF_STREAM_BLOCK + 5, 160
    created = {}
    for i in range(n):
        target = ((i // 8) % 10, (i // 2) % 5, i % 4)
        if i >= live:
            # at time 0 every risk is 0, so the oldest of the type goes
            assert state.apply_action(2, *target).instance_id == i - live
        outcome = state.apply_action(1, *target)
        assert outcome.accepted and outcome.instance_id == i
        inst = state.servers[target[0]][target[1]].vnfs[-1]
        created[i] = inst, inst.due
    alive = {inst.instance_id for _, inst in instances(state)}
    assert alive == set(range(n - live, n))
    for i, (inst, due) in created.items():
        assert_state_after_one_draw(inst.rng, entity_rng(seed, 2, i))
        assert due == sample_exponential(entity_rng(seed, 2, i), failure.mttf_vnf)


def test_simulator_mixes_once_per_block_and_builds_only_used_generators(monkeypatch):
    calls = {"entity_words": 0, "words_rng": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(simcore, "entity_words", counted("entity_words", entity_words))
    monkeypatch.setattr(simcore, "words_rng", counted("words_rng", words_rng))
    state = SimState(Topology(), FailureModel(mttf_server=1e9), seed=3)
    assert calls == {"entity_words": 1, "words_rng": 50}
    # one slot, freed after each create: the ids grow, the live count stays 1
    for k in range(1, _VNF_STREAM_BLOCK + 1):
        assert state.apply_action(1, 0, 0, 0).instance_id == k - 1
        assert state.apply_action(2, 0, 0, 0).accepted
        assert calls == {"entity_words": 1, "words_rng": 50 + k}
    assert state.apply_action(1, 0, 0, 0).instance_id == _VNF_STREAM_BLOCK
    assert calls == {"entity_words": 2, "words_rng": 51 + _VNF_STREAM_BLOCK}
