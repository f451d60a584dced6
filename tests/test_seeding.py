"""Property tests: batch-seeded entity streams equal NumPy's, state and draws.

``entity_streams`` reproduces SeedSequence's mixing outside NumPy and seeds
NumPy's PCG64 with the words it computes, so every stream's generator state
(the 128-bit state and increment) and first draws are checked against
``entity_rng`` over the seed ranges that change how a seed splits into
32-bit words (0, one word, two words) and over both tag shapes the
simulator uses. The simulator's own streams are checked by their state and
by the failure times they schedule.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sfcsim.seeding import entity_rng, entity_streams
from sfcsim.simcore import (FailureModel, SimState, Topology,
                            _VNF_STREAM_BLOCK, sample_exponential)

from helpers import instances

N_DRAWS = 6
SEEDS = st.one_of(st.just(0), st.integers(0, 2**32 - 1),
                  st.integers(0, 2**63 - 1))


def assert_streams_match(seed: int, rows: list[tuple[int, ...]]) -> None:
    streams = entity_streams(seed, np.array(rows).reshape(len(rows), -1))
    assert len(streams) == len(rows)
    for row, stream in zip(rows, streams):
        rng = entity_rng(seed, *row)
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
    assert_streams_match(seed, [(1, dc, server) for dc, server in servers])


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS, block=st.integers(0, 40), offset=st.integers(-3, 3),
       count=st.integers(1, 8))
def test_instance_streams_equal_entity_rng_across_blocks(seed, block, offset, count):
    # ids start within a few of a block boundary, so ranges straddle it
    start = max(0, block * _VNF_STREAM_BLOCK + offset)
    assert_streams_match(seed, [(2, i) for i in range(start, start + count)])


@settings(max_examples=50, deadline=None)
@given(seed=SEEDS, tags=st.lists(st.integers(0, 2**32 - 1), min_size=0, max_size=6))
def test_any_tag_count_equals_entity_rng(seed, tags):
    assert_streams_match(seed, [tuple(tags)])


def test_bad_tags_are_rejected():
    with pytest.raises(ValueError):
        entity_streams(0, np.array([[2, -1]]))
    with pytest.raises(ValueError):
        entity_streams(0, np.array([[2, 2**32]]))
    with pytest.raises(ValueError):
        entity_streams(0, [1, 2, 3])
    with pytest.raises(ValueError):
        entity_streams(-1, np.array([[2, 0]]))


def test_simulator_schedules_from_entity_rng_streams():
    """Servers' and instances' streams are ``entity_rng``'s: the same state
    after the one draw each made, and the same failure time from it, for
    instances in the first three seeding blocks."""
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
    n = 2 * _VNF_STREAM_BLOCK + 5
    for i in range(n):
        outcome = state.apply_action(1, (i // 8) % 10, (i // 2) % 5, i % 4)
        assert outcome.accepted and outcome.instance_id == i
    by_id = {inst.instance_id: inst for _, inst in instances(state)}
    for i in range(n):
        assert_state_after_one_draw(by_id[i].rng, entity_rng(seed, 2, i))
        expected = sample_exponential(entity_rng(seed, 2, i), failure.mttf_vnf)
        assert by_id[i].due == expected
