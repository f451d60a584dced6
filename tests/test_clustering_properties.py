"""Property tests: the k-means kernels equal the expressions they replaced.

Each oracle below is the plain numpy expression the kernel stands for: the
broadcast squared distance, the per-cluster ``mean(axis=0)`` and
``Generator.choice(n, p=probs)`` in the k-means++ seeding. The batched
seeding and Lloyd's iterations, which run all restarts in lockstep, must
equal one-restart-at-a-time oracles restart by restart. Every comparison is
exact.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from sfcsim.clustering import N_PERIODS, _kmeans_pp_init, _lloyd, _sq_dist


def sq_dist_oracle(points, centroids):
    return np.sum((points[:, None, :] - centroids[None]) ** 2, axis=2)


def kmeans_pp_init_oracle(points, k, rng):
    """k-means++ seeding with ``rng.choice(n, p=probs)`` for every draw."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    dist2 = np.sum((points - centroids[0]) ** 2, axis=1)
    for i in range(1, k):
        total = dist2.sum()
        if total <= 0.0:
            centroids[i:] = points[rng.integers(n, size=k - i)]
            break
        centroids[i] = points[rng.choice(n, p=dist2 / total)]
        dist2 = np.minimum(dist2, np.sum((points - centroids[i]) ** 2, axis=1))
    return centroids


def single_kmeans_pp_init(points, k, rng):
    """One restart's k-means++ seeding, one draw at a time."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    dist2 = sq_dist_oracle(points, centroids[:1])[:, 0]
    for i in range(1, k):
        total = dist2.sum()
        if total <= 0.0:
            centroids[i:] = points[rng.integers(n, size=k - i)]
            break
        cdf = (dist2 / total).cumsum()
        cdf /= cdf[-1]
        centroids[i] = points[cdf.searchsorted(rng.random(), side="right")]
        dist2 = np.minimum(dist2, sq_dist_oracle(points, centroids[i:i + 1])[:, 0])
    return centroids


def single_lloyd(points, init, max_iter, tol):
    """One restart's Lloyd iterations; returns (centroids, labels, sse)."""
    centroids = init.copy()
    k = centroids.shape[0]
    for _ in range(max_iter):
        d2 = sq_dist_oracle(points, centroids)
        labels = np.argmin(d2, axis=1)
        counts = np.bincount(labels, minlength=k)
        if counts.all():
            new_centroids = np.empty_like(centroids)
            for c in range(points.shape[1]):
                new_centroids[:, c] = np.bincount(labels, points[:, c], minlength=k)
            new_centroids /= counts[:, None]
        else:
            new_centroids = centroids.copy()
            for j in range(k):
                members = points[labels == j]
                if len(members):
                    new_centroids[j] = members.mean(axis=0)
                else:
                    farthest = np.argmax(d2[np.arange(len(points)), labels])
                    new_centroids[j] = points[farthest]
                    labels[farthest] = j
        shift = np.max(np.sqrt(np.sum((new_centroids - centroids) ** 2, axis=1)))
        centroids = new_centroids
        if shift < tol:
            break
    d2 = sq_dist_oracle(points, centroids)
    labels = np.argmin(d2, axis=1)
    sse = float(d2[np.arange(len(points)), labels].sum())
    return centroids, labels, sse


# Wide floats for the distances; coarse integers make duplicate rows (and
# zero-distance seeding) likely. TINY values have squared differences that
# underflow to 0 for neighbours but not for 0 and 3e-162, so distinct rows can
# be at distance 0 from each other.
WIDE = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
COARSE = st.integers(0, 2).map(float)
TINY = st.sampled_from([0.0, 1.5e-162, 3e-162])


def matrix(rows, elements):
    return arrays(np.float64, st.tuples(rows, st.just(N_PERIODS)), elements=elements)


@settings(max_examples=300, deadline=None)
@given(points=matrix(st.integers(1, 40), WIDE),
       centroids=matrix(st.integers(1, 12), WIDE))
@example(points=np.array([[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]]),
         centroids=np.array([[0.5, 0.25, 7.0, 1e6, -3.0, 0.1]]))
def test_sq_dist_equals_broadcast_sum(points, centroids):
    assert np.array_equal(_sq_dist(points, centroids),
                          sq_dist_oracle(points, centroids))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), points=matrix(st.integers(1, 60),
                                     st.floats(0, 1e4, allow_nan=False)))
def test_centroid_update_equals_per_cluster_mean(data, points):
    n = points.shape[0]
    k = data.draw(st.integers(1, min(n, 8)))
    rows = data.draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k))
    init = points[rows]
    labels = np.argmin(sq_dist_oracle(points, init), axis=1)
    assume(len(np.unique(labels)) == k)  # no cluster empty
    expected = np.stack([points[labels == j].mean(axis=0) for j in range(k)])
    centroids, _, _ = _lloyd(points, init[None], max_iter=1, tol=0.0)
    assert np.array_equal(centroids[0], expected)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_inline_draw_takes_choice_draws(data, seed):
    elements = data.draw(st.sampled_from([COARSE, st.floats(0, 1e4, allow_nan=False)]))
    points = data.draw(matrix(st.integers(1, 60), elements))
    k = data.draw(st.integers(1, points.shape[0]))
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert np.array_equal(_kmeans_pp_init(points, k, [rng])[0],
                          kmeans_pp_init_oracle(points, k, oracle_rng))
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


class ScriptedGenerator(np.random.Generator):
    """PCG64 generator whose ``random()`` returns ``u``; ``choice`` calls it too."""

    def __init__(self, seed, u):
        super().__init__(np.random.PCG64(seed))
        self.u = u

    def random(self, *args, **kwargs):
        return self.u


@settings(max_examples=300, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_inline_draw_matches_choice_on_cdf_boundaries(data, seed):
    """A uniform draw that equals a cdf value exactly picks the same index."""
    points = data.draw(matrix(st.integers(2, 30), st.floats(0, 1e4, allow_nan=False)))
    n = len(points)
    first = np.random.Generator(np.random.PCG64(seed)).integers(n)
    dist2 = np.sum((points - points[first]) ** 2, axis=1)
    assume(dist2.sum() > 0)
    cdf = (dist2 / dist2.sum()).cumsum()
    cdf /= cdf[-1]
    u = cdf[data.draw(st.integers(0, n - 2))]
    assume(u < 1.0)
    assert np.array_equal(_kmeans_pp_init(points, 2, [ScriptedGenerator(seed, u)])[0],
                          kmeans_pp_init_oracle(points, 2, ScriptedGenerator(seed, u)))


# ------------------------------------------------------ restarts in lockstep

class RecordingGenerator(np.random.Generator):
    """PCG64 generator that notes whether k-means++ took its uniform fallback."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.fell_back = False

    def integers(self, *args, size=None, **kwargs):
        self.fell_back |= size is not None
        return super().integers(*args, size=size, **kwargs)


def assert_seeding_matches(points, k, seeds):
    rngs = [RecordingGenerator(s) for s in seeds]
    oracle_rngs = [RecordingGenerator(s) for s in seeds]
    batched = _kmeans_pp_init(points, k, rngs)
    assert batched.shape == (len(seeds), k, N_PERIODS)
    for r, (rng, oracle_rng) in enumerate(zip(rngs, oracle_rngs)):
        assert np.array_equal(batched[r], single_kmeans_pp_init(points, k, oracle_rng))
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        assert rng.fell_back == oracle_rng.fell_back
    return [rng.fell_back for rng in rngs]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6))
def test_batched_seeding_equals_each_restart_alone(data, seeds):
    elements = data.draw(st.sampled_from(
        [COARSE, TINY, st.floats(0, 1e4, allow_nan=False)]))
    points = data.draw(matrix(st.integers(1, 40), elements))
    k = data.draw(st.integers(1, points.shape[0]))
    assert_seeding_matches(points, k, seeds)


def test_batched_seeding_with_some_restarts_falling_back():
    """Rows 0 and 1 (and 1 and 2) are at distance 0, rows 0 and 2 are not.
    A restart that starts at row 1 has no distance left and falls back to
    uniform draws; one that starts at row 0 or 2 draws its second centroid.
    Coarse duplicates beside them make the later fallbacks come at other
    steps."""
    points = np.zeros((5, N_PERIODS))
    points[:3, 0] = [0.0, 1.5e-162, 3e-162]
    points[3:, 1] = 2.0
    fell_back = assert_seeding_matches(points[:3], 2, range(12))
    assert any(fell_back) and not all(fell_back)
    assert_seeding_matches(points, 4, range(12))


def assert_lloyd_matches(points, inits, max_iter, tol):
    centroids, labels, sse = _lloyd(points, inits, max_iter, tol)
    assert centroids.shape == inits.shape and len(sse) == len(inits)
    for r, init in enumerate(inits):
        want = single_lloyd(points, init, max_iter, tol)
        assert np.array_equal(centroids[r], want[0])
        assert np.array_equal(labels[r], want[1])
        assert repr(sse[r]) == repr(want[2])


@settings(max_examples=300, deadline=None)
@given(data=st.data(), points=matrix(st.integers(1, 40), st.one_of(
    COARSE, st.floats(0, 1e4, allow_nan=False))))
def test_batched_lloyd_equals_each_restart_alone(data, points):
    """Inits from repeated rows (duplicate centroids leave a cluster empty)
    and from far-off points (an empty cluster far away)."""
    n = points.shape[0]
    k = data.draw(st.integers(1, min(n, 6)))
    n_restarts = data.draw(st.integers(1, 5))
    inits = points[data.draw(arrays(np.intp, (n_restarts, k),
                                    elements=st.integers(0, n - 1)))]
    far = data.draw(arrays(np.bool_, (n_restarts, k)))
    inits[far] = 1e6
    max_iter = data.draw(st.sampled_from([1, 2, 3, 300]))
    tol = data.draw(st.sampled_from([0.0, 1e-6, 1.0]))
    assert_lloyd_matches(points, inits, max_iter, tol)


def starts_with_empty_cluster(points, init):
    return len(np.unique(sq_dist_oracle(points, init).argmin(axis=1))) < len(init)


def test_batched_lloyd_repairs_one_restart_only():
    points = np.random.default_rng(3).uniform(0, 10, (30, N_PERIODS))
    inits = np.stack([points[:4], points[:4], points[4:8]])
    inits[1, 2] = 1e6
    assert [starts_with_empty_cluster(points, i) for i in inits] == [False, True, False]
    assert_lloyd_matches(points, inits, 300, 1e-6)


@pytest.mark.parametrize("max_iter, tol", [(1, 1e-6), (2, 1e-6), (3, 1e-6),
                                          (300, 1e-6), (300, 1.5)])
def test_batched_lloyd_restarts_converge_at_different_iterations(max_iter, tol):
    """Restart 0 starts at its fixed point and stops after one iteration;
    restart 1 needs several. ``max_iter`` below that cuts restart 1 short,
    and so does ``tol`` 1.5, which stops it while its centroids still move."""
    points = np.random.default_rng(4).uniform(0, 10, (40, N_PERIODS))
    fixed, _, _ = single_lloyd(points, points[:5], 300, 1e-6)
    inits = np.stack([fixed, points[5:10]])
    assert np.array_equal(single_lloyd(points, fixed, 1, 1e-6)[0], fixed)
    converged, _, _ = single_lloyd(points, inits[1], 300, 1e-6)
    for cut in ((1, 1e-6), (2, 1e-6), (300, 1.5)):
        assert not np.array_equal(single_lloyd(points, inits[1], *cut)[0], converged)
    assert_lloyd_matches(points, inits, max_iter, tol)
