"""Property tests: the k-means kernels equal the expressions they replaced.

Each oracle below is the plain numpy expression the kernel stands for: the
broadcast squared distance, the per-cluster ``mean(axis=0)`` and
``Generator.choice(n, p=probs)`` in the k-means++ seeding. The kernels must
match them bit for bit, so every comparison is exact.
"""

import numpy as np
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


# Wide floats for the distances; coarse integers make duplicate rows (and
# zero-distance seeding) likely.
WIDE = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
COARSE = st.integers(0, 2).map(float)


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
    centroids, _, _ = _lloyd(points, init, max_iter=1, tol=0.0)
    assert np.array_equal(centroids, expected)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_inline_draw_takes_choice_draws(data, seed):
    elements = data.draw(st.sampled_from([COARSE, st.floats(0, 1e4, allow_nan=False)]))
    points = data.draw(matrix(st.integers(1, 60), elements))
    k = data.draw(st.integers(1, points.shape[0]))
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert np.array_equal(_kmeans_pp_init(points, k, rng),
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
    assert np.array_equal(_kmeans_pp_init(points, 2, ScriptedGenerator(seed, u)),
                          kmeans_pp_init_oracle(points, 2, ScriptedGenerator(seed, u)))
