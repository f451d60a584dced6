import numpy as np
import pytest

from sfcsim.clustering import (ClusterModel, PeriodProfile, _kmeans_pp_init,
                               compute_period_profiles, elbow_scan,
                               kmeans_fit, select_cells, suggest_elbow_k)
from sfcsim.seeding import entity_rng
from sfcsim.trace import SteppedTrace

STEPS_PER_DAY = 288  # 5-minute steps
STEPS_PER_PERIOD = 48

# Trace origin at local midnight when shifted by UTC+1: 2013-11-01 00:00 CET.
MIDNIGHT_ORIGIN_MS = 1_383_260_400_000


def day_trace(matrix) -> SteppedTrace:
    matrix = np.asarray(matrix, dtype=float)
    return SteppedTrace(list(range(1, matrix.shape[1] + 1)), matrix,
                        300, MIDNIGHT_ORIGIN_MS)


# --------------------------------------------------------------- profiles

def test_constant_trace_gives_48v_per_period():
    v = 2.5
    trace = day_trace(np.full((STEPS_PER_DAY, 3), v))
    profiles = compute_period_profiles(trace)
    for p in profiles:
        assert np.allclose(p.features, STEPS_PER_PERIOD * v)


def test_activity_only_in_late_night_period():
    matrix = np.zeros((STEPS_PER_DAY, 1))
    matrix[:STEPS_PER_PERIOD, 0] = 1.0  # 00:00-04:00 local
    profiles = compute_period_profiles(day_trace(matrix))
    assert np.allclose(profiles[0].features,
                       [STEPS_PER_PERIOD, 0, 0, 0, 0, 0])


def test_two_day_trace_averages_per_day():
    rng = np.random.default_rng(0)
    day1 = rng.uniform(0, 3, size=(STEPS_PER_DAY, 2))
    day2 = rng.uniform(0, 3, size=(STEPS_PER_DAY, 2))
    profiles = compute_period_profiles(day_trace(np.vstack([day1, day2])))
    for cell_idx, profile in enumerate(profiles):
        for p in range(6):
            lo, hi = p * STEPS_PER_PERIOD, (p + 1) * STEPS_PER_PERIOD
            a = day1[lo:hi, cell_idx].sum()
            b = day2[lo:hi, cell_idx].sum()
            assert profile.features[p] == pytest.approx((a + b) / 2)


def test_short_trace_rejected():
    with pytest.raises(ValueError):
        compute_period_profiles(day_trace(np.zeros((10, 1))))


def test_profiles_require_six_nonnegative_features():
    with pytest.raises(ValueError):
        PeriodProfile(1, np.zeros(5))
    with pytest.raises(ValueError):
        PeriodProfile(1, [-1, 0, 0, 0, 0, 0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_profiles_reject_non_finite_features(bad):
    with pytest.raises(ValueError, match="finite"):
        PeriodProfile(1, [0, 1, bad, 0, 0, 0])


# ----------------------------------------------------------------- k-means

def blob_profiles(rng, centers, n_per, sigma):
    profiles = []
    labels = []
    cell = 1
    for label, center in enumerate(centers):
        for _ in range(n_per):
            features = np.clip(center + rng.normal(0, sigma, 6), 0, None)
            profiles.append(PeriodProfile(cell, features))
            labels.append(label)
            cell += 1
    return profiles, np.array(labels)


def adjusted_rand_index(a, b) -> float:
    """ARI from the pair-counting contingency table."""
    from math import comb
    a = np.asarray(a)
    b = np.asarray(b)
    classes_a, classes_b = np.unique(a), np.unique(b)
    table = np.array([[(np.sum((a == i) & (b == j))) for j in classes_b]
                      for i in classes_a])
    sum_cells = sum(comb(int(n), 2) for n in table.reshape(-1))
    sum_rows = sum(comb(int(n), 2) for n in table.sum(axis=1))
    sum_cols = sum(comb(int(n), 2) for n in table.sum(axis=0))
    total = comb(len(a), 2)
    expected = sum_rows * sum_cols / total
    max_index = (sum_rows + sum_cols) / 2
    if max_index == expected:
        return 1.0
    return (sum_cells - expected) / (max_index - expected)


def test_k1_closed_form():
    rng = np.random.default_rng(1)
    profiles = [PeriodProfile(i + 1, rng.uniform(0, 5, 6)) for i in range(20)]
    model = kmeans_fit(profiles, k=1, seed=0)
    points = np.stack([p.features for p in profiles])
    assert np.allclose(model.centroids[0], points.mean(axis=0))
    expected_sse = float(((points - points.mean(axis=0)) ** 2).sum())
    assert model.sse == pytest.approx(expected_sse, rel=1e-12)


def test_planted_blobs_recovered_exactly():
    rng = np.random.default_rng(7)
    sigma = 0.5
    centers = [np.full(6, 20.0), np.full(6, 20.0 + 25 * sigma),
               np.full(6, 20.0 + 50 * sigma)]
    profiles, truth = blob_profiles(rng, centers, n_per=30, sigma=sigma)
    model = kmeans_fit(profiles, k=3, seed=3)
    labels = np.array([model.assignments[p.cell_id] for p in profiles])
    assert adjusted_rand_index(labels, truth) == 1.0
    # brute-force nearest-centroid oracle agrees with stored assignments
    points = np.stack([p.features for p in profiles])
    d2 = ((points[:, None, :] - model.centroids[None]) ** 2).sum(axis=2)
    assert np.array_equal(labels, d2.argmin(axis=1))


def test_k_equals_n_gives_zero_sse():
    rng = np.random.default_rng(2)
    profiles = [PeriodProfile(i + 1, rng.uniform(0, 5, 6)) for i in range(8)]
    model = kmeans_fit(profiles, k=8, seed=0)
    assert model.sse == pytest.approx(0.0, abs=1e-18)


def test_duplicate_profiles_terminate():
    profiles = [PeriodProfile(i + 1, np.ones(6)) for i in range(6)]
    model = kmeans_fit(profiles, k=3, seed=0)
    assert model.sse == pytest.approx(0.0, abs=1e-18)


def test_assignment_optimality_and_sse_recompute():
    rng = np.random.default_rng(11)
    profiles = [PeriodProfile(i + 1, rng.uniform(0, 10, 6)) for i in range(60)]
    model = kmeans_fit(profiles, k=5, seed=4)
    points = np.stack([p.features for p in profiles])
    d2 = ((points[:, None, :] - model.centroids[None]) ** 2).sum(axis=2)
    assigned = np.array([model.assignments[p.cell_id] for p in profiles])
    assert np.all(d2[np.arange(len(points)), assigned] <= d2.min(axis=1) + 1e-15)
    recomputed = float(d2[np.arange(len(points)), assigned].sum())
    assert abs(recomputed - model.sse) <= 1e-9 * max(1.0, abs(recomputed))


def test_kmeans_determinism():
    rng = np.random.default_rng(13)
    profiles = [PeriodProfile(i + 1, rng.uniform(0, 10, 6)) for i in range(40)]
    m1 = kmeans_fit(profiles, k=4, seed=9)
    m2 = kmeans_fit(profiles, k=4, seed=9)
    assert np.array_equal(m1.centroids, m2.centroids)
    assert m1.assignments == m2.assignments
    assert m1.sse == m2.sse


def test_k_bounds_validated():
    profiles = [PeriodProfile(1, np.ones(6))]
    with pytest.raises(ValueError):
        kmeans_fit(profiles, k=2, seed=0)
    with pytest.raises(ValueError):
        kmeans_fit(profiles, k=0, seed=0)


@pytest.mark.parametrize("n_restarts", [0, -1])
def test_kmeans_fit_rejects_no_restarts(n_restarts):
    profiles = [PeriodProfile(i + 1, np.full(6, float(i))) for i in range(3)]
    with pytest.raises(ValueError, match="n_restarts must be >= 1"):
        kmeans_fit(profiles, k=2, seed=0, n_restarts=n_restarts)


def test_sse_tie_goes_to_restart_zero():
    """Four pairs of identical profiles: every restart puts each pair in its
    own cluster (SSE 0.0) but seeds the clusters in its own order, and the
    fit keeps restart 0's order, as a strict ``<`` over the restarts does."""
    rows = np.repeat(np.arange(4.0)[:, None] * np.ones(6), 2, axis=0)
    profiles = [PeriodProfile(i + 1, row) for i, row in enumerate(rows)]
    inits = _kmeans_pp_init(rows, 4, [entity_rng(1, 10, 4, r) for r in range(10)])
    assert not np.array_equal(inits[0], inits[-1])  # the orders differ
    model = kmeans_fit(profiles, k=4, seed=1)
    assert model.sse == 0.0
    assert np.array_equal(model.centroids, inits[0])
    assert np.array_equal(model.centroids,
                          kmeans_fit(profiles, k=4, seed=1, n_restarts=1).centroids)


# -------------------------------------------------------------------- elbow

def test_elbow_single_k_matches_fit():
    rng = np.random.default_rng(17)
    profiles = [PeriodProfile(i + 1, rng.uniform(0, 10, 6)) for i in range(20)]
    scan = elbow_scan(profiles, (1, 1), seed=5)
    assert len(scan) == 1
    assert scan[0] == (1, kmeans_fit(profiles, 1, seed=5).sse)


def test_elbow_sse_non_increasing():
    rng = np.random.default_rng(19)
    profiles = [PeriodProfile(i + 1, rng.uniform(0, 10, 6)) for i in range(50)]
    scan = elbow_scan(profiles, (1, 12), seed=6)
    sses = [s for _, s in scan]
    assert all(sses[i + 1] <= sses[i] + 1e-12 for i in range(len(sses) - 1))


@pytest.mark.parametrize("n_restarts", [0, -1])
def test_elbow_scan_rejects_no_restarts(n_restarts):
    profiles = [PeriodProfile(i + 1, np.full(6, float(i))) for i in range(3)]
    with pytest.raises(ValueError, match="n_restarts must be >= 1"):
        elbow_scan(profiles, (1, 3), seed=0, n_restarts=n_restarts)


def test_elbow_knee_found_on_planted_blobs():
    rng = np.random.default_rng(23)
    sigma = 0.4
    centers = [np.full(6, 10.0), np.full(6, 10.0 + 30 * sigma),
               np.full(6, 10.0 + 60 * sigma)]
    profiles, _ = blob_profiles(rng, centers, n_per=25, sigma=sigma)
    scan = elbow_scan(profiles, (1, 10), seed=2)
    assert suggest_elbow_k(scan) == 3


# ------------------------------------------------------------- cell selection

def test_select_cells_sorted_and_complete():
    profiles = [PeriodProfile(c, np.ones(6)) for c in (9, 2, 5)]
    model = kmeans_fit(profiles, k=1, seed=0)
    assert select_cells(model, 0) == [2, 5, 9]


def test_select_cells_empty_cluster():
    model = ClusterModel(2, np.zeros((2, 6)), {1: 0, 2: 0}, 0.0, 0)
    assert select_cells(model, 1) == []
    with pytest.raises(ValueError):
        select_cells(model, 2)


def test_model_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(29)
    profiles = [PeriodProfile(i + 1, rng.uniform(0, 10, 6)) for i in range(12)]
    model = kmeans_fit(profiles, k=3, seed=1)
    path = tmp_path / "model.npz"
    model.save(path)
    loaded = ClusterModel.load(path)
    assert loaded.k == model.k
    assert loaded.assignments == model.assignments
    assert np.array_equal(loaded.centroids, model.centroids)
    assert loaded.sse == model.sse
