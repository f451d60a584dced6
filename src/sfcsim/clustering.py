"""Cell clustering on day-period activity profiles.

Each cell is summarized by six features: its average total internet activity
in each 4-hour period of the day (late night 00-04 through night 20-24),
averaged over the days of the trace. K-means over these profiles groups
cells with similar daily patterns; an elbow scan over k guides the choice
of cluster count.
"""

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .artifacts import read_npz
from .seeding import entity_rng

logger = logging.getLogger(__name__)

PERIOD_NAMES = ("late_night", "early_morning", "morning",
                "afternoon", "evening", "night")
N_PERIODS = 6
_PERIOD_HOURS = 4
SECONDS_PER_DAY = 86_400
MAX_ITER, TOL = 300, 1e-6  # Lloyd's stopping rule in every fit
N_RESTARTS = 10  # seeded k-means++ restarts per fit


class PeriodProfile(NamedTuple):
    """Per-cell mean activity in each day period, order fixed as PERIOD_NAMES."""

    cell_id: int
    features: np.ndarray


@dataclass
class ClusterModel:
    """Fitted K-means model over period profiles."""

    k: int
    centroids: np.ndarray
    assignments: dict[int, int]
    sse: float
    seed: int

    def save(self, path) -> None:
        cells = np.array(sorted(self.assignments))
        labels = np.array([self.assignments[c] for c in cells])
        np.savez(path, k=self.k, centroids=self.centroids, cells=cells,
                 labels=labels, sse=self.sse, seed=self.seed)

    @classmethod
    def load(cls, path) -> "ClusterModel":
        data = read_npz(path)
        assignments = {int(c): int(l) for c, l in zip(data["cells"], data["labels"])}
        return cls(int(data["k"]), data["centroids"], assignments,
                   float(data["sse"]), int(data["seed"]))


def compute_period_profiles(trace, utc_offset_hours: float = 1.0) -> list[PeriodProfile]:
    """Build the six-feature day-period profile for every cell in the trace.

    A step belongs to the period containing its start time in local
    wall-clock (trace timestamps shifted by ``utc_offset_hours``). Each
    period feature is the summed activity divided by the number of distinct
    local days in which that period occurs (``cmd_cluster`` rejects a trace under a day).
    """
    local_s = (trace.origin_time_ms / 1000.0 + utc_offset_hours * 3600.0
               + np.arange(trace.n_steps) * trace.step_duration)
    periods = ((local_s % SECONDS_PER_DAY) // (_PERIOD_HOURS * 3600)).astype(int)
    days = (local_s // SECONDS_PER_DAY).astype(int)
    features = np.zeros((trace.n_cells, N_PERIODS))
    for p in range(N_PERIODS):
        mask = periods == p
        if not mask.any():
            continue
        n_days = len(np.unique(days[mask]))
        features[:, p] = trace.steps[mask].sum(axis=0) / n_days
    return [PeriodProfile(cell, features[i]) for i, cell in enumerate(trace.cell_ids)]


def _sq_dist(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance from every point to every centroid.

    ``centroids`` is (k, d), giving (n, k), or (R, k, d) for R restarts at
    once, giving (R, n, k). The squared differences are added one feature at
    a time, left to right. numpy sums a last axis shorter than 8 in that
    same order, so for N_PERIODS (6) features this equals
    ``np.sum((points[:, None, :] - centroids[None]) ** 2, axis=2)`` bit for
    bit. With 8 or more features numpy sums pairwise and the two differ.
    """
    acc = points[:, 0, None] - centroids[..., None, :, 0]
    acc *= acc
    for c in range(1, points.shape[1]):
        d = points[:, c, None] - centroids[..., None, :, c]
        d *= d
        acc += d
    return acc


def _kmeans_pp_init(points: np.ndarray, k: int,
                    rngs: list[np.random.Generator]) -> np.ndarray:
    """k-means++ seeding of one restart per generator, all at once: (R, k, d).

    Each centroid is drawn with ``Generator.choice(n, p=probs)``'s own
    algorithm: the cdf searched at one ``rng.random()``, where counting the
    cdf values ``<= u`` is ``searchsorted(side="right")`` on a non-decreasing
    cdf. So every restart takes the same draws from its own stream as if it
    were seeded alone. A restart whose distances are all zero draws its
    remaining centroids uniformly and leaves the batch.
    """
    n = points.shape[0]
    centroids = np.empty((len(rngs), k, points.shape[1]))
    centroids[:, 0] = points[[rng.integers(n) for rng in rngs]]
    live = np.arange(len(rngs))
    dist2 = _sq_dist(points, centroids[:, :1])[..., 0]
    for i in range(1, k):
        total = dist2.sum(axis=1)
        spent = total <= 0.0
        if spent.any():
            for r in live[spent]:
                centroids[r, i:] = points[rngs[r].integers(n, size=k - i)]
            live, dist2, total = live[~spent], dist2[~spent], total[~spent]
            if not len(live):
                break
        cdf = (dist2 / total[:, None]).cumsum(axis=1)
        cdf /= cdf[:, -1:]
        u = np.array([rngs[r].random() for r in live])
        centroids[live, i] = points[(cdf <= u[:, None]).sum(axis=1)]
        dist2 = np.minimum(dist2, _sq_dist(points, centroids[live, i:i + 1])[..., 0])
    return centroids


def _lloyd(points: np.ndarray, inits: np.ndarray, max_iter: int,
           tol: float) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Lloyd's iterations of R restarts in lockstep from inits (R, k, d).

    Returns (centroids (R, k, d), labels (R, n), sse: R floats), each
    restart exactly as if it ran alone: it stops after its own first
    centroid shift below ``tol``, or after ``max_iter`` iterations.

    Ties in the nearest-centroid assignment break toward the lowest cluster
    index (argmin). Each centroid is the mean of its members, summed in row
    order by ``np.bincount`` as ``mean(axis=0)`` sums them; bin ``r*k + j``
    holds cluster j of restart r. An emptied cluster is repaired by moving
    its centroid to the point farthest from its assigned centroid.

    The (R, n, k) distance table is kept across iterations: only the columns
    of centroids whose bits changed are recomputed, since a column depends
    on its centroid alone.
    """
    n_restarts, k, n_features = inits.shape
    n = len(points)
    centroids = inits.copy()
    columns = np.tile(points.T, n_restarts)  # each feature, once per restart
    live = np.arange(n_restarts)
    d2 = _sq_dist(points, centroids)
    for _ in range(max_iter):
        current = centroids[live]
        # d2[live] copies the table: index it only once some restarts left.
        labels = np.argmin(d2[live] if len(live) < n_restarts else d2, axis=2)
        bins = (labels + np.arange(0, len(live) * k, k)[:, None]).ravel()
        counts = np.bincount(bins, minlength=len(live) * k).reshape(-1, k, 1)
        new = np.empty_like(current)
        for c in range(n_features):
            new[..., c] = np.bincount(bins, columns[c, :len(bins)],
                                      minlength=len(live) * k).reshape(-1, k)
        np.divide(new, counts, out=new, where=counts > 0)
        for r in np.flatnonzero((counts == 0).any(axis=(1, 2))):
            # The repair relabels points partway through, so later clusters
            # see the updated labels.
            new[r] = current[r]
            for j in range(k):
                members = points[labels[r] == j]
                if len(members):
                    new[r, j] = members.mean(axis=0)
                else:
                    farthest = np.argmax(d2[live[r], np.arange(n), labels[r]])
                    new[r, j] = points[farthest]
                    labels[r, farthest] = j
        shift = np.max(np.sqrt(np.sum((new - current) ** 2, axis=2)), axis=1)
        centroids[live] = new
        mr, mj = np.nonzero((new != current).any(axis=2))
        d2[live[mr], :, mj] = _sq_dist(points, new[mr, mj]).T
        live = live[~(shift < tol)]
        if not len(live):
            break
    labels = np.argmin(d2, axis=2)
    sse = np.take_along_axis(d2, labels[..., None], axis=2)[..., 0].sum(axis=1)
    return centroids, labels, sse.tolist()


def kmeans_fit(profiles: list[PeriodProfile], k: int, seed: int) -> ClusterModel:
    """Best-of-N_RESTARTS K-means over period profiles; deterministic per seed.

    The restarts are seeded and iterated in lockstep; a tie in the SSE goes
    to the lowest restart.
    """
    if not 1 <= k <= len(profiles):
        raise ValueError(f"k must be in [1, {len(profiles)}] (the number of profiles)")
    points = np.stack([p.features for p in profiles])
    rngs = [entity_rng(seed, 10, k, restart) for restart in range(N_RESTARTS)]
    centroids, labels, sse = _lloyd(points, _kmeans_pp_init(points, k, rngs),
                                    MAX_ITER, TOL)
    best = int(np.argmin(sse))
    assignments = dict(zip([p.cell_id for p in profiles], labels[best].tolist()))
    return ClusterModel(k, centroids[best], assignments, sse[best], seed)


def elbow_scan(profiles: list[PeriodProfile], k_range: tuple[int, int],
               seed: int) -> list[tuple[int, float]]:
    """Fit each k in the inclusive range and report (k, sse), ordered by k.

    Besides the seeded restarts, each k also tries a warm start built from
    the previous k's best centroids plus the worst-fit point, which keeps
    the scan non-increasing in k.
    """
    k_lo, k_hi = k_range
    points = np.stack([p.features for p in profiles])
    results = []
    prev_centroids = None
    for k in range(k_lo, k_hi + 1):
        model = kmeans_fit(profiles, k, seed)
        best = (model.centroids, model.sse)
        if prev_centroids is not None and prev_centroids.shape[0] == k - 1:
            d2 = _sq_dist(points, prev_centroids)
            worst = np.argmax(d2.min(axis=1))
            warm = np.vstack([prev_centroids, points[worst]])
            centroids, _, sse = _lloyd(points, warm[None], MAX_ITER, TOL)
            if sse[0] < best[1]:
                best = (centroids[0], sse[0])
        results.append((k, best[1]))
        prev_centroids = best[0]
    return results


def select_cells(model: ClusterModel, cluster_index: int) -> list[int]:
    """Cells assigned to one cluster, in ascending cell-id order."""
    if not 0 <= cluster_index < model.k:
        raise ValueError(f"cluster_index must be in [0, {model.k})")
    return sorted(c for c, l in model.assignments.items() if l == cluster_index)


def suggest_elbow_k(scan: list[tuple[int, float]]) -> int:
    """Suggest the knee of the (k, sse) curve: the point of maximum distance
    from the chord joining the curve's endpoints (a curvature-maximum proxy
    that is robust to the steep initial drop).

    Only a hint; the choice of k is ultimately a judgment call on the curve.
    """
    if len(scan) < 3:
        return scan[-1][0]
    ks = np.array([k for k, _ in scan], dtype=float)
    sses = np.array([s for _, s in scan])
    x = (ks - ks[0]) / (ks[-1] - ks[0])
    span = sses[0] - sses[-1]
    y = (sses - sses[-1]) / span if span > 0 else np.zeros_like(sses)
    chord = 1.0 - x
    return int(ks[np.argmax(chord - y)])
