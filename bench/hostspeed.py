"""Host-speed reference: fixed pieces of work timed next to every chunk.

On a shared host, other tenants slow whole stretches of a run by up to
about 40%, and CPU time slows with wall time, so the loss is not steal or
descheduling. Every chunk time in a run is therefore paired with the time of
this reference, taken right after it. The reference never changes with the
program under test and calls no BLAS routine, so BLAS threading cannot move
it. It has two parts, because contention slows code by how it uses the core:

- ``tight``: Python object and dict work with small numpy array operations,
  all in cache. Alone it slows about twice as much as the benchmark's
  chunks do (in log terms, over the same stretches of a run).
- ``chase``: a walk over a ring of objects laid out in shuffled order, a
  working set of several MiB. Alone it slows less than the chunks do.

``slowdown`` is the geometric mean of each part's time over its time on a
quiet host (2 vCPUs of an Intel Xeon at 2.1 GHz, Python 3.11, numpy 2.4).
Regressed chunk by chunk on ``train``, ``eval-*`` and ``kmeans_fit``, the
log of a chunk's time rose with the log of that mean by a factor between
0.5 and 1.3 (the two regression slopes, either way round), with a
correlation of about 0.7. A chunk time divided by the slowdown is the time
the quiet host would have given.

Set-up is different work, mostly vectorised numpy over arrays of tens of
MiB, and it slowed less than that mean over the same stretches. It is
paired with a third part instead, ``stream``: random normals, abs, scale,
clip and sum over an 8 MiB array kept for the whole run, which slowed about
as much as set-up did.
``stream_slowdown`` is its time over its quiet-host time.
"""

import random
import statistics
import time

import numpy as np

TIGHT_NOMINAL_S = 0.0035
CHASE_NOMINAL_S = 0.0050
STREAM_NOMINAL_S = 0.0200
_TIGHT_ITERATIONS = 4000
_SLOTS = 50
_VEC = np.linspace(0.0, 1.0, 64)
_RING = 60000
_CHASE_STEPS = 20000
_STREAM_SIZE = 1_000_000


class _Slot:
    __slots__ = ("kind", "load")

    def __init__(self, kind: int, load: float):
        self.kind = kind
        self.load = load


class _Node:
    __slots__ = ("value", "load", "next")


def tight() -> float:
    """In-cache interpreter work; returns a checksum."""
    slots = [_Slot(i % 7, float(i)) for i in range(_SLOTS)]
    table: dict[int, int] = {}
    acc = 0.0
    for i in range(_TIGHT_ITERATIONS):
        slot = slots[i % _SLOTS]
        table[slot.kind] = table.get(slot.kind, 0) + 1
        slot.load = slot.load * 0.5 + (i & 15)
        if i % 8 == 0:
            v = _VEC * slot.load
            acc += float(v.sum()) + float(np.maximum(v, 0.5)[i % 64])
    return acc + len(table)


def _ring() -> _Node:
    """A ring of nodes linked in a fixed shuffled order."""
    nodes = [_Node() for _ in range(_RING)]
    order = list(range(_RING))
    random.Random(1).shuffle(order)
    for i, node in enumerate(nodes):
        node.value = i
        node.load = float(i)
    for i in range(_RING):
        nodes[order[i]].next = nodes[order[(i + 1) % _RING]]
    return nodes[order[0]]


def _timed(fn) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


class Reference:
    """Times the reference after each measured piece of work."""

    def __init__(self, share: float = 0.25):
        self.share = share       # reference time per unit of measured time
        self._node = None        # the ring, built when first needed
        self._rep_s = 0.0
        self.samples: list[float] = []
        self.stream_samples: list[float] = []
        self._stream_buffer = None
        self._last_stream_s = 0.0

    def chase(self) -> int:
        """Walk the next stretch of the ring; returns a checksum."""
        node, acc = self._node, 0
        for _ in range(_CHASE_STEPS):
            acc += node.value
            node.load = node.load * 0.5 + 1.0
            node = node.next
        self._node = node
        return acc

    def stream(self) -> float:
        """Vectorised numpy work over an array larger than the caches.

        The array is allocated once and kept: freeing 8 MiB blocks moves
        the allocator's thresholds and made the program's peak RSS vary.
        """
        if self._stream_buffer is None:
            self._stream_buffer = np.empty(_STREAM_SIZE)
        values = self._stream_buffer
        np.random.default_rng(7).standard_normal(out=values)
        values *= 0.15
        np.abs(values, out=values)
        values *= 1.3
        values += 0.5
        return float(np.clip(values, 0.0, None, out=values).sum())

    def _rep(self) -> tuple[float, float]:
        """(wall time of one rep, its slowdown)."""
        t_tight = _timed(tight)
        t_chase = _timed(self.chase)
        slowdown = (t_tight / TIGHT_NOMINAL_S * t_chase / CHASE_NOMINAL_S) ** 0.5
        return t_tight + t_chase, slowdown

    @property
    def rep_s(self) -> float:
        """Wall time of the last rep of ``tight`` and ``chase``.

        The ring is built on first use, after set-up, so that its memory
        does not add to the set-up's peak in peak_rss_mb.
        """
        if self._node is None:
            self._node = _ring()
            self._rep_s = self._rep()[0]
        return self._rep_s

    def slowdown(self, measured_s: float) -> float:
        """Run the reference for ``share`` of ``measured_s``; median slowdown."""
        reps = max(1, round(self.share * measured_s / self.rep_s))
        timed = [self._rep() for _ in range(reps)]
        self._rep_s = statistics.median(t for t, _ in timed)
        slowdowns = [s for _, s in timed]
        self.samples += slowdowns
        return statistics.median(slowdowns)

    def stream_slowdown(self, measured_s: float) -> float:
        """Run ``stream`` for ``share`` of ``measured_s``; median time / nominal."""
        if not self._last_stream_s:
            self._last_stream_s = _timed(self.stream)
        reps = max(1, round(self.share * measured_s / self._last_stream_s))
        slowdowns = [_timed(self.stream) / STREAM_NOMINAL_S for _ in range(reps)]
        self._last_stream_s = statistics.median(slowdowns) * STREAM_NOMINAL_S
        self.stream_samples += slowdowns
        return statistics.median(slowdowns)


class Segments:
    """Wall and host-scaled time of one chunk, split where the reference ran.

    ``cut`` ends the current segment and runs the reference after it, unless
    the segment is too short to pay for one rep; ``cut(final=True)`` always
    does. Each segment is scaled by the reference that follows it, and the
    reference's own time is left out of both sums.
    """

    def __init__(self, reference: Reference):
        self.reference = reference
        self.wall_s = 0.0
        self.host_s = 0.0
        self._mark = time.perf_counter()

    def cut(self, final: bool = False) -> None:
        segment = time.perf_counter() - self._mark
        ref = self.reference
        if not final and segment * ref.share < ref.rep_s:
            return
        self.wall_s += segment
        self.host_s += segment / ref.slowdown(segment)
        self._mark = time.perf_counter()
