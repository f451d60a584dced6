"""Telecom activity traces: CDR ingestion, synthetic generation, CSV export, splits.

The simulation consumes per-cell internet-activity volumes aggregated into
fixed-duration steps (default 300 s). Traces come from a CDR-style
tab-separated file, which ``load_cdr_trace`` reads into a ``SteppedTrace``
in one pass, from the synthetic diurnal generator, or from a trace CSV.
"""

import logging
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

from .artifacts import write_csv

logger = logging.getLogger(__name__)

DEFAULT_STEP_DURATION = 300
# 2013-11-01 00:00 local time at UTC+1; step 0 of a default trace starts at
# local midnight so day-period features line up with wall-clock periods.
DEFAULT_ORIGIN_MS = 1_383_260_400_000

# CDR layout: square_id, time_interval_ms, country_code, sms_in, sms_out,
# call_in, call_out, internet_traffic. Only columns 0, 1 and 7 are consumed.
CDR_COLUMNS = 8
_CDR_INTERNET_COL = 7
_NOISE_BLOCK_FLOATS = 1 << 16  # floats per row block of synthetic noise (512 KiB)
PEAK_HOUR = 17.0  # local hour of the synthetic diurnal peak


class TraceFormatError(ValueError):
    """Raised when an input file does not follow the expected layout."""


def _check_distinct(cell_ids) -> None:
    repeated = sorted(c for c, n in Counter(cell_ids).items() if n > 1)
    if repeated:
        raise ValueError(f"repeated cell ids: {repeated}")


@dataclass
class SteppedTrace:
    """Per-cell activity aggregated into fixed steps.

    ``steps`` has one row per step (time order) and one column per cell,
    aligned with ``cell_ids``. Missing intervals are explicit zeros. Treat
    ``steps`` as fixed once built: ``step_totals`` sums it only once, and
    the traces of a ``split_train_test`` hold row views of their source's.
    """

    cell_ids: list[int]
    steps: np.ndarray
    step_duration: int = DEFAULT_STEP_DURATION
    origin_time_ms: int = DEFAULT_ORIGIN_MS
    _step_totals: np.ndarray | None = field(default=None, init=False,
                                            repr=False, compare=False)

    def __post_init__(self):
        self.steps = np.asarray(self.steps, dtype=float)
        if self.steps.ndim != 2:
            raise ValueError("steps must be a 2-D matrix (n_steps, n_cells)")
        if self.steps.shape[1] != len(self.cell_ids):
            raise ValueError("column count must match cell_ids")
        _check_distinct(self.cell_ids)
        # min is nan if any value is; two reductions, no temporary array
        if self.steps.size and not (self.steps.min() >= 0 and self.steps.max() < math.inf):
            raise ValueError("activity values must be finite and nonnegative")

    @classmethod
    def _of_checked(cls, cell_ids: list[int], steps: np.ndarray, step_duration: int,
                    origin_time_ms: int) -> "SteppedTrace":
        """A trace of rows or columns of a built trace's float matrix, whose
        values ``__post_init__`` has checked: built without its scan."""
        trace = cls.__new__(cls)
        trace.cell_ids, trace.steps = cell_ids, steps
        trace.step_duration, trace.origin_time_ms = step_duration, origin_time_ms
        trace._step_totals = None
        return trace

    @property
    def n_steps(self) -> int:
        return self.steps.shape[0]

    @property
    def n_cells(self) -> int:
        return self.steps.shape[1]

    def step_totals(self) -> np.ndarray:
        """Total activity per step, summed over all cells (read-only)."""
        if self._step_totals is None:
            self._step_totals = self.steps.sum(axis=1)
            self._step_totals.flags.writeable = False
        return self._step_totals

    def select_cells(self, cell_ids: list[int]) -> "SteppedTrace":
        """Trace restricted to the given cells of this trace, in the given order."""
        _check_distinct(cell_ids)
        index = {c: i for i, c in enumerate(self.cell_ids)}
        cols = [index[c] for c in cell_ids]
        return SteppedTrace._of_checked(list(cell_ids), self.steps[:, cols],  # a copy
                                        self.step_duration, self.origin_time_ms)


def load_cdr_trace(path, step_duration: int,
                   cell_filter: set[int] | None = None) -> SteppedTrace:
    """Load the internet activity of a tab-separated CDR file as a stepped trace.

    Rows with an empty internet column carry no internet measurement and are
    ignored. Malformed rows (wrong column count, unparseable fields, an
    activity that is negative or not finite) are counted and skipped; more
    than 10% malformed rows aborts with TraceFormatError, since that signals
    the wrong file format. Rows of cells outside ``cell_filter`` are dropped.

    A row lands in the step of ``step_duration`` seconds whose window
    contains its timestamp; each (step, cell) sums its rows in file order
    from 0.0. The trace's cells are the sorted ids of the kept rows, and its
    steps run from the first occupied step to the last, with explicit zeros
    between.
    """
    step_ms = step_duration * 1000
    sums = defaultdict(float)  # (timestamp // step_ms, cell) -> activity from 0.0
    malformed = 0
    total = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            total += 1
            fields = line.split("\t")
            if len(fields) != CDR_COLUMNS:
                malformed += 1
                continue
            internet = fields[_CDR_INTERNET_COL].strip()
            try:
                cell_id = int(fields[0])
                timestamp = int(fields[1])
                activity = float(internet) if internet else None
            except ValueError:
                malformed += 1
                continue
            if activity is None:
                continue
            if not 0 <= activity < math.inf:  # nan fails both
                malformed += 1
                continue
            if cell_filter is not None and cell_id not in cell_filter:
                continue
            sums[timestamp // step_ms, cell_id] += activity
    if total > 0 and malformed / total > 0.10:
        raise TraceFormatError(
            f"{malformed}/{total} malformed rows in {path}; not a CDR file?")
    if malformed:
        logger.warning("skipped %d malformed rows out of %d in %s", malformed, total, path)
    if not sums:
        raise TraceFormatError(f"no usable records in {path}")
    cells = sorted({cell for _, cell in sums})
    col = {c: j for j, c in enumerate(cells)}
    first = min(step for step, _ in sums)
    steps = np.zeros((max(step for step, _ in sums) - first + 1, len(cells)))
    for (step, cell), activity in sums.items():
        steps[step - first, col[cell]] = activity
    return SteppedTrace(cells, steps, step_duration, first * step_ms)


def split_train_test(trace: SteppedTrace, fraction: float
                     ) -> tuple[SteppedTrace, SteppedTrace]:
    """Chronological split: first floor(fraction*rows) rows train, rest test.

    Returns (train, test); both hold row views of ``trace.steps``, not copies.
    """
    n_steps = trace.n_steps
    n_train = math.floor(fraction * n_steps)
    if not 0 < n_train < n_steps:
        raise ValueError(f"splits the trace's {n_steps} rows into {n_train} train and "
                         f"{n_steps - n_train} test rows; both splits must be non-empty")
    train = SteppedTrace._of_checked(list(trace.cell_ids), trace.steps[:n_train],
                                     trace.step_duration, trace.origin_time_ms)
    test = SteppedTrace._of_checked(list(trace.cell_ids), trace.steps[n_train:],
                                    trace.step_duration,
                                    trace.origin_time_ms + n_train * trace.step_duration * 1000)
    return train, test


def generate_synthetic_trace(n_cells: int, n_steps: int, seed: int,
                             amplitude: float = 0.6, noise: float = 0.15,
                             mean_step_total: float = 400.0,
                             step_duration: int = DEFAULT_STEP_DURATION,
                             origin_time_ms: int = DEFAULT_ORIGIN_MS) -> SteppedTrace:
    """Deterministic synthetic trace: per-cell scale x diurnal sinusoid + noise.

    Cells are numbered from 1 with lognormal(0, 0.5) scales. ``amplitude``
    scales a 24-hour sinusoid peaking at ``PEAK_HOUR`` local time (0 gives
    constant columns); ``noise`` is the relative level of nonnegative noise.
    The matrix is rescaled so the mean total per step is ``mean_step_total``
    (when the raw signal is nonzero). It is built in place, the noise drawn
    and added in row blocks of about 64 Ki floats: one trace-sized array.
    """
    if n_cells < 1 or n_steps < 1:
        raise ValueError("n_cells and n_steps must be >= 1")
    rng = np.random.default_rng(seed)
    scales = np.exp(rng.normal(0.0, 0.5, size=n_cells))
    hours = (origin_time_ms / 3_600_000.0) + np.arange(n_steps) * (step_duration / 3600.0)
    diurnal = 1.0 + amplitude * np.sin(2 * np.pi * (hours - PEAK_HOUR + 6.0) / 24.0)
    base = np.clip(diurnal, 0.0, None)[:, None] * scales  # np.outer, bit for bit
    if noise > 0:
        # Generator.normal fills its output in C order, so row blocks draw
        # the numbers of one (n_steps, n_cells) draw without holding it
        rows = max(1, _NOISE_BLOCK_FLOATS // n_cells)
        for start in range(0, n_steps, rows):
            block = base[start:start + rows]
            draw = np.abs(rng.normal(0.0, noise, size=block.shape))
            draw *= scales
            block += draw
    np.clip(base, 0.0, None, out=base)
    mean_total = base.sum(axis=1).mean()
    if mean_total > 0:
        base *= mean_step_total / mean_total
    return SteppedTrace(list(range(1, n_cells + 1)), base, step_duration, origin_time_ms)


def write_trace_csv(trace: SteppedTrace, path, comments: list[str] | None = None) -> None:
    """Export a trace as CSV with a metadata comment line for round-trips."""
    meta = (f"origin_time_ms={trace.origin_time_ms} "
            f"step_duration_s={trace.step_duration}")
    write_csv(path, ["step_index"] + [f"cell_{c}" for c in trace.cell_ids],
              ([i] + [repr(float(v)) for v in trace.steps[i]]
               for i in range(trace.n_steps)),
              [*(comments or ()), meta])


def read_trace_csv(path) -> SteppedTrace:
    """Load a trace written by write_trace_csv."""
    origin = DEFAULT_ORIGIN_MS
    duration = DEFAULT_STEP_DURATION
    rows = []
    header = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for token in line[1:].split():
                    if token.startswith("origin_time_ms="):
                        origin = int(token.split("=", 1)[1])
                    elif token.startswith("step_duration_s="):
                        duration = int(token.split("=", 1)[1])
                continue
            if header is None:
                header = line.split(",")
                continue
            rows.append(line)
    if header is None:
        raise TraceFormatError(f"no header row in {path}")
    if header[0] != "step_index" or not all(h.startswith("cell_") for h in header[1:]):
        raise TraceFormatError(f"unexpected trace header in {path}")
    if not rows:
        raise TraceFormatError(f"no data rows in {path}")
    cells = [int(h[len("cell_"):]) for h in header[1:]]
    # comments=None: a '#' inside a data row is an error, not a comment
    values = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    return SteppedTrace(cells, values[:, 1:], duration, origin)
