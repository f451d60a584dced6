"""Telecom activity traces: CDR ingestion, 5-minute step aggregation, splits.

The simulation consumes per-cell internet-activity volumes aggregated into
fixed-duration steps (default 300 s). Traces come either from a CDR-style
tab-separated file or from the synthetic diurnal generator.
"""

import logging
import math
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


class TraceFormatError(ValueError):
    """Raised when an input file does not follow the expected layout."""


@dataclass(frozen=True)
class ActivityRecord:
    """One internet-activity measurement for a cell and time interval."""

    cell_id: int
    timestamp_ms: int
    internet_activity: float


@dataclass
class SteppedTrace:
    """Per-cell activity aggregated into fixed steps.

    ``steps`` has one row per step (time order) and one column per cell,
    aligned with ``cell_ids``. Missing intervals are explicit zeros. Treat
    ``steps`` as fixed once built: ``step_totals`` sums it only once.
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
        # min is nan if any value is; two reductions, no temporary array
        if self.steps.size and not (self.steps.min() >= 0 and self.steps.max() < math.inf):
            raise ValueError("activity values must be finite and nonnegative")

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
        """Trace restricted to the given cells, in the given order."""
        index = {c: i for i, c in enumerate(self.cell_ids)}
        missing = [c for c in cell_ids if c not in index]
        if missing:
            raise KeyError(f"cells not in trace: {missing[:5]}")
        cols = [index[c] for c in cell_ids]
        return SteppedTrace(list(cell_ids), self.steps[:, cols].copy(),
                            self.step_duration, self.origin_time_ms)


@dataclass
class TraceSplit:
    """Chronological train/test split of a stepped trace."""

    train: SteppedTrace
    test: SteppedTrace
    split_fraction: float


@dataclass
class CdrLoadResult:
    """Records parsed from a CDR file plus load statistics."""

    records: list[ActivityRecord]
    malformed_rows: int = 0
    total_rows: int = 0


@dataclass
class DiurnalProfile:
    """Shape parameters for the synthetic trace generator.

    ``mean_step_total`` calibrates the average total activity per step over
    all cells; ``amplitude`` scales the 24-hour sinusoid (0 gives constant
    columns); ``noise`` is the relative level of nonnegative per-step noise.
    """

    amplitude: float = 0.6
    noise: float = 0.15
    mean_step_total: float = 400.0
    peak_hour: float = 17.0
    cell_scale_spread: float = 1.0  # per-cell scales drawn from lognormal(0, spread/2)
    first_cell_id: int = 1


def load_cdr_file(path, cell_filter: set[int] | None = None) -> CdrLoadResult:
    """Parse internet-activity records from a tab-separated CDR file.

    Rows with an empty internet column carry no internet measurement and are
    ignored. Malformed rows (wrong column count, unparseable fields, an
    activity that is negative or not finite) are counted and skipped; more
    than 10% malformed rows aborts with TraceFormatError, since that signals
    the wrong file format.
    """
    records: list[ActivityRecord] = []
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
            if activity is None or not 0 <= activity < math.inf:  # nan fails both
                if activity is not None:
                    malformed += 1
                continue
            if cell_filter is not None and cell_id not in cell_filter:
                continue
            records.append(ActivityRecord(cell_id, timestamp, activity))
    if total > 0 and malformed / total > 0.10:
        raise TraceFormatError(
            f"{malformed}/{total} malformed rows in {path}; not a CDR file?")
    if malformed:
        logger.warning("skipped %d malformed rows out of %d in %s", malformed, total, path)
    return CdrLoadResult(records, malformed, total)


def aggregate_steps(records: list[ActivityRecord], cell_ids: list[int],
                    step_duration: int, horizon: tuple[int, int]) -> SteppedTrace:
    """Sum record activities into fixed steps per cell over the horizon.

    ``horizon`` is (start_ms, end_ms); its length must be a whole number of
    steps. A record lands in the step whose window [start, start+duration)
    contains its timestamp. Records outside the horizon or for untracked
    cells are skipped (counted in the log).
    """
    if not cell_ids:
        raise ValueError("cell_ids must be non-empty")
    start_ms, end_ms = horizon
    span_ms = end_ms - start_ms
    step_ms = step_duration * 1000
    if span_ms <= 0 or span_ms % step_ms != 0:
        raise ValueError("horizon length must be a positive multiple of step_duration")
    n_steps = span_ms // step_ms
    col = {c: i for i, c in enumerate(cell_ids)}
    steps = np.zeros((n_steps, len(cell_ids)))
    out_of_horizon = 0
    untracked = 0
    for rec in records:
        if not start_ms <= rec.timestamp_ms < end_ms:
            out_of_horizon += 1
            continue
        j = col.get(rec.cell_id)
        if j is None:
            untracked += 1
            continue
        steps[(rec.timestamp_ms - start_ms) // step_ms, j] += rec.internet_activity
    if out_of_horizon or untracked:
        logger.info("aggregate_steps skipped %d out-of-horizon and %d untracked records",
                    out_of_horizon, untracked)
    return SteppedTrace(list(cell_ids), steps, step_duration, start_ms)


def split_train_test(trace: SteppedTrace, fraction: float) -> TraceSplit:
    """Chronological split: first floor(fraction*rows) rows train, rest test."""
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be in (0, 1)")
    if trace.n_steps < 2:
        raise ValueError("need at least 2 rows to split")
    n_train = math.floor(fraction * trace.n_steps)
    train = SteppedTrace(list(trace.cell_ids), trace.steps[:n_train].copy(),
                         trace.step_duration, trace.origin_time_ms)
    test = SteppedTrace(list(trace.cell_ids), trace.steps[n_train:].copy(),
                        trace.step_duration,
                        trace.origin_time_ms + n_train * trace.step_duration * 1000)
    return TraceSplit(train, test, fraction)


def generate_synthetic_trace(n_cells: int, n_steps: int, seed: int,
                             profile: DiurnalProfile | None = None,
                             step_duration: int = DEFAULT_STEP_DURATION,
                             origin_time_ms: int = DEFAULT_ORIGIN_MS) -> SteppedTrace:
    """Deterministic synthetic trace: per-cell scale x diurnal sinusoid + noise.

    The matrix is rescaled so the mean total activity per step equals
    ``profile.mean_step_total`` exactly (when the raw signal is nonzero).
    """
    if n_cells < 1 or n_steps < 1:
        raise ValueError("n_cells and n_steps must be >= 1")
    profile = profile or DiurnalProfile()
    rng = np.random.default_rng(seed)
    scales = np.exp(rng.normal(0.0, profile.cell_scale_spread / 2, size=n_cells))
    hours = (origin_time_ms / 3_600_000.0) + np.arange(n_steps) * (step_duration / 3600.0)
    diurnal = 1.0 + profile.amplitude * np.sin(
        2 * np.pi * (hours - profile.peak_hour + 6.0) / 24.0)
    base = np.outer(np.clip(diurnal, 0.0, None), scales)
    if profile.noise > 0:
        base = base + np.abs(rng.normal(0.0, profile.noise, size=base.shape)) * scales
    base = np.clip(base, 0.0, None)
    mean_total = base.sum(axis=1).mean()
    if mean_total > 0:
        base *= profile.mean_step_total / mean_total
    cells = list(range(profile.first_cell_id, profile.first_cell_id + n_cells))
    return SteppedTrace(cells, base, step_duration, origin_time_ms)


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
            fields = line.split(",")
            if header is None:
                header = fields
                continue
            rows.append([float(v) for v in fields[1:]])
    if header is None:
        raise TraceFormatError(f"no header row in {path}")
    if header[0] != "step_index" or not all(h.startswith("cell_") for h in header[1:]):
        raise TraceFormatError(f"unexpected trace header in {path}")
    cells = [int(h[len("cell_"):]) for h in header[1:]]
    return SteppedTrace(cells, np.array(rows, dtype=float), duration, origin)
