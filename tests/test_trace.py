import inspect
import logging
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sfcsim import trace as trace_mod
from sfcsim.config import TraceConfig
from sfcsim.trace import (SteppedTrace, TraceFormatError,
                          generate_synthetic_trace, load_cdr_trace,
                          read_trace_csv, split_train_test, write_trace_csv)

from helpers import cdr_trace_oracle, synthetic_trace_oracle

T0 = 1383260400000  # 2013-11-01 00:00 at UTC+1, on the 300-s and 600-s step grids


def write_cdr(path, rows):
    """Round-trip writer for the tab-separated CDR layout used by the loader."""
    with open(path, "w", encoding="utf-8") as fh:
        for cell, ts, internet in rows:
            internet_s = "" if internet is None else str(internet)
            fh.write(f"{cell}\t{ts}\t39\t\t\t\t\t{internet_s}\n")


def malformed_warnings(caplog) -> list[str]:
    return [r.getMessage() for r in caplog.records
            if r.name == "sfcsim.trace" and r.levelno == logging.WARNING]


# ----------------------------------------------------------------- CDR loader

def test_load_cdr_single_row_with_filter(tmp_path, caplog):
    path = tmp_path / "cdr.txt"
    write_cdr(path, [(42, T0, 12.5)])
    trace = load_cdr_trace(path, 300, cell_filter={42})
    assert trace.cell_ids == [42]
    assert trace.steps.tolist() == [[12.5]]
    assert trace.origin_time_ms == T0 and trace.step_duration == 300
    assert malformed_warnings(caplog) == []


def test_load_cdr_empty_file(tmp_path):
    path = tmp_path / "cdr.txt"
    path.write_text("")
    with pytest.raises(TraceFormatError, match="no usable records in"):
        load_cdr_trace(path, 300)


def test_load_cdr_filter_excludes_other_cells(tmp_path):
    path = tmp_path / "cdr.txt"
    write_cdr(path, [(7, T0, 3.0), (42, T0, 1.0)])
    trace = load_cdr_trace(path, 300, cell_filter={42})
    assert trace.cell_ids == [42]
    assert trace.steps.tolist() == [[1.0]]


def test_load_cdr_round_trip(tmp_path):
    rows = [(c, T0 + 600_000 * i, float(i) + 0.25)
            for i, c in enumerate([3, 1, 4, 1, 5])]
    path = tmp_path / "cdr.txt"
    write_cdr(path, rows)
    trace = load_cdr_trace(path, 600)
    assert trace.cell_ids == [1, 3, 4, 5]
    expected = np.zeros((5, 4))
    for i, (cell, _, activity) in enumerate(rows):
        expected[i, trace.cell_ids.index(cell)] = activity
    assert np.array_equal(trace.steps, expected)


def test_load_cdr_empty_internet_field_is_not_malformed(tmp_path, caplog):
    path = tmp_path / "cdr.txt"
    write_cdr(path, [(42, T0, None), (42, T0 + 600_000, 2.0)])
    trace = load_cdr_trace(path, 300)
    assert trace.steps.tolist() == [[2.0]]
    assert trace.origin_time_ms == T0 + 600_000
    assert malformed_warnings(caplog) == []


def test_load_cdr_counts_malformed_rows(tmp_path, caplog):
    path = tmp_path / "cdr.txt"
    with open(path, "w") as fh:
        for i in range(20):
            fh.write(f"{i}\t{T0}\t39\t\t\t\t\t1.0\n")
        fh.write("not\ta\tcdr\trow\n")
    trace = load_cdr_trace(path, 300)
    assert malformed_warnings(caplog) == [f"skipped 1 malformed rows out of 21 in {path}"]
    assert trace.cell_ids == list(range(20))
    assert trace.steps.tolist() == [[1.0] * 20]


def test_load_cdr_counts_non_finite_activity_as_malformed(tmp_path, caplog):
    path = tmp_path / "cdr.txt"
    rows = [(i, T0, 1.0) for i in range(60)]
    rows[3:3] = [(90, T0, "nan"), (91, T0, "inf"), (92, T0, "-inf"),
                 (93, T0, "NaN"), (94, T0, "-1.5")]
    write_cdr(path, rows)
    trace = load_cdr_trace(path, 300)
    assert malformed_warnings(caplog) == [f"skipped 5 malformed rows out of 65 in {path}"]
    assert trace.cell_ids == list(range(60))


def test_load_cdr_mostly_malformed_is_fatal(tmp_path):
    path = tmp_path / "cdr.txt"
    path.write_text("garbage line\n" * 10 + "42\t1\t39\t\t\t\t\t1.0\n")
    with pytest.raises(TraceFormatError, match="10/11 malformed rows in"):
        load_cdr_trace(path, 300)


def test_load_cdr_unreadable_file_raises(tmp_path):
    with pytest.raises(OSError):
        load_cdr_trace(tmp_path / "missing.txt", 300)


def test_aggregate_sums_records_in_same_window(tmp_path):
    path = tmp_path / "cdr.txt"
    write_cdr(path, [(1, 100_000, 3.0), (1, 200_000, 4.0)])
    trace = load_cdr_trace(path, 300)
    assert trace.steps.shape == (1, 1)
    assert trace.steps[0, 0] == 7.0
    assert trace.origin_time_ms == 0


def test_aggregate_62_days_gives_8928_native_steps(tmp_path):
    # 62 days at the dataset's native 10-minute interval: 62 * 144 = 8,928
    # events, the step count the experiment runs on.
    day_ms = 86_400_000
    path = tmp_path / "cdr.txt"
    write_cdr(path, [(1, t, 1.0) for t in range(0, 62 * day_ms, 600_000)])
    trace = load_cdr_trace(path, 600)
    assert trace.n_steps == 8928
    assert np.all(trace.steps == 1.0)


def test_aggregate_10min_records_at_5min_steps_alternate_with_zeros(tmp_path):
    # The steps end at the last occupied one: 144 rows span 287 five-minute steps.
    day_ms = 86_400_000
    path = tmp_path / "cdr.txt"
    write_cdr(path, [(1, t, 1.0) for t in range(0, day_ms, 600_000)])
    trace = load_cdr_trace(path, 300)
    assert trace.n_steps == 287
    assert np.all(trace.steps[::2, 0] == 1.0)
    assert np.all(trace.steps[1::2, 0] == 0.0)


def test_aggregate_conserves_mass(tmp_path):
    rng = np.random.default_rng(3)
    rows = [(int(rng.choice([1, 2, 3])), int(rng.integers(0, 3_600_000)),
             float(rng.uniform(0, 5))) for _ in range(500)]
    path = tmp_path / "cdr.txt"
    write_cdr(path, rows)
    trace = load_cdr_trace(path, 300)
    assert trace.cell_ids == [1, 2, 3]
    assert trace.steps.sum() == pytest.approx(sum(r[2] for r in rows), abs=1e-9)


# Activities whose bucket sums depend on the order and start of the sum:
# decimal fractions that binary floats cannot hold, a value that absorbs
# small ones, and signed zeros (0.0 + -0.0 is 0.0).
INEXACT = [0.1, 0.2, 0.3, 0.7, 1.1, 2.675, 1e16, 3.3, 0.0, -0.0]
CELLS = [1, 2, 3, 5, 8]
MALFORMED = ["1\t0\t39", "x\t{ts}\t39\t\t\t\t\t1.0", "1\t{ts}.5\t39\t\t\t\t\t1.0",
             "1\t{ts}\t39\t\t\t\t\tabc", "1\t{ts}\t39\t\t\t\t\t-1.5",
             "1\t{ts}\t39\t\t\t\t\tnan", "1\t{ts}\t39\t\t\t\t\tinf",
             "1\t{ts}\t39\t\t\t\t\t-inf", "garbage"]


@st.composite
def cdr_files(draw):
    """(lines, step_duration, cell_filter) of a CDR file that mixes usable
    rows (on and off the step grid, several to a bucket), rows with no
    internet value, blank lines and up to about 15% malformed rows."""
    step = draw(st.sampled_from([7, 300, 600, 3600]))
    offsets = st.integers(0, 4 * 3600 * 1000)
    activities = st.one_of(st.sampled_from(INEXACT),
                           st.floats(0, 1e6, allow_nan=False, allow_infinity=False))
    lines = []
    for _ in range(draw(st.integers(0, 40))):
        cell, ts = draw(st.sampled_from(CELLS)), T0 + draw(offsets)
        # a bucket of several rows in one step of one cell
        for activity in draw(st.lists(activities, min_size=1, max_size=4)):
            lines.append(f"{cell}\t{ts}\t39\t1\t\t\t\t{activity!r}")
    for _ in range(draw(st.integers(0, 4))):
        lines.append(f"{draw(st.sampled_from(CELLS))}\t{T0 + draw(offsets)}\t39\t\t\t\t\t"
                     + draw(st.sampled_from(["", " "])))
    n_bad = draw(st.integers(0, max(1, len(lines) * 15 // 85)))
    lines += [draw(st.sampled_from(MALFORMED)).format(ts=T0 + draw(offsets))
              for _ in range(n_bad)]
    lines += [""] * draw(st.integers(0, 3))
    lines = draw(st.permutations(lines))
    cell_filter = draw(st.sampled_from([None, {1, 5}, {2, 3, 8}, {100, 101}]))
    return lines, step, cell_filter


@settings(max_examples=200, deadline=None)
@given(cdr_files(), st.sampled_from(["\n", "\r\n"]))
def test_load_cdr_trace_matches_three_stage_oracle(tmp_path_factory, case, newline):
    lines, step, cell_filter = case
    path = tmp_path_factory.getbasetemp() / "cdr_property.txt"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(line + newline for line in lines))
    try:
        expected = cdr_trace_oracle(path, step, cell_filter)
    except TraceFormatError as exc:
        with pytest.raises(TraceFormatError, match=re.escape(str(exc))):
            load_cdr_trace(path, step, cell_filter)
        return
    trace = load_cdr_trace(path, step, cell_filter)
    assert trace.cell_ids == expected.cell_ids
    assert trace.origin_time_ms == expected.origin_time_ms
    assert trace.step_duration == expected.step_duration
    assert trace.steps.tobytes() == expected.steps.tobytes()


# ----------------------------------------------------------------- stepped trace

@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0, -0.5e-300])
def test_stepped_trace_rejects_negative_or_non_finite_activity(bad):
    with pytest.raises(ValueError, match="activity values must be finite and nonnegative"):
        SteppedTrace([1, 2], [[1.0, bad], [2.0, 3.0]])
    with pytest.raises(ValueError, match="finite and nonnegative"):
        SteppedTrace([1, 2], [[1.0, 2.0], [bad, 3.0]])


def test_stepped_trace_accepts_zero_and_empty_matrices():
    assert SteppedTrace([1, 2], [[0.0, -0.0], [2.0, 3.0]]).step_totals().tolist() == [0.0, 5.0]
    assert SteppedTrace([1, 2], np.zeros((0, 2))).n_steps == 0


# ----------------------------------------------------------------------- split

def test_split_matches_reference_counts():
    trace = SteppedTrace([1], np.zeros((8928, 1)))
    train, test = split_train_test(trace, 0.9)
    assert train.n_steps == 8035
    assert test.n_steps == 893


@pytest.mark.parametrize("rows,fraction,expect", [(10, 0.5, (5, 5)), (2, 0.9, (1, 1))])
def test_split_floor_semantics(rows, fraction, expect):
    trace = SteppedTrace([1], np.arange(rows, dtype=float)[:, None])
    train, test = split_train_test(trace, fraction)
    assert (train.n_steps, test.n_steps) == expect


def test_split_rejects_tiny_traces():
    with pytest.raises(ValueError):
        split_train_test(SteppedTrace([1], np.zeros((1, 1))), 0.9)


@pytest.mark.parametrize("rows,fraction,n_train", [
    (1, 0.9, 0), (5, 0.1, 0), (9, 0.1, 0), (0, 0.5, 0)])
def test_split_rejects_an_empty_half(rows, fraction, n_train):
    trace = SteppedTrace([1], np.zeros((rows, 1)))
    message = (f"splits the trace's {rows} rows into {n_train} train and "
               f"{rows - n_train} test rows; both splits must be non-empty")
    with pytest.raises(ValueError, match=re.escape(message)):
        split_train_test(trace, fraction)


def test_split_concatenation_reproduces_original():
    rng = np.random.default_rng(5)
    trace = SteppedTrace([1, 2], rng.uniform(0, 9, size=(37, 2)))
    train, test = split_train_test(trace, 0.73)
    rebuilt = np.vstack([train.steps, test.steps])
    assert np.array_equal(rebuilt, trace.steps)
    assert test.origin_time_ms == (
        trace.origin_time_ms + train.n_steps * trace.step_duration * 1000)


def test_split_halves_are_row_views():
    trace = generate_synthetic_trace(3, 20, seed=4)
    train, test = split_train_test(trace, 0.5)
    assert np.shares_memory(train.steps, trace.steps)
    assert np.shares_memory(test.steps, trace.steps)


def test_split_and_select_cells_do_not_rescan_a_checked_trace():
    # a value written after the check stays: the halves and the selection
    # are built from the checked matrix without scanning it again
    trace = generate_synthetic_trace(3, 20, seed=4)
    trace.steps[0, 1] = np.nan
    train, test = split_train_test(trace, 0.5)
    assert np.isnan(train.steps[0, 1]) and not np.isnan(test.steps).any()
    assert test.step_totals().tolist() == trace.steps[10:].sum(axis=1).tolist()
    assert np.isnan(trace.select_cells([2]).steps[0, 0])


# ------------------------------------------------------------------ synthetic

def test_synthetic_is_bitwise_reproducible():
    a = generate_synthetic_trace(10, 300, seed=12)
    b = generate_synthetic_trace(10, 300, seed=12)
    assert np.array_equal(a.steps, b.steps)
    assert a.cell_ids == b.cell_ids


def test_synthetic_zero_amplitude_gives_constant_columns():
    trace = generate_synthetic_trace(5, 100, seed=9, amplitude=0.0, noise=0.0)
    assert np.allclose(trace.steps, trace.steps[0])
    # distinct per-cell base levels
    assert len(np.unique(np.round(trace.steps[0], 9))) > 1


def test_synthetic_defaults_match_trace_config():
    params = inspect.signature(generate_synthetic_trace).parameters
    for name in ("amplitude", "noise", "mean_step_total", "step_duration",
                 "origin_time_ms"):
        assert params[name].default == getattr(TraceConfig(), name), name


def test_synthetic_calibrates_mean_step_total():
    trace = generate_synthetic_trace(276, 8928, seed=1)
    assert trace.step_totals().mean() == pytest.approx(400.0, rel=1e-9)
    assert np.all(trace.steps >= 0)


BLOCK_ROWS = trace_mod._NOISE_BLOCK_FLOATS // 256  # noise rows per block at 256 cells


@pytest.mark.parametrize("n_cells,n_steps,profile,seed", [
    pytest.param(256, BLOCK_ROWS - 1, {}, 3, id="below_one_block"),
    pytest.param(256, BLOCK_ROWS, {}, 4, id="one_block"),
    pytest.param(256, BLOCK_ROWS + 1, {}, 5, id="one_past_a_block"),
    pytest.param(trace_mod._NOISE_BLOCK_FLOATS + 3, 3, {}, 6, id="row_per_block"),
    pytest.param(7, 1, {}, 7, id="single_row"),
    pytest.param(40, 500, {"noise": 0.0}, 8, id="noise_0"),
    pytest.param(40, 500, {"amplitude": 1.5}, 9, id="diurnal_clipped"),
    pytest.param(40, 500, {"amplitude": 1.5, "noise": 0.0}, 9,
                 id="diurnal_clipped_noise_0"),
    pytest.param(276, 8928, {}, 10, id="reference"),
])
def test_synthetic_matches_one_shot_oracle(n_cells, n_steps, profile, seed):
    trace = generate_synthetic_trace(n_cells, n_steps, seed, **profile)
    oracle = synthetic_trace_oracle(n_cells, n_steps, seed, **profile)
    assert trace.steps.tobytes() == oracle.steps.tobytes()
    assert trace.steps.shape == oracle.steps.shape == (n_steps, n_cells)
    assert (trace.cell_ids, trace.step_duration, trace.origin_time_ms) == (
        oracle.cell_ids, oracle.step_duration, oracle.origin_time_ms)


def test_synthetic_clips_the_diurnal_factor_at_zero():
    # amplitude > 1 takes the sinusoid below zero for part of each day
    trace = generate_synthetic_trace(40, 500, 9, amplitude=1.5, noise=0.0)
    silent = (trace.steps == 0).all(axis=1)
    assert silent.any() and not silent.all()


def test_synthetic_peak_memory_is_one_trace():
    tracemalloc.start()
    try:
        trace = generate_synthetic_trace(276, 8928, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.15 * trace.steps.nbytes


def test_synthetic_rejects_empty_dimensions():
    with pytest.raises(ValueError):
        generate_synthetic_trace(0, 10, seed=1)


# ------------------------------------------------------------------ csv export

def test_trace_csv_round_trip(tmp_path):
    trace = generate_synthetic_trace(4, 50, seed=2)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path, comments=["config_hash=abc seed=1"])
    loaded = read_trace_csv(path)
    assert loaded.cell_ids == trace.cell_ids
    assert loaded.step_duration == trace.step_duration
    assert loaded.origin_time_ms == trace.origin_time_ms
    assert np.array_equal(loaded.steps, trace.steps)
