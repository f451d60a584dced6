import numpy as np
import pytest

from sfcsim.trace import (ActivityRecord, DiurnalProfile, SteppedTrace,
                          TraceFormatError, aggregate_steps,
                          generate_synthetic_trace, load_cdr_file,
                          read_trace_csv, split_train_test, write_trace_csv)


def write_cdr(path, rows):
    """Round-trip writer for the tab-separated CDR layout used by the loader."""
    with open(path, "w", encoding="utf-8") as fh:
        for cell, ts, internet in rows:
            internet_s = "" if internet is None else str(internet)
            fh.write(f"{cell}\t{ts}\t39\t\t\t\t\t{internet_s}\n")


# ----------------------------------------------------------------- CDR loader

def test_load_cdr_single_row_with_filter(tmp_path):
    path = tmp_path / "cdr.txt"
    write_cdr(path, [(42, 1383260400000, 12.5)])
    result = load_cdr_file(path, cell_filter={42})
    assert result.records == [ActivityRecord(42, 1383260400000, 12.5)]
    assert result.malformed_rows == 0


def test_load_cdr_empty_file(tmp_path):
    path = tmp_path / "cdr.txt"
    path.write_text("")
    result = load_cdr_file(path)
    assert result.records == []
    assert result.malformed_rows == 0


def test_load_cdr_filter_excludes_other_cells(tmp_path):
    path = tmp_path / "cdr.txt"
    write_cdr(path, [(7, 1383260400000, 3.0), (42, 1383260400000, 1.0)])
    result = load_cdr_file(path, cell_filter={42})
    assert [r.cell_id for r in result.records] == [42]


def test_load_cdr_round_trip(tmp_path):
    rows = [(c, 1383260400000 + 600_000 * i, float(i) + 0.25)
            for i, c in enumerate([3, 1, 4, 1, 5])]
    path = tmp_path / "cdr.txt"
    write_cdr(path, rows)
    result = load_cdr_file(path)
    assert [(r.cell_id, r.timestamp_ms, r.internet_activity)
            for r in result.records] == rows


def test_load_cdr_empty_internet_field_is_not_malformed(tmp_path):
    path = tmp_path / "cdr.txt"
    write_cdr(path, [(42, 1383260400000, None), (42, 1383261000000, 2.0)])
    result = load_cdr_file(path)
    assert len(result.records) == 1
    assert result.malformed_rows == 0


def test_load_cdr_counts_malformed_rows(tmp_path):
    path = tmp_path / "cdr.txt"
    with open(path, "w") as fh:
        for i in range(20):
            fh.write(f"{i}\t1383260400000\t39\t\t\t\t\t1.0\n")
        fh.write("not\ta\tcdr\trow\n")
    result = load_cdr_file(path)
    assert result.malformed_rows == 1
    assert len(result.records) == 20


def test_load_cdr_counts_non_finite_activity_as_malformed(tmp_path):
    path = tmp_path / "cdr.txt"
    rows = [(i, 1383260400000, 1.0) for i in range(60)]
    rows[3:3] = [(90, 1383260400000, "nan"), (91, 1383260400000, "inf"),
                 (92, 1383260400000, "-inf"), (93, 1383260400000, "NaN"),
                 (94, 1383260400000, "-1.5")]
    write_cdr(path, rows)
    result = load_cdr_file(path)
    assert result.malformed_rows == 5 and result.total_rows == 65
    assert [r.cell_id for r in result.records] == list(range(60))


def test_load_cdr_mostly_malformed_is_fatal(tmp_path):
    path = tmp_path / "cdr.txt"
    path.write_text("garbage line\n" * 10 + "42\t1\t39\t\t\t\t\t1.0\n")
    with pytest.raises(TraceFormatError):
        load_cdr_file(path)


def test_load_cdr_unreadable_file_raises(tmp_path):
    with pytest.raises(OSError):
        load_cdr_file(tmp_path / "missing.txt")


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


# ----------------------------------------------------------------- aggregation

def test_aggregate_sums_records_in_same_window():
    records = [ActivityRecord(1, 100_000, 3.0), ActivityRecord(1, 200_000, 4.0)]
    trace = aggregate_steps(records, [1], 300, (0, 300_000))
    assert trace.steps.shape == (1, 1)
    assert trace.steps[0, 0] == 7.0


def test_aggregate_cell_without_records_is_zero():
    records = [ActivityRecord(1, 100_000, 3.0)]
    trace = aggregate_steps(records, [1, 2], 300, (0, 600_000))
    assert np.all(trace.steps[:, 1] == 0.0)


def test_aggregate_62_days_gives_8928_native_steps():
    # 62 days at the dataset's native 10-minute interval: 62 * 144 = 8,928
    # events, the step count the experiment runs on.
    day_ms = 86_400_000
    records = [ActivityRecord(1, t, 1.0)
               for t in range(0, 62 * day_ms, 600_000)]
    trace = aggregate_steps(records, [1], 600, (0, 62 * day_ms))
    assert trace.n_steps == 8928
    assert np.all(trace.steps == 1.0)


def test_aggregate_10min_records_at_5min_steps_alternate_with_zeros():
    day_ms = 86_400_000
    records = [ActivityRecord(1, t, 1.0) for t in range(0, day_ms, 600_000)]
    trace = aggregate_steps(records, [1], 300, (0, day_ms))
    assert trace.n_steps == 288
    assert np.all(trace.steps[::2, 0] == 1.0)
    assert np.all(trace.steps[1::2, 0] == 0.0)


def test_aggregate_skips_records_outside_horizon():
    records = [ActivityRecord(1, 100_000, 3.0), ActivityRecord(1, 999_999_999, 5.0)]
    trace = aggregate_steps(records, [1], 300, (0, 300_000))
    assert trace.steps.sum() == 3.0


def test_aggregate_requires_whole_number_of_steps():
    with pytest.raises(ValueError):
        aggregate_steps([], [1], 300, (0, 450_000))


def test_aggregate_conserves_mass():
    rng = np.random.default_rng(3)
    cells = [1, 2, 3]
    horizon = (0, 3_600_000)
    records = [
        ActivityRecord(int(rng.choice(cells)), int(rng.integers(0, horizon[1])),
                       float(rng.uniform(0, 5)))
        for _ in range(500)
    ]
    trace = aggregate_steps(records, cells, 300, horizon)
    assert trace.steps.sum() == pytest.approx(
        sum(r.internet_activity for r in records), abs=1e-9)


# ----------------------------------------------------------------------- split

def test_split_matches_reference_counts():
    trace = SteppedTrace([1], np.zeros((8928, 1)))
    split = split_train_test(trace, 0.9)
    assert split.train.n_steps == 8035
    assert split.test.n_steps == 893


@pytest.mark.parametrize("rows,fraction,expect", [(10, 0.5, (5, 5)), (2, 0.9, (1, 1))])
def test_split_floor_semantics(rows, fraction, expect):
    trace = SteppedTrace([1], np.arange(rows, dtype=float)[:, None])
    split = split_train_test(trace, fraction)
    assert (split.train.n_steps, split.test.n_steps) == expect


def test_split_rejects_tiny_traces():
    with pytest.raises(ValueError):
        split_train_test(SteppedTrace([1], np.zeros((1, 1))), 0.9)


def test_split_concatenation_reproduces_original():
    rng = np.random.default_rng(5)
    trace = SteppedTrace([1, 2], rng.uniform(0, 9, size=(37, 2)))
    split = split_train_test(trace, 0.73)
    rebuilt = np.vstack([split.train.steps, split.test.steps])
    assert np.array_equal(rebuilt, trace.steps)
    assert split.test.origin_time_ms == (
        trace.origin_time_ms + split.train.n_steps * trace.step_duration * 1000)


# ------------------------------------------------------------------ synthetic

def test_synthetic_is_bitwise_reproducible():
    a = generate_synthetic_trace(10, 300, seed=12)
    b = generate_synthetic_trace(10, 300, seed=12)
    assert np.array_equal(a.steps, b.steps)
    assert a.cell_ids == b.cell_ids


def test_synthetic_zero_amplitude_gives_constant_columns():
    profile = DiurnalProfile(amplitude=0.0, noise=0.0)
    trace = generate_synthetic_trace(5, 100, seed=9, profile=profile)
    assert np.allclose(trace.steps, trace.steps[0])
    # distinct per-cell base levels
    assert len(np.unique(np.round(trace.steps[0], 9))) > 1


def test_synthetic_calibrates_mean_step_total():
    trace = generate_synthetic_trace(276, 8928, seed=1)
    assert trace.step_totals().mean() == pytest.approx(400.0, rel=1e-9)
    assert np.all(trace.steps >= 0)


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
