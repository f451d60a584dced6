"""The arithmetic of ``scripts/bench_pairs.py`` on fabricated bench results.

Nothing here runs the benchmark: each result is a dict shaped like a
``bench/run.py`` result file, with made-up metric values.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = {
    "throughput_per_s": {"name": "throughput_per_s", "better": "higher", "bound": 0.25},
    "peak_rss_mb": {"name": "peak_rss_mb", "better": "lower", "bound": 0.05},
}


def result(throughput, rss, correct=True, failed=0, **extra):
    return {"correct": correct, "attempted": 10, "failed": failed,
            "metrics": {"throughput_per_s": {"value": throughput, "unit": "1/s"},
                        "peak_rss_mb": {"value": rss, "unit": "MiB"}},
            "chunk_rates": [[throughput]], "host_chunk_rates": [[throughput]],
            "environment": {"python": "3.11"}, **extra}


PARENT = [100.0, 110.0, 90.0, 105.0, 95.0]
CHANGE = [130.0, 140.0, 89.0, 135.0, 125.0]
RUNS = {str(7000 + i): {"parent": result(p, 100.0 + i), "change": result(c, 104.0)}
        for i, (p, c) in enumerate(zip(PARENT, CHANGE))}


def test_parse_seeds():
    assert bench_pairs.parse_seeds("7401-7404") == [7401, 7402, 7403, 7404]
    assert bench_pairs.parse_seeds("5") == [5]
    for bad in ("4-3", "a-b", "1,2"):
        with pytest.raises(ValueError):
            bench_pairs.parse_seeds(bad)


def test_quartiles_interpolate_between_order_statistics():
    assert bench_pairs.quartiles([90.0, 95.0, 100.0, 105.0, 110.0]) == (95.0, 100.0, 105.0)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_summary_of_a_higher_is_better_metric():
    s = bench_pairs.summarize(RUNS, METRICS)
    head = s["throughput_per_s"]
    assert s["pairs"] == 5
    assert head["parent"] == {"q1": 95.0, "median": 100.0, "q3": 105.0}
    assert head["change"] == {"q1": 125.0, "median": 130.0, "q3": 135.0}
    assert head["ratio"] == 1.3
    assert head["pairs_won"] == 4  # 89 < 90 loses the third pair
    assert head["gap_over_parent_iqr"] == 3.0  # (130 - 100) / (105 - 95)
    assert head["within_bound"]
    assert s["correct"] == {"parent": 5, "change": 5}
    assert s["failed"] == {"parent": 0, "change": 0}


def test_summary_of_a_lower_is_better_metric_and_its_bound():
    s = bench_pairs.summarize(RUNS, METRICS)
    rss = s["peak_rss_mb"]
    assert rss["parent"]["median"] == 102.0 and rss["change"]["median"] == 104.0
    assert rss["pairs_won"] == 0 and rss["better"] == "lower"
    assert rss["gap_over_parent_iqr"] == -1.0  # 2 MiB worse over an IQR of 2
    assert rss["within_bound"]  # 2 / 102 < 5%
    worse = {seed: {"parent": pair["parent"], "change": result(100.0, 110.0)}
             for seed, pair in RUNS.items()}
    assert not bench_pairs.summarize(worse, METRICS)["peak_rss_mb"]["within_bound"]


def test_summary_counts_incorrect_and_failed_runs_and_a_zero_iqr():
    runs = {"1": {"parent": result(10.0, 1.0), "change": result(12.0, 1.0, False, 3)},
            "2": {"parent": result(10.0, 1.0), "change": result(11.0, 1.0)}}
    s = bench_pairs.summarize(runs, METRICS)
    assert s["correct"] == {"parent": 2, "change": 1}
    assert s["failed"] == {"parent": 0, "change": 3}
    assert s["throughput_per_s"]["gap_over_parent_iqr"] is None


def test_kept_fields_drop_the_reference_samples():
    full = result(1.0, 1.0, reference_slowdowns=[1.0] * 50, stats={"events": 3})
    assert set(bench_pairs.kept(full)) == {"correct", "attempted", "failed", "metrics",
                                           "chunk_rates", "host_chunk_rates", "environment"}


def test_dumps_writes_one_line_per_run_and_round_trips():
    doc = {"parent": "a", "change": "b",
           "workloads": {"eval-greedy": {"summary": {"pairs": 5},
                                         "runs": {s: {"first": "parent", **p}
                                                  for s, p in RUNS.items()}}}}
    text = bench_pairs.dumps(doc)
    assert json.loads(text) == doc
    run_lines = [line for line in text.splitlines() if '"chunk_rates":' in line]
    assert len(run_lines) == 2 * len(RUNS)


def test_summary_lines_read_every_workload(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": list(METRICS.values())}))
    new = {"workloads": {"eval-greedy": {"summary": {}, "runs": RUNS},
                         "train": {"summary": {}, "runs": {"1": RUNS["7000"]}}}}
    (tmp_path / "BENCH_new.json").write_text(bench_pairs.dumps(new))
    lines = bench_pairs.summary_lines(tmp_path)
    assert len(lines) == 2
    assert lines[0].startswith("BENCH_new.json  eval-greedy  throughput_per_s 100 -> 130 "
                               "(1.300x)  won 4/5  gap/IQR 3.00  correct 5+5/10  failed 0")
    assert lines[0].endswith("bounds ok")
    assert lines[1].startswith("BENCH_new.json  train ")
    assert "gap/IQR n/a" in lines[1]


def test_summary_lines_name_each_exceeded_bound(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": list(METRICS.values())}))
    # rss 100 + i -> 120: a median of 102 -> 120 is 1.176x, past the 5% bound
    worse = {seed: {"parent": pair["parent"], "change": result(130.0, 120.0)}
             for seed, pair in RUNS.items()}
    (tmp_path / "BENCH_worse.json").write_text(
        bench_pairs.dumps({"workloads": {"eval-random": {"summary": {}, "runs": worse}}}))
    [line] = bench_pairs.summary_lines(tmp_path)
    assert line.endswith("bounds EXCEEDED: peak_rss_mb 1.176x")
