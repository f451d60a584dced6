"""Run the benchmark in alternating parent/change pairs and summarize them.

Usage, from the root of a source checkout:

    python3 scripts/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --workload eval-greedy --seeds 7401-7410 --seconds 28 \\
        --label lean_step [--digests]
    python3 scripts/bench_pairs.py --summary

The first form extracts the committed files of both refs (``git archive``)
into a temporary directory, runs ``bench/run.py --workload W --seed S
--seconds T --trace 0`` in each for every seed, alternating which side runs
first (parent first on the first seed), and reads each run's
``.bench_out/result-*.json`` as soon as the run ends. It then writes
``BENCH_<label>.json``: per workload, a summary block (per-side median and
quartiles of every end-to-end metric of ``BENCHMARK.json``, the ratio of the
medians, the pairs the change won, the gap between the medians over the
parent's interquartile range, the bound check and the ``correct``/``failed``
counts), then the per-seed runs, one compact line each. Running it again
with the same label and refs adds a workload, or adds seeds to one (a seed
run again replaces its pair), and the summary covers every pair in the
file. ``--digests`` also runs ``scripts/artifact_digests.py`` at both refs
and records whether the digests match. The temporary directory is removed
afterwards.

``--summary`` prints one line per workload of every ``BENCH_*.json`` in the
checkout's root, recomputed from the per-seed metrics; it names each metric
whose change median is outside its bound, with the ratio of the medians
(``bounds EXCEEDED: peak_rss_mb 1.177x``).
"""

import argparse
import io
import json
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
HEADLINE = "throughput_per_s"
KEPT = ("correct", "attempted", "failed", "metrics", "chunk_rates",
        "host_chunk_rates", "environment")  # per-run fields a BENCH file keeps


def end_to_end_metrics(root: Path = ROOT) -> dict[str, dict]:
    """``BENCHMARK.json``'s end-to-end metrics by name: better and bound."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def parse_seeds(text: str) -> list[int]:
    """``"A-B"`` (inclusive) or a single seed ``"A"``."""
    match = re.fullmatch(r"(\d+)(?:-(\d+))?", text.strip())
    if not match:
        raise ValueError(f"seeds must look like A-B, got {text!r}")
    first = int(match.group(1))
    last = int(match.group(2) or first)
    if last < first:
        raise ValueError(f"empty seed range {text!r}")
    return list(range(first, last + 1))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3), linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(runs: dict[str, dict[str, dict]], metrics: dict[str, dict]) -> dict:
    """Summary of paired runs, ``runs[seed][side]`` being a bench result.

    A pair counts as won when the change's value is strictly better. The gap
    is the improvement of the change's median over the parent's, in units of
    the parent's interquartile range (None when that range is 0). A metric is
    within its bound when the change's median is worse than the parent's by at
    most ``bound`` as a fraction of the parent's median.
    """
    seeds = sorted(runs, key=int)
    summary = {"pairs": len(seeds)}
    for side in SIDES:
        sides = [runs[s][side] for s in seeds]
        summary.setdefault("correct", {})[side] = sum(bool(r["correct"]) for r in sides)
        summary.setdefault("failed", {})[side] = sum(int(r["failed"]) for r in sides)
    for name, spec in metrics.items():
        sign = 1.0 if spec["better"] == "higher" else -1.0
        values = {side: [runs[s][side]["metrics"][name]["value"] for s in seeds]
                  for side in SIDES}
        entry = {"better": spec["better"], "bound": spec["bound"]}
        for side in SIDES:
            q1, median, q3 = quartiles(values[side])
            entry[side] = {"q1": q1, "median": median, "q3": q3}
        parent, change = entry["parent"], entry["change"]
        entry["ratio"] = change["median"] / parent["median"]
        entry["pairs_won"] = sum(sign * (c - p) > 0 for p, c in
                                 zip(values["parent"], values["change"]))
        iqr = parent["q3"] - parent["q1"]
        gain = sign * (change["median"] - parent["median"])
        entry["gap_over_parent_iqr"] = gain / iqr if iqr > 0 else None
        entry["within_bound"] = -gain <= spec["bound"] * abs(parent["median"])
        summary[name] = entry
    return summary


def kept(result: dict) -> dict:
    """The fields of one bench result that a BENCH file keeps."""
    return {key: result[key] for key in KEPT if key in result}


def dumps(doc: dict) -> str:
    """Indented JSON whose per-seed runs are written one compact line each."""
    compact = {}

    def mark(run: dict) -> str:
        key = f"@run{len(compact)}@"
        compact[key] = json.dumps(run, sort_keys=True, separators=(",", ":"))
        return key

    skeleton = json.loads(json.dumps(doc))
    for entry in skeleton.get("workloads", {}).values():
        for pair in entry["runs"].values():
            for side in SIDES:
                pair[side] = mark(pair[side])
    text = json.dumps(skeleton, indent=1, sort_keys=True)
    for key, line in compact.items():
        text = text.replace(f'"{key}"', line)
    return text + "\n"


def workload_entries(doc: dict) -> dict[str, dict[str, dict[str, dict]]]:
    """``{workload: {seed: {side: result}}}`` of a BENCH file."""
    return {name: {seed: {side: pair[side] for side in SIDES}
                   for seed, pair in entry["runs"].items()}
            for name, entry in doc["workloads"].items()}


def summary_lines(root: Path = ROOT) -> list[str]:
    """One line per workload of every ``BENCH_*.json`` under ``root``."""
    metrics = end_to_end_metrics(root)
    lines = []
    for path in sorted(root.glob("BENCH_*.json")):
        doc = json.loads(path.read_text())
        for name, runs in workload_entries(doc).items():
            s = summarize(runs, metrics)
            head = s[HEADLINE]
            gap = head["gap_over_parent_iqr"]
            exceeded = [f"{m} {s[m]['ratio']:.3f}x" for m in metrics
                        if not s[m]["within_bound"]]
            lines.append(
                f"{path.name}  {name}  {HEADLINE} {head['parent']['median']:.6g} -> "
                f"{head['change']['median']:.6g} ({head['ratio']:.3f}x)  "
                f"won {head['pairs_won']}/{s['pairs']}  gap/IQR "
                f"{'n/a' if gap is None else f'{gap:.2f}'}  correct "
                f"{s['correct']['parent']}+{s['correct']['change']}/{2 * s['pairs']}"
                f"  failed {s['failed']['parent'] + s['failed']['change']}  "
                f"bounds {'EXCEEDED: ' + ', '.join(exceeded) if exceeded else 'ok'}")
    return lines


# ------------------------------------------------------------------- running

def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(commit: str, dest: Path) -> None:
    """The committed files of ``commit`` into ``dest`` (no worktree metadata)."""
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    path = checkout / ".bench_out" / f"result-{workload}-seed{seed}-trace0.json"
    if not path.is_file():
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} wrote no result "
                           f"(exit {proc.returncode}):\n{proc.stdout}{proc.stderr}")
    result = kept(json.loads(path.read_text()))
    path.unlink()  # the other seeds of this side must not find a stale file
    return result


def digests(checkout: Path, out: Path) -> list[str]:
    proc = subprocess.run([sys.executable, "scripts/artifact_digests.py", "--out", str(out)],
                          cwd=checkout, check=True, capture_output=True, text=True)
    return proc.stdout.splitlines()


def run_pairs(args) -> int:
    seeds = parse_seeds(args.seeds)
    commits = {"parent": git("rev-parse", f"{args.parent}^{{commit}}"),
               "change": git("rev-parse", f"{args.change}^{{commit}}")}
    out_path = ROOT / f"BENCH_{args.label}.json"
    doc = json.loads(out_path.read_text()) if out_path.is_file() else {}
    for side in SIDES:
        if doc.get(f"{side}_commit", commits[side]) != commits[side]:
            raise SystemExit(f"{out_path.name} holds runs of another {side} commit")
    doc.update({"parent": args.parent, "parent_commit": commits["parent"],
                "change": args.change, "change_commit": commits["change"]})
    command = (f"python3 bench/run.py --workload {args.workload} --seed S "
               f"--seconds {args.seconds:g} --trace 0")
    entry = doc.setdefault("workloads", {}).setdefault(
        args.workload, {"command": command, "runs": {}})
    if entry["command"] != command:
        raise SystemExit(f"{out_path.name} holds {args.workload} runs of another command")
    runs = entry["runs"]
    tmp = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    try:
        checkouts = {side: tmp / side for side in SIDES}
        for side in SIDES:
            extract(commits[side], checkouts[side])
        for seed in seeds:
            runs.pop(str(seed), None)
            order = SIDES if len(runs) % 2 == 0 else SIDES[::-1]
            runs[str(seed)] = {"first": order[0]}
            for side in order:
                result = run_bench(checkouts[side], args.workload, seed, args.seconds)
                runs[str(seed)][side] = result
                print(f"seed {seed} {side}: {HEADLINE} "
                      f"{result['metrics'][HEADLINE]['value']:.6g} "
                      f"correct={result['correct']} failed={result['failed']}",
                      file=sys.stderr)
        summary = summarize({s: {side: p[side] for side in SIDES} for s, p in runs.items()},
                            end_to_end_metrics())
        entry["summary"] = summary
        if args.digests:
            lines = {side: digests(checkouts[side], tmp / f"digests-{side}")
                     for side in SIDES}
            doc["digests"] = {"artifacts": len(lines["change"]),
                              "identical": lines["parent"] == lines["change"],
                              "differing": sorted(set(lines["change"]) ^ set(lines["parent"]))}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    out_path.write_text(dumps(doc))
    head = summary[HEADLINE]
    print(f"wrote {out_path.name}: {args.workload} {HEADLINE} "
          f"{head['parent']['median']:.6g} -> {head['change']['median']:.6g} "
          f"({head['ratio']:.3f}x), won {head['pairs_won']}/{summary['pairs']}")
    if args.digests:
        print(f"digests identical: {doc['digests']['identical']}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--summary", action="store_true",
                        help="print one line per workload of every committed BENCH_*.json")
    parser.add_argument("--parent", help="git ref of the parent side")
    parser.add_argument("--change", help="git ref of the change side")
    parser.add_argument("--workload", help="a bench/run.py workload")
    parser.add_argument("--seeds", help="inclusive seed range A-B, one pair per seed")
    parser.add_argument("--seconds", type=float, help="measured seconds per run")
    parser.add_argument("--label", help="writes BENCH_<label>.json in the checkout's root")
    parser.add_argument("--digests", action="store_true",
                        help="also compare scripts/artifact_digests.py at both refs")
    args = parser.parse_args(argv)
    if args.summary:
        print("\n".join(summary_lines()))
        return 0
    missing = [opt for opt in ("parent", "change", "workload", "seeds", "seconds", "label")
               if getattr(args, opt) is None]
    if missing:
        parser.error("without --summary, these are required: "
                     + ", ".join(f"--{opt}" for opt in missing))
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return run_pairs(args)


if __name__ == "__main__":
    sys.exit(main())
