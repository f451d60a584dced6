"""Run the byte-check set of sfcsim commands and print one digest per artifact.

Usage, from the root of a source checkout:

    python3 scripts/artifact_digests.py --out /tmp/digests-a > a.txt

The set is: ``generate-trace``, ``cluster``, ``train`` on a copy of
``examples_config.yaml`` with ``total_steps: 20000``, and ``eval`` with the
trained checkpoint and with the ``noop``, ``random`` and ``static_greedy``
baselines (20 files, written to ``<out>/artifacts``). Each line is
``<sha256>  <file name>``, sorted by name, so two checkouts compare with
one ``diff`` of their outputs. Every file is digested as written, ``.npz``
files included (NumPy stamps their zip members with a fixed date).

The commands run with one BLAS thread (``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` set to 1): training's bits depend
on the BLAS thread count, so digests taken under different settings would
differ for the same code.
"""

import argparse
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRAIN_STEPS = 20000
BASELINES = ("noop", "random", "static_greedy")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run(out: Path) -> None:
    config = out / "config.yaml"
    text = (ROOT / "examples_config.yaml").read_text()
    text, n = re.subn(r"(?m)^(\s*total_steps:\s*)\d+", rf"\g<1>{TRAIN_STEPS}", text)
    if n != 1:
        raise SystemExit("examples_config.yaml has no single total_steps line")
    config.write_text(text)
    artifacts = out / "artifacts"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
           **{var: "1" for var in BLAS_THREAD_VARS}}
    base = [sys.executable, "-m", "sfcsim.cli"]
    commands = [["generate-trace"], ["cluster"], ["train"],
                ["eval", "--policy", str(artifacts / "checkpoint.npz")]]
    commands += [["eval", "--policy", name] for name in BASELINES]
    for command in commands:
        print("running:", " ".join(command), file=sys.stderr)
        subprocess.run(base + [command[0], "--config", str(config),
                               "--out", str(artifacts)] + command[1:],
                       env=env, check=True, stdout=subprocess.DEVNULL)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True,
                        help="empty or new directory for the config copy and artifacts")
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    if any(args.out.iterdir()):
        parser.error(f"{args.out} is not empty")
    run(args.out)
    artifacts = args.out / "artifacts"
    for path in sorted(p for p in artifacts.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(artifacts)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
