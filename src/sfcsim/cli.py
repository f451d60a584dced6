"""Command-line entry point.

    sfcsim generate-trace --config exp.yaml --out out/
    sfcsim cluster        --config exp.yaml --out out/
    sfcsim train          --config exp.yaml --out out/
    sfcsim eval           --config exp.yaml --out out/ --policy out/checkpoint.npz

Exit codes: 0 success, 1 usage/config error, 2 runtime failure.
"""

import argparse
import dataclasses
import logging
import sys
from pathlib import Path

from .config import ConfigError, ExperimentConfig, load_config
from .harness import cmd_cluster, cmd_eval, cmd_generate_trace, cmd_train


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfcsim",
        description="SFC allocation experiments: traffic clustering, "
                    "simulation, PPO training, and evaluation.")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("generate-trace", "write a synthetic stepped trace CSV"),
        ("cluster", "day-period profiles, elbow scan, and K-means fit"),
        ("train", "train the PPO agent on the train split"),
        ("eval", "evaluate a checkpoint or baseline on the test split"),
    ]:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", type=Path, default=None,
                         help="experiment YAML (defaults used when omitted)")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override the master seed")
        cmd.add_argument("--out", type=Path, default=None,
                         help="output directory (default from config)")
        cmd.add_argument("--quick", action="store_true",
                         help="reduced replication profile for smoke runs")
        if name == "eval":
            cmd.add_argument("--policy", required=True,
                             help="checkpoint path or baseline name "
                                  "(noop, random, static_greedy)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        cfg = load_config(args.config) if args.config else ExperimentConfig()
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, master_seed=args.seed)
        out_dir = args.out if args.out else Path(cfg.out_dir)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.command == "generate-trace":
            cmd_generate_trace(cfg, out_dir)
        elif args.command == "cluster":
            cmd_cluster(cfg, out_dir)
        elif args.command == "train":
            cmd_train(cfg, out_dir, quick=args.quick)
        elif args.command == "eval":
            cmd_eval(cfg, out_dir, args.policy, quick=args.quick)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        logging.getLogger(__name__).exception("command failed")
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
