"""Command line entry point.

Subcommands:
    train    --config PATH [--out DIR]
    eval     --config PATH [--checkpoint PATH] [--out DIR]
    rollout  --config PATH [--checkpoint PATH] --seed N [--out PATH]
    compare  --config PATH [--out DIR]

Exit codes: 0 success, 2 configuration error, 3 training divergence,
4 checkpoint or other I/O error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .config import describe_keys, load_config
from .errors import CheckpointError, ConfigError, TrainingDivergenceError
from .harness import compare, export_trajectory, run_eval, run_train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_IO = 4


def _episode_seed(text: str) -> int:
    """An episode seed for argparse: numpy seeds must be non-negative integers."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return seed


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="highwaylab",
        description="Highway driving decision-making laboratory",
        epilog="Config file keys:\n" + describe_keys(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train the configured agent, one run per seed")
    train.add_argument("--config", required=True, help="experiment config file")
    train.add_argument("--out", default="runs", help="output directory (default: runs)")

    evaluate = sub.add_parser("eval", help="deterministic evaluation of one agent")
    evaluate.add_argument("--config", required=True, help="experiment config file")
    evaluate.add_argument(
        "--checkpoint", default=None, help="trained checkpoint (dqn/ppo agents)"
    )
    evaluate.add_argument("--out", default="eval_out", help="output directory")

    rollout = sub.add_parser("rollout", help="export one episode as a per-step CSV")
    rollout.add_argument("--config", required=True, help="experiment config file")
    rollout.add_argument(
        "--checkpoint", default=None, help="trained checkpoint (dqn/ppo agents)"
    )
    rollout.add_argument("--seed", required=True, type=_episode_seed, help="episode seed")
    rollout.add_argument("--out", default="trajectory.csv", help="output CSV path")

    comp = sub.add_parser("compare", help="evaluate dqn, ppo, rules, random on one seed list")
    comp.add_argument("--config", required=True, help="experiment config file")
    comp.add_argument("--out", default="compare_out", help="output directory")
    return parser


@np.errstate(all="ignore")  # finiteness checks report a diverging network (exit 3)
def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.command == "train":
            run_dirs = run_train(config, args.out)
            for seed, path in run_dirs.items():
                print(f"seed {seed}: outputs in {path}")
            return EXIT_OK
        if args.command == "eval":
            summary = run_eval(config, args.checkpoint, args.out)
            print(
                f"agent={summary['agent']} episodes={summary['episodes']} "
                f"mean_return={summary['mean_return']:.3f} "
                f"std={summary['std_return']:.3f} "
                f"collision_rate={summary['collision_rate']:.2f} "
                f"mean_speed={summary['mean_speed']:.2f}"
            )
            return EXIT_OK
        if args.command == "rollout":
            path = export_trajectory(config, args.checkpoint, args.seed, args.out)
            print(f"trajectory written to {path}")
            return EXIT_OK
        _, errors = compare(config, args.out)
        return EXIT_IO if errors else EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TrainingDivergenceError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (CheckpointError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
