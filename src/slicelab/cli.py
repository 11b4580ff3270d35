"""Command-line entry point.

One subcommand per run mode; every subcommand reads a config file and
accepts seed and output-directory overrides.  Exit codes: 0 completed,
1 configuration or usage error, 2 stopped by a monitor, 3 diverged.
"""

from __future__ import annotations

import argparse
import sys

from .config import MODE_TABLE, parse_config
from .errors import SliceLabError
from .runner import run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slicelab",
        description="incompressible slice model laboratory")
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, (help_line, _, _) in MODE_TABLE.items():
        p = sub.add_parser(mode, help=help_line)
        p.add_argument("--config", required=True,
                       help="path to a run configuration file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the configured seed")
        p.add_argument("--out-dir", default=None,
                       help="override the configured output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        print(f"slicelab: cannot read config: {err}", file=sys.stderr)
        return 1
    try:
        cfg = parse_config(text, mode=args.mode, seed=args.seed,
                           out_dir=args.out_dir)
        result = run(cfg)
    except SliceLabError as err:
        print(f"slicelab: {err}", file=sys.stderr)
        return 1
    return result.status


if __name__ == "__main__":
    sys.exit(main())
