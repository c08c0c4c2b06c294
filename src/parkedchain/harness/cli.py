"""Command-line entry point.

    parkedchain <scenario> --config <path> --seed <u64> --out <dir> [--trace <csv>]

Writes `<scenario>.csv` and `provenance.txt` into the output directory.
Exit codes: 0 success, 2 config or usage error, 3 infeasible solver.
"""

from __future__ import annotations

import argparse
import os
import sys

from .._task import InfeasibleProblem
from .config import ConfigError, validate_config
from .scenarios import SCENARIOS, run_scenario

__all__ = ["main", "build_parser"]


def _integer(text: str) -> int:
    # the range is the config's seed rule, checked with the other keys
    return int(text, 0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parkedchain",
        description="Run a seeded simulation scenario and emit its CSV table.",
    )
    parser.add_argument("scenario", choices=SCENARIOS)
    parser.add_argument("--config", default=None,
                        help="JSON config file (empty or omitted: defaults)")
    parser.add_argument("--seed", type=_integer, default=None,
                        help="override the config seed")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--trace", default=None,
                        help="arrival trace CSV overriding the synthetic population")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    flags = {"seed": args.seed, "trace_path": args.trace}
    try:
        cfg = validate_config(args.config, **{k: v for k, v in flags.items() if v is not None})
        table = run_scenario(args.scenario, cfg)
    except ConfigError as exc:
        for line in exc.diagnostics:
            print(f"config error: {line}", file=sys.stderr)
        return 2
    except InfeasibleProblem as exc:
        print(f"infeasible problem: {exc}", file=sys.stderr)
        return 3

    os.makedirs(args.out, exist_ok=True)
    table.to_csv(os.path.join(args.out, f"{args.scenario}.csv"))
    with open(os.path.join(args.out, "provenance.txt"), "w",
              encoding="utf-8", newline="\n") as fh:
        fh.write(table.provenance_text())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
