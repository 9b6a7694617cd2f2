"""Command-line entry point.

    oulab <subcommand> <config.cfg> [--outdir DIR]

Subcommands: evolve, covariance, invariance, diffcheck, logsob, hyper,
spde, ergodic, report-all.  Exit codes: 0 all asserted checks pass,
1 at least one check failed (failing rows listed), 2 invalid config, model
parameters or outdir, 3 a subcommand stopped on a numerical error (an ERROR
row; the other subcommands still run and report.json is written), which
takes precedence over 1; failing rows are listed either way.
The output directory is --outdir, else the config's ``outdir`` key.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, ExperimentConfig
from .experiments import SUBCOMMANDS, run_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_INVALID = 2
EXIT_NUMERICAL_ERROR = 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="oulab", description=__doc__)
    parser.add_argument("subcommand", choices=sorted(SUBCOMMANDS) + ["report-all"])
    parser.add_argument("config", help="path to an experiment config file")
    parser.add_argument("--outdir", default=None, help="override the output directory")
    args = parser.parse_args(argv)

    try:
        cfg = ExperimentConfig.from_file(args.config)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_INVALID

    outdir = Path(args.outdir or cfg.outdir)
    try:
        report = run_suite(args.subcommand, cfg, outdir)
    except ConfigError as exc:  # model parameters or outdir, rejected before any output
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_INVALID

    for check in report.checks:
        print(f"[{check['status']:6s}] {check['name']}: {check['detail']}")
    errors, failing = report.named("ERROR"), report.named("FAIL")
    if failing:
        print(f"FAILED: {', '.join(failing)}", file=sys.stderr)
    if errors:
        print(f"ERROR: {', '.join(errors)}", file=sys.stderr)
        return EXIT_NUMERICAL_ERROR
    return EXIT_CHECK_FAILED if failing else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
