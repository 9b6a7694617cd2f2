#!/usr/bin/env python3
"""Run the full check suite for every shipped model configuration.

Artifacts land in each config's own outdir (out/<model>/ by default).
Exit status is the largest of the per-config exit codes (see ``oulab.cli``):
nonzero if any asserted check fails or any subcommand errors anywhere.
"""

import sys
from pathlib import Path

from oulab.cli import main as oulab_main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def main() -> int:
    worst = 0
    for cfg in sorted(CONFIG_DIR.glob("*.cfg")):
        print(f"\n=== {cfg.stem} ===")
        code = oulab_main(["report-all", str(cfg)])
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
