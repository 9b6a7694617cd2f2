#!/usr/bin/env python3
"""Digest every ``report-all`` artifact of the shipped configs, or check them.

    python3 scripts/artifact_digests.py            # rewrite the manifest
    python3 scripts/artifact_digests.py --check    # compare against it

Each config in ``configs/`` runs ``oulab report-all`` at each seed of SEEDS,
in a fresh process under ``-W error::RuntimeWarning`` and a temporary
directory, with the config's ``[run] seed`` replaced.  The manifest
(MANIFEST, committed next to this script) holds the exit code, the sha256 of
every file the run writes except ``run_meta.json``, which records timings,
the status of every check in its ``report.json`` and the value of every
asserted one, plus the Python, numpy and BLAS versions that produced them.
``--check`` prints each run whose exit code or file set differs, each file
whose digest differs, each check whose status moved and each asserted value
that moved within its status.  It exits 1 if a run, an exit code, a file set
or a status moved; else 2 if a digest or a value moved, as they do under
another numpy or BLAS build or CPU (the check prints both versions); else 0.
A change that moves artifacts on purpose rewrites the manifest in the same
diff.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path(__file__).resolve().parent / "artifact_digests.json"
SEEDS = (1234, 9001)
SKIPPED = {"run_meta.json"}


def versions() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}",
            "blas_config": blas.get("openblas configuration", "").strip()}


def run(cfg: Path, seed: int, workdir: Path) -> dict:
    """Exit code, {file name: sha256}, {check name: status} and {asserted
    check name: value} of one ``report-all`` run."""
    text, n = re.subn(r"(?m)^seed\s*=.*$", f"seed = {seed}", cfg.read_text())
    if n != 1:
        raise SystemExit(f"{cfg.name}: expected one seed line, found {n}")
    cfg_copy = workdir / cfg.name
    cfg_copy.write_text(text)
    outdir = workdir / "out"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "oulab.cli",
                           "report-all", str(cfg_copy), "--outdir", str(outdir)],
                          env=env, cwd=workdir, stdout=subprocess.DEVNULL).returncode
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(outdir.glob("*")) if p.name not in SKIPPED}
    report = outdir / "report.json"
    checks = json.loads(report.read_text())["checks"] if report.exists() else []
    return {"exit": code, "files": files,
            "statuses": {c["name"]: c["status"] for c in checks},
            "values": {c["name"]: c["value"] for c in checks if "value" in c}}


def collect() -> dict:
    runs = {}
    for cfg in sorted((ROOT / "configs").glob("*.cfg")):
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as tmp:
                runs[f"{cfg.stem}@{seed}"] = run(cfg, seed, Path(tmp))
            print(f"ran {cfg.stem} at seed {seed}", file=sys.stderr)
    return {"versions": versions(), "runs": runs}


def differences(old: dict, new: dict) -> list[tuple[int, str]]:
    """(exit code, line) of each difference: 1 for a moved run, exit code,
    file set or status, 2 for a moved digest or value."""
    out = []
    for key in sorted(old["runs"].keys() | new["runs"].keys()):
        a, b = old["runs"].get(key), new["runs"].get(key)
        if a is None or b is None:
            out.append((1, f"{key}: run only in the {'manifest' if b is None else 'new runs'}"))
            continue
        if a["exit"] != b["exit"]:
            out.append((1, f"{key}: exit code {a['exit']} -> {b['exit']}"))
        both = a["files"].keys() & b["files"].keys()
        for name in sorted(a["files"].keys() | b["files"].keys()):
            if a["files"].get(name) != b["files"].get(name):
                out.append((2 if name in both else 1, f"{key}/{name}"))
        old_s, new_s, old_v, new_v = a["statuses"], b["statuses"], a["values"], b["values"]
        for name in sorted(old_s.keys() | new_s.keys()):
            if old_s.get(name) != new_s.get(name):
                out.append((1, f"{key}: {name} {old_s.get(name, 'absent')} -> "
                               f"{new_s.get(name, 'absent')}"))
            elif repr(old_v.get(name)) != repr(new_v.get(name)):
                out.append((2, f"{key}: {name} {new_s[name]}, value {old_v.get(name)!r} -> "
                               f"{new_v.get(name)!r}"))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare against the manifest instead of rewriting it")
    args = parser.parse_args(argv)
    current = collect()
    if not args.check:
        MANIFEST.write_text(json.dumps(current, indent=1, sort_keys=True) + "\n")
        print(f"wrote {MANIFEST.relative_to(ROOT)}")
        return 0
    recorded = json.loads(MANIFEST.read_text())
    diff = differences(recorded, current)
    for _, line in diff:
        print(line)
    if diff and recorded["versions"] != current["versions"]:
        print(f"versions differ: manifest {recorded['versions']}, "
              f"here {current['versions']}")
    return min((code for code, _ in diff), default=0)


if __name__ == "__main__":
    sys.exit(main())
