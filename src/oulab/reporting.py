"""Deterministic CSV/JSON emission for experiment artifacts.

CSV bodies must be byte-identical across runs with the same configuration:
floats print with 17 significant digits, newlines are fixed to "\\n", and no
timestamps ever enter a CSV.  Wall-clock data goes to a separate metadata
file next to the report.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

SCHEMA_VERSION = "oulab-report-1"


def fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, complex):
        return f"{value.real:.17g}{value.imag:+.17g}j"
    return str(value)


def write_csv(path: Path, columns: list[str], rows: list[tuple]) -> None:
    lines = [f"# schema={SCHEMA_VERSION}", ",".join(columns)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _encode(obj):
    """What ``json`` cannot encode itself: a complex number as {re, im}, a
    numpy array or scalar as its ``tolist()``."""
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if hasattr(obj, "tolist"):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def write_json(path: Path, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, default=_encode)
    Path(path).write_text(text + "\n", encoding="utf-8", newline="\n")


@dataclass
class RunReport:
    """Aggregated verdicts of one CLI invocation.

    Every check that ran appears exactly once: asserted (``check``, PASS or
    FAIL), evidence that never gates the exit code (REPORT), or in place of
    the checks a subcommand stopped by a numerical error did not reach, one
    ``<sub>.error`` row (ERROR).  Wall times of the subcommands that ran and
    the peak resident set go to run_meta.json only.
    """

    config_text: str
    version: str
    checks: list = field(default_factory=list)
    started: float = field(default_factory=time.time)
    subcommand_seconds: dict = field(default_factory=dict)
    peak_rss_mb: float | None = None  # this process's own peak resident set so far

    def add(self, name: str, status: str, detail: str = "") -> None:
        if status not in ("PASS", "FAIL", "REPORT", "ERROR"):
            raise ValueError(f"bad status {status!r}")
        if any(c["name"] == name for c in self.checks):
            raise ValueError(f"duplicate check name {name!r}")
        self.checks.append({"name": name, "status": status, "detail": detail})

    def check(self, name: str, value: float, bound: float, detail: str) -> None:
        """Asserted row, PASS exactly when value <= bound (a NaN value FAILs);
        its detail gives the context, value, bound and margin bound - value."""
        value, bound = float(value), float(bound)
        self.add(name, "PASS" if value <= bound else "FAIL",
                 f"{detail}; value {value:.4g}, bound {bound:.4g}, margin {bound - value:.4g}")
        self.checks[-1].update(value=value, bound=bound)

    def named(self, status: str) -> list[str]:
        return [c["name"] for c in self.checks if c["status"] == status]

    def write(self, outdir: Path) -> None:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        write_json(outdir / "report.json", {
            "schema": SCHEMA_VERSION,
            "version": self.version,
            "config": self.config_text,
            "checks": self.checks,
        })
        write_json(outdir / "run_meta.json", {
            "started_unix": self.started,
            "elapsed_seconds": time.time() - self.started,
            "subcommand_seconds": self.subcommand_seconds,
            "peak_rss_mb": self.peak_rss_mb,
        })
