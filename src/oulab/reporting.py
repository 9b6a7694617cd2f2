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


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if hasattr(obj, "tolist"):
        return _jsonable(obj.tolist())
    if hasattr(obj, "item"):
        return obj.item()
    return obj


def write_json(path: Path, payload: dict) -> None:
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True)
    Path(path).write_text(text + "\n", encoding="utf-8", newline="\n")


@dataclass
class RunReport:
    """Aggregated verdicts of one CLI invocation.

    Every check that ran appears exactly once with status PASS, FAIL, or
    REPORT (evidence rows that never gate the exit code).  A subcommand
    stopped by a numerical error adds one ``<sub>.error`` row with status
    ERROR in place of the checks it did not reach.  Wall times of the
    subcommands that ran go to run_meta.json only.
    """

    config_text: str
    version: str
    checks: list = field(default_factory=list)
    started: float = field(default_factory=time.time)
    subcommand_seconds: dict = field(default_factory=dict)

    def add(self, name: str, status: str, detail: str = "") -> None:
        if status not in ("PASS", "FAIL", "REPORT", "ERROR"):
            raise ValueError(f"bad status {status!r}")
        if any(c["name"] == name for c in self.checks):
            raise ValueError(f"duplicate check name {name!r}")
        self.checks.append({"name": name, "status": status, "detail": detail})

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
        })
