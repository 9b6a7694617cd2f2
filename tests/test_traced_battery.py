import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

from oulab.config import ExperimentConfig

ROOT = Path(__file__).resolve().parents[1]


def _traced_layers(tmp_path, cfg: ExperimentConfig) -> dict:
    """Per-span aggregates of a traced report-all run of cfg."""
    path = tmp_path / "run.cfg"
    path.write_text(cfg.to_text())
    summary = tmp_path / "summary.json"
    inherited = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    paths = [str(ROOT / "src")] + [p for p in inherited if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced_battery.py"), str(summary),
         "report-all", str(path), "--outdir", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(summary.read_text())["layers"]


def test_traced_battery_reaches_every_span(tmp_path):
    # the benchmark's tracer wraps oulab functions by name and binds their
    # arguments; a rename or a dropped argument breaks it
    cfg = ExperimentConfig(s_values=(-1.0, 0.0), t_values=(0.5, 1.0), triple_count=10,
                           probe_count=8, mc_samples=4000, spde_step=0.02)
    layers = _traced_layers(tmp_path, cfg)
    # diagonal models never take the independent adjoint solve
    idle = [name for name, agg in layers.items()
            if agg["calls"] == 0 and name != "evolution.adjoint_by_integration"]
    assert idle == []


def test_traced_battery_reaches_the_dense_spans(tmp_path):
    # the same on a dense model, whose battery takes the adjoint solve and
    # has no diagonal modes
    cfg = dataclasses.replace(ExperimentConfig.from_file(ROOT / "configs" / "parabolic_1d.cfg"),
                              mc_samples=2000, spde_step=0.02)
    layers = _traced_layers(tmp_path, cfg)
    idle = [name for name, agg in layers.items() if agg["calls"] == 0]
    assert idle == ["covariance.mode_accumulated"]
