"""Time-to-verdict benchmark for ``oulab report-all``.

    python3 perfbench/run.py --workload closed-form [--seed 1234] [--seconds 10] [--trace 0|1]

Run from the repository root.  Load shape: a closed loop with one client;
one ``report-all`` child runs at a time, spawned from the sources under
``src/``.  The seed rewrites ``[run] seed`` in a temporary copy of the
workload's shipped config; every output goes to a temporary ``--outdir``
under ``perfbench/.work``, so ``out/`` and ``configs/`` are never touched.

``--trace 0`` times the untraced battery: five fresh set-ups (import, parse
the config, build the model), then ``report-all`` children until
``--seconds`` have passed, at least one, and no later than the run's
deadline allows.  ``--trace 1`` runs one untraced and one traced battery
(``traced_battery.py``) and reports the per-layer numbers.  Every battery is
checked: the verdicts in ``report.json``, the covariance oracle of the
workload, and the CSV digests, which must agree across all batteries of the
same program sources, config and seed, traced or not, also across runs.

The benchmark and its children run on one CPU, so BLAS runs one thread.  On
a shared host the speed of that CPU drifts by tens of percent over minutes,
so while each child runs a thread times a fixed probe on the same CPU every
``PROBE_PERIOD_S``.  The child's speed is ``PROBE_REF_S`` over its median
probe time, and the end-to-end times are reported at the reference speed:
measured time times speed to the power ``SPEED_EXPONENT``.  The raw times
and the speed are printed beside them.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give every
metric with its unit, the failure ratio, and the environment.
"""

from __future__ import annotations

import argparse
import configparser
import ctypes
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

import oracles

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = BENCH / ".work"
SETUP_REPS = 5
PROBE_PERIOD_S = 0.05
PROBE_REF_S = 5e-4  # probe time at the reference speed that times are reported at
# The probe does not follow the program exactly: between the host's slow and
# fast phases its time moves more than the program's, and in some processes
# its numpy part runs in a slower mode throughout.  Over six sets of ten runs
# (2-vCPU KVM guest, Intel Xeon family 6 model 207), the largest quartile
# spread of a set was 0.15 of the median at exponent 0.5, against 0.32 at 1
# and 0.38 for raw times.
SPEED_EXPONENT = 0.5
RUN_LIMIT_S = 170.0  # a child still running this long after start is killed
# the top-level experiments.run_* spans leave at most this share of the traced
# battery uncovered (interpreter start-up, imports, model build, report.json)
UNCOVERED_SHARE = 0.25

SETUP_CODE = """
import sys
from oulab.config import ExperimentConfig
from oulab.experiments import build_model
cfg = ExperimentConfig.from_file(sys.argv[1])
params = dict(cfg.model_params)
if cfg.window is not None:
    params["window"] = cfg.window
build_model(cfg.model_name, params or None)
"""


@dataclass(frozen=True)
class Workload:
    config: str
    asserted: tuple[str, ...]  # checks that PASS at the shipped seed
    oracle: Callable | None


COMMON_CHECKS = (
    "evolve.chain-law", "evolve.decay-certificates", "covariance.flow-decomposition",
    "covariance.derivatives", "invariance.gaussian-system", "diffcheck.formulas",
    "logsob.entropy-bound", "logsob.quadrature-vs-mc", "hyper.norm-inequality",
    "spde.terminal-law", "spde.observable-consistency",
)

WORKLOADS = {
    # n=8 constant diagonal model: every (U, K) is a closed form, so the
    # Monte Carlo layers (rng, measures, mehler, inequalities, spde) carry the
    # run and the integrators are bypassed.
    "closed-form": Workload(
        "diag_constant.cfg",
        COMMON_CHECKS + ("covariance.monotone-horizon", "diffcheck.fd-order",
                         "ergodic.long-time-limit"),
        oracles.diag_constant),
    # m=5 finite-difference drift: the matrix-ODE propagator and the dense
    # covariance panels carry the run; Monte Carlo is a small share.
    "dense": Workload(
        "parabolic_1d.cfg",
        COMMON_CHECKS + ("evolve.adjoint", "covariance.monotone-horizon",
                         "ergodic.long-time-limit"),
        oracles.parabolic_1d),
    # n=4 rational drift without an antiderivative: the same covariance and
    # evolution layers run through per-mode quad and the cumulative-drift
    # interpolant instead of dense panels.
    "quadrature": Workload(
        "diag_rational.cfg",
        COMMON_CHECKS + ("diffcheck.fd-order",),
        None),
}

END_TO_END = {"battery_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# metric -> (span name in traced_battery.SPANS, field of its summary)
PER_LAYER = {
    **{f"experiments.{sub}_s": (f"experiments.run_{sub}", "total_s") for sub in (
        "evolve", "covariance", "invariance", "diffcheck", "logsob", "hyper", "spde",
        "ergodic")},
    "models.drift_matrix_calls": ("models.drift_matrix", "calls"),
    "models.build_model_s": ("models.build_model", "total_s"),
    "evolution.propagator_matrix_calls": ("evolution.propagator_matrix", "calls"),
    "evolution.propagator_matrix_distinct": ("evolution.propagator_matrix", "distinct"),
    "evolution.propagator_matrix_self_s": ("evolution.propagator_matrix", "self_s"),
    "evolution.fit_decay_s": ("evolution.fit_decay", "total_s"),
    "evolution.adjoint_by_integration_s": ("evolution.adjoint_by_integration", "total_s"),
    "covariance.accumulated_calls": ("covariance.accumulated", "calls"),
    "covariance.accumulated_distinct": ("covariance.accumulated", "distinct"),
    "covariance.accumulated_self_s": ("covariance.accumulated", "self_s"),
    "covariance.mode_accumulated_calls": ("covariance.mode_accumulated", "calls"),
    "covariance.mode_accumulated_self_s": ("covariance.mode_accumulated", "self_s"),
    "covariance.steady_state_s": ("covariance.steady_state", "total_s"),
    "rng.chunked_normals_calls": ("rng.chunked_normals", "calls"),
    "rng.normals_drawn": ("rng.chunked_normals", "work"),
    "rng.chunked_normals_self_s": ("rng.chunked_normals", "self_s"),
    "measures.sample_draws": ("measures.sample", "work"),
    "measures.sample_self_s": ("measures.sample", "self_s"),
    "measures.verify_invariance_s": ("measures.verify_invariance", "total_s"),
    "measures.verify_long_time_limit_s": ("measures.verify_long_time_limit", "total_s"),
    "mehler.evaluate_calls": ("mehler.evaluate", "calls"),
    "mehler.evaluate_term_points": ("mehler.evaluate", "work"),
    "mehler.evaluate_self_s": ("mehler.evaluate", "self_s"),
    "mehler.propagate_trig_s": ("mehler.propagate_trig", "total_s"),
    "mehler.check_differentiation_s": ("mehler.check_differentiation", "total_s"),
    "inequalities.hypercontractivity_check_s": ("inequalities.hypercontractivity_check",
                                                "total_s"),
    "inequalities.hypercontractivity_check_self_s": ("inequalities.hypercontractivity_check",
                                                     "self_s"),
    "inequalities.entropy_gap_s": ("inequalities.entropy_gap", "total_s"),
    "inequalities.sharpness_probe_s": ("inequalities.sharpness_probe", "total_s"),
    "spde.simulate_self_s": ("spde.simulate", "self_s"),
    "spde.path_steps": ("spde.simulate", "work"),
    "spde.law_check_s": ("spde.law_check", "total_s"),
    "linalg.spectral_factor_s": ("linalg.spectral_factor", "total_s"),
    "reporting.write_csv_s": ("reporting.write_csv", "total_s"),
    "reporting.csv_bytes": ("reporting.write_csv", "work"),
}


def layer_unit(metric: str) -> str:
    return "s" if metric.endswith("_s") else "bytes" if metric.endswith("_bytes") else "count"


class Checks:
    """Attempted operations and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")


_PROBE_MAT = np.random.default_rng(0).standard_normal((5, 5))
_PROBE_EYE = np.eye(5)


def probe() -> float:
    """Time a fixed piece of the work the program spends its time on:
    interpreter loops and small-matrix numpy calls (about 0.5 ms)."""
    start = time.perf_counter()
    a = _PROBE_MAT
    for _ in range(100):
        a = (a @ a.T) * 0.1 + _PROBE_EYE
    acc = 0
    for i in range(1000):
        acc += i * i % 7
    return time.perf_counter() - start


class SpeedProbe:
    """Probes the CPU every PROBE_PERIOD_S from a thread while in use."""

    def __enter__(self):
        self.samples = [probe()]
        self.stop = threading.Event()
        self.thread = threading.Thread(target=self._loop)
        self.thread.start()
        return self

    def _loop(self) -> None:
        while not self.stop.wait(PROBE_PERIOD_S):
            self.samples.append(probe())

    def __exit__(self, *exc) -> None:
        self.stop.set()
        self.thread.join()

    @property
    def speed(self) -> float:
        """Speed relative to the reference; below 1 on a slow CPU."""
        return PROBE_REF_S / statistics.median(self.samples)


@dataclass(frozen=True)
class Child:
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    speed: float  # CPU speed while it ran, relative to the reference

    @property
    def scale(self) -> float:
        """Factor from measured times to times at the reference speed."""
        return self.speed ** SPEED_EXPONENT


def run_child(argv: list[str], log: Path, deadline: float) -> Child:
    """Spawn, wait and take this child's own rusage from wait4, probing the
    CPU's speed meanwhile."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with open(log, "wb") as out, SpeedProbe() as speed:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                 proc.returncode, speed.speed)


def program_digest(config_text: str) -> str:
    """Digest of the program's sources and the rewritten config: the CSV
    bodies are a pure function of these."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "oulab").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    h.update(config_text.encode())
    return h.hexdigest()[:16]


def csv_digests(outdir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.glob("*.csv"))}


class Battery:
    """Runs ``report-all`` children for one workload and seed and checks them."""

    def __init__(self, name: str, seed: int, scratch: Path, checks: Checks, deadline: float):
        self.workload = WORKLOADS[name]
        self.scratch, self.checks, self.deadline = scratch, checks, deadline
        self.cfg = configparser.ConfigParser()
        with open(ROOT / "configs" / self.workload.config, encoding="utf-8") as fh:
            self.cfg.read_file(fh)
        self.cfg["run"]["seed"] = str(seed)
        text = io.StringIO()
        self.cfg.write(text)
        self.config = scratch / self.workload.config
        self.config.write_text(text.getvalue(), encoding="utf-8")
        # digests of earlier runs of the same sources, config and seed
        self.ledger = WORK / "digests" / f"{name}-{seed}-{program_digest(text.getvalue())}.json"
        self.digests: dict[str, str] | None = None
        self.count = 0

    def setup(self) -> Child:
        """A fresh interpreter that imports the package, parses the config
        and builds the model."""
        self.count += 1
        child = run_child([sys.executable, "-c", SETUP_CODE, str(self.config)],
                          self.scratch / f"setup{self.count}.log", self.deadline)
        self.checks.add("setup", child.returncode == 0, f"exit {child.returncode}")
        return child

    def run(self, summary: Path | None = None) -> Child:
        """One ``report-all`` child, traced when ``summary`` is given."""
        self.count += 1
        outdir = self.scratch / f"out{self.count}"
        if summary is None:
            argv = [sys.executable, "-m", "oulab.cli"]
        else:
            argv = [sys.executable, str(BENCH / "traced_battery.py"), str(summary)]
        argv += ["report-all", str(self.config), "--outdir", str(outdir)]
        child = run_child(argv, self.scratch / f"battery{self.count}.log", self.deadline)
        self.check(outdir, child)
        shutil.rmtree(outdir, ignore_errors=True)
        return child

    def check(self, outdir: Path, child: Child) -> None:
        checks, tag = self.checks, f"battery {self.count}"
        failed_before = len(checks.failures)
        try:
            with open(outdir / "report.json", encoding="utf-8") as fh:
                verdicts = {c["name"]: c["status"] for c in json.load(fh)["checks"]}
        except (OSError, ValueError, KeyError, TypeError) as exc:
            # a crash: every check this workload asserts counts as failed
            for name in self.workload.asserted:
                checks.add(name, False, f"{tag}: exit {child.returncode}, no report ({exc})")
            return
        asserted = set(self.workload.asserted) | {
            n for n, status in verdicts.items() if status in ("PASS", "FAIL")}
        for name in sorted(asserted):
            checks.add(name, verdicts.get(name) == "PASS", f"{tag}: {verdicts.get(name)}")
        all_pass = all(verdicts.get(name) == "PASS" for name in asserted)
        checks.add("exit-status", (child.returncode == 0) == all_pass,
                   f"{tag}: exit {child.returncode} with all_pass={all_pass}")
        if self.workload.oracle is not None:
            try:
                ok, detail = self.workload.oracle(self.cfg, outdir / "covariance.csv")
            except (OSError, ValueError, KeyError) as exc:
                ok, detail = False, str(exc)
            checks.add("covariance-oracle", ok, f"{tag}: {detail}")

        digests = csv_digests(outdir)
        if self.digests is None:
            self.digests = digests
            if self.ledger.exists():
                with open(self.ledger, encoding="utf-8") as fh:
                    recorded = json.load(fh)
                checks.add("csv-digests-ledger", recorded == digests,
                           f"{tag}: CSV bodies differ from an earlier run of this code")
            elif len(checks.failures) == failed_before:
                # only a battery that passed every check becomes the reference
                self.ledger.parent.mkdir(parents=True, exist_ok=True)
                tmp = self.ledger.with_suffix(".tmp")
                with open(tmp, "w", encoding="utf-8") as fh:
                    json.dump(digests, fh, indent=1, sort_keys=True)
                os.replace(tmp, self.ledger)
        else:
            checks.add("csv-digests-repeat", digests == self.digests,
                       f"{tag}: CSV bodies differ from battery 1 of this run")


def untraced(battery: Battery, seconds: float) -> tuple[dict[str, float], dict[str, float]]:
    """End-to-end metrics at the reference speed, and the raw figures."""
    setups = [battery.setup() for _ in range(SETUP_REPS)]
    children = []
    start = time.monotonic()
    while not children or time.monotonic() - start < seconds:
        # start no battery that the slowest one so far says would be killed
        if children and time.monotonic() + 1.5 * max(c.wall_s for c in children) > battery.deadline:
            break
        children.append(battery.run())
    med = statistics.median
    metrics = {
        "battery_s": med(c.wall_s * c.scale for c in children),
        "cpu_s": med(c.cpu_s * c.scale for c in children),
        "peak_rss_mb": med(c.rss_mb for c in children),
        "setup_s": med(c.wall_s * c.scale for c in setups),
    }
    raw = {
        "battery_wall_s": med(c.wall_s for c in children),
        "cpu_raw_s": med(c.cpu_s for c in children),
        "setup_wall_s": med(c.wall_s for c in setups),
        "speed": med(c.speed for c in children + setups),
        "batteries": len(children),
    }
    return metrics, raw


def traced(battery: Battery, checks: Checks) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics, and the raw figures of the two batteries."""
    plain = battery.run()
    summary_path = battery.scratch / "trace.json"
    traced_child = battery.run(summary_path)
    try:
        with open(summary_path, encoding="utf-8") as fh:
            summary = json.load(fh)
    except (OSError, ValueError) as exc:
        checks.add("trace-summary", False, str(exc))
        return {}, {}
    layers = summary["layers"]
    # spans nest: no span's children cover more than the span itself
    checks.add("trace-nesting", summary["min_self_s"] >= -1e-9,
               f"a span has self time {summary['min_self_s']:.3g} s")
    # the per-layer spans account for the traced battery, but for start-up
    remainder = traced_child.wall_s - summary["run_root_s"]
    checks.add("trace-coverage", 0 <= remainder <= UNCOVERED_SHARE * traced_child.wall_s,
               f"experiments.run_* cover {summary['run_root_s']:.3f} s of the traced "
               f"battery's {traced_child.wall_s:.3f} s")
    metrics = {m: layers[span][field] for m, (span, field) in PER_LAYER.items()}
    metrics["trace.overhead_s"] = (traced_child.wall_s * traced_child.scale
                                   - plain.wall_s * plain.scale)
    raw = {"battery_wall_s": plain.wall_s, "speed": plain.speed,
           "traced_wall_s": traced_child.wall_s, "traced_speed": traced_child.speed}
    return metrics, raw


def blas_threads() -> int | None:
    """The thread count of numpy's OpenBLAS in this interpreter."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(nproc: int) -> dict:
    """nproc, the CPU the benchmark runs on, interpreter and library
    versions, and the BLAS thread count of a child started on that CPU."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    code = (f"import sys; sys.path.insert(0, {str(BENCH)!r}); import json, run; "
            "print(json.dumps(run.blas_threads()))")
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    return {
        "nproc": nproc,
        "cpu": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": json.loads(child.stdout or "null"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [ROOT / "src" / "oulab" / "cli.py",
              ROOT / "configs" / WORKLOADS[args.workload].config]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: missing {', '.join(missing)}; run from a full checkout",
              file=sys.stderr)
        return 2

    # on SIGTERM, unwind so that a running child is killed and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # one CPU for the children and the speed probe, so the probe sees the
    # CPU the program runs on
    nproc = len(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    deadline = time.monotonic() + RUN_LIMIT_S
    checks = Checks()
    WORK.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        battery = Battery(args.workload, args.seed, scratch, checks, deadline)
        raw: dict[str, float] = {}
        if args.trace:
            metrics, raw = traced(battery, checks)
            units = {m: layer_unit(m) for m in list(PER_LAYER) + ["trace.overhead_s"]}
        else:
            metrics, raw = untraced(battery, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for failure in checks.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {units[name]}")
    for name, value in raw.items():
        unit = "count" if name == "batteries" else "ratio" if "speed" in name else "s"
        print(f"{args.workload} {name} {value:.6g} {unit} (raw)")
    ratio = len(checks.failures) / checks.attempted
    print(f"{args.workload} check_fail_ratio {ratio:.6g} ratio "
          f"({len(checks.failures)} of {checks.attempted} operations)")
    print("env " + json.dumps(environment(nproc), sort_keys=True))
    print(json.dumps({
        "correct": not checks.failures and len(metrics) == len(units),
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {name: {"value": metrics.get(name), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
