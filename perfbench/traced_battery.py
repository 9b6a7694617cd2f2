"""Run the oulab CLI with a span recorded around every call into each layer.

    PYTHONPATH=src python3 perfbench/traced_battery.py SUMMARY.json report-all CONFIG --outdir DIR

Each function in ``SPANS`` is replaced, at its owning module and at every
oulab module that bound it with ``from .x import y``, by a wrapper that
records a span (name, start, end, parent).  ``OperatorFamily.drift_matrix``
runs about a million times on dense models, so it only gets a call counter.
After the CLI returns, the spans are reduced to per-name aggregates written
to SUMMARY.json, and the process exits with the CLI's exit code.

The program itself is not modified: the wrappers are installed from here.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

from oulab import (cli, covariance, evolution, experiments, inequalities, linalg,
                   measures, mehler, models, reporting, rng, spde)


def _points(x) -> int:
    x = np.asarray(x)
    return 1 if x.ndim == 1 else x.shape[0]


def _model_key(args: dict) -> tuple:
    return id(args["model"]), float(args["s"]), float(args["t"])


# span name -> (owner, attribute, work count from the bound arguments or None,
# distinct key from the bound arguments or None)
SPANS = {
    **{f"experiments.{name}": (experiments, name, None, None) for name in (
        "run_evolve", "run_covariance", "run_invariance", "run_diffcheck",
        "run_logsob", "run_hyper", "run_spde", "run_ergodic")},
    "models.build_model": (models, "build_model", None, None),
    "evolution.propagator_matrix": (evolution, "propagator_matrix", None, _model_key),
    "evolution.fit_decay": (evolution, "fit_decay", None, None),
    "evolution.adjoint_by_integration": (evolution, "adjoint_by_integration", None, None),
    "covariance.accumulated": (covariance, "accumulated", None, _model_key),
    "covariance.mode_accumulated": (covariance, "mode_accumulated", None, None),
    "covariance.steady_state": (covariance, "steady_state", None, None),
    "rng.chunked_normals": (rng, "chunked_normals",
                            lambda a: a["count"] * a["dim"], None),
    "measures.sample": (measures, "sample", lambda a: a["count"], None),
    "measures.verify_invariance": (measures, "verify_invariance", None, None),
    "measures.verify_long_time_limit": (measures, "verify_long_time_limit", None, None),
    "mehler.evaluate": (mehler.TrigPolynomial, "evaluate",
                        lambda a: _points(a["x"]) * a["self"].n_terms, None),
    "mehler.propagate_trig": (mehler, "propagate_trig", None, None),
    "mehler.check_differentiation": (mehler, "check_differentiation", None, None),
    "inequalities.hypercontractivity_check": (inequalities, "hypercontractivity_check",
                                              None, None),
    "inequalities.entropy_gap": (inequalities, "entropy_gap", None, None),
    "inequalities.sharpness_probe": (inequalities, "sharpness_probe", None, None),
    # paths x steps x dim, on the program's own step grid over [s, t]
    "spde.simulate": (spde, "simulate", lambda a: a["count"] * a["model"].dim * (
        len(spde._step_grid(a["s"], a["t"], a["step"])) - 1), None),
    "spde.law_check": (spde, "law_check", None, None),
    "linalg.spectral_factor": (linalg, "spectral_factor", None, None),
    "reporting.write_csv": (reporting, "write_csv",
                            lambda a: os.path.getsize(a["path"]), None),
}
COUNTED = {"models.drift_matrix": (models.OperatorFamily, "drift_matrix")}


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.stack: list[int] = []
        self.work: dict[str, int] = defaultdict(int)
        self.keys: dict[str, set] = defaultdict(set)
        self.calls: dict[str, int] = defaultdict(int)

    def span(self, name, fn, work=None, key=None):
        sig = inspect.signature(fn)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0.0])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = clock()
            if work or key:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if work:
                    self.work[name] += int(work(bound.arguments))
                if key:
                    self.keys[name].add(key(bound.arguments))
            return out

        return wrapper

    def counter(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        wrappers = {}  # id(original) -> (original, wrapper)
        for name, (owner, attr, work, key) in SPANS.items():
            original = getattr(owner, attr)
            wrappers[id(original)] = (original, self.span(name, original, work, key))
            if isinstance(owner, type):
                setattr(owner, attr, wrappers[id(original)][1])
        for name, (owner, attr) in COUNTED.items():
            setattr(owner, attr, self.counter(name, getattr(owner, attr)))

        def wrapped(value):
            original, wrapper = wrappers.get(id(value), (None, None))
            return wrapper if original is value else value

        for mod in [m for n, m in sys.modules.items() if n.split(".")[0] == "oulab"]:
            for attr, value in list(vars(mod).items()):
                if wrapped(value) is not value:
                    setattr(mod, attr, wrapped(value))
        for sub, fn in experiments.SUBCOMMANDS.items():
            experiments.SUBCOMMANDS[sub] = wrapped(fn)

    def summary(self) -> dict:
        """Per-name calls, self time, total time and work, plus two figures
        for the accounting checks.

        Self time is a span's duration minus the durations of its direct
        children; total time counts only spans with no ancestor of the same
        name, so recursion is not counted twice.  ``min_self_s`` is the
        smallest self time of any single span (negative only if spans
        overlap or are misnested); ``run_root_s`` is the time covered by the
        top-level ``experiments.run_*`` spans.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for _, parent, start, end in spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "work": self.work[name],
                      "distinct": len(self.keys[name])} for name in SPANS}
        run_root_s, min_self = 0.0, float("inf")
        for i, (name, parent, start, end) in enumerate(spans):
            agg = out[name]
            agg["calls"] += 1
            agg["self_s"] += end - start - child[i]
            min_self = min(min_self, end - start - child[i])
            up = parent
            while up >= 0 and spans[up][0] != name:
                up = spans[up][1]
            if up < 0:
                agg["total_s"] += end - start
            if parent < 0 and name.startswith("experiments.run_"):
                run_root_s += end - start
        for name in COUNTED:
            out[name] = {"calls": self.calls[name]}
        return {"layers": out, "run_root_s": run_root_s, "min_self_s": min_self}


def main(argv: list[str]) -> int:
    summary_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
