"""Bodies of the CLI subcommands.

Each ``run_*`` function drives one family of checks for the configured
model, writes its CSV artifacts into the output directory, and records
PASS/FAIL/REPORT verdicts on the shared RunReport; the parameters that
every model shares are the module constants below.  ``run_suite`` turns
one of oulab's numerical errors raised by a subcommand into an ERROR
verdict and goes on with the next.  All randomness is derived from the
configured seed through labelled substreams, so artifact bodies are
byte-identical across runs.
"""

from __future__ import annotations

import math
import resource
import time
from pathlib import Path

import numpy as np

from . import covariance as cov
from . import evolution as evo
from . import inequalities as ineq
from . import measures as meas
from . import mehler
from . import spde
from .config import ConfigError, ExperimentConfig
from .integrators import IntegratorDivergedError
from .linalg import NotPSDError, operator_norm
from .models import BadParameterError, OperatorFamily, WindowExceededError, build_model
from .reporting import RunReport, write_csv, write_json
from .rng import seed_stream

TOL_CHAIN = 1e-8  # evolve.chain-law: bound on |U(t,s) - U(t,r) U(r,s)|
REF_T = 0.0  # reference time t of logsob, hyper, spde and ergodic
HYPER_Q = 2.0  # hyper: the norm exponent q mapped to p along p_max(q, t - s)
HYPER_GAP = math.log(2.0)  # hyper: t - s
LOGSOB_P_VALUES = (1.5, 2.0, 3.0)  # logsob: the exponents p of the entropy bound
ERGODIC_S_VALUES = (-1.0, -2.0, -4.0, -8.0)  # ergodic: receding start times s


def _pairs(cfg: ExperimentConfig) -> list[tuple[float, float]]:
    return [(s, t) for s in cfg.s_values for t in cfg.t_values if s < t]


def _system(model: OperatorFamily, cfg: ExperimentConfig) -> meas.EvolutionSystem:
    """Evolution system for the model: infinite-horizon when decay permits,
    unless the tail cutoff of the earliest time the battery asks of it leaves
    a window that holds that time; anchored at a finite start otherwise."""
    if cfg.anchor is not None:
        return meas.gaussian_system(model, anchor=cfg.anchor)
    earliest = min(min(cfg.s_values), REF_T - HYPER_GAP)
    if model.decay is not None and model.decay[1] > 0:
        if earliest < model.window[0] or cov.tail_cutoff(model, earliest)[0] >= model.window[0]:
            return meas.gaussian_system(model)
    elif "mean_scale" in model.meta:
        # integrable slow mode, no decay certificate: an explicit cutoff far
        # in the past, whose tail steady_state leaves unbounded (None)
        return meas.gaussian_system(model, s_star=max(-200.0, model.window[0] + 1.0))
    return meas.gaussian_system(model, anchor=max(model.window[0], earliest - 2.0))


def _seeded_triples(model, cfg):
    gen = seed_stream(cfg.seed, "triples")
    lo = max(model.window[0], min(cfg.s_values) - 1.0)
    hi = min(model.window[1], max(cfg.t_values) + 1.0)
    if hi <= lo:
        raise WindowExceededError(f"the grids lie outside the window {model.window}")
    span = min(cfg.triple_span, hi - lo)
    for _ in range(cfg.triple_count):
        base = lo + (hi - lo - span) * gen.random()
        offs = np.sort(gen.random(2)) * span
        yield base, base + offs[0], base + offs[1]


def _adjoint_spans(model, cfg):
    """Five seeded spans of the dense adjoint cross-check: s within 1 after
    the earliest grid start and t - s in [0.5, 1.5], both shrunk by one
    factor when the window ends less than 2.5 after that start."""
    gen = seed_stream(cfg.seed, "adjoint")
    lo = max(model.window[0], min(cfg.s_values))
    f = min(1.0, (model.window[1] - lo) / 2.5)
    if f <= 0.0:
        raise WindowExceededError(f"the grids start at or after the window end {model.window[1]:g}")
    for _ in range(5):
        s = lo + f * gen.random()
        yield s, s + 0.5 * f + f * gen.random()


def run_evolve(model, cfg, report: RunReport, outdir: Path) -> None:
    rows, worst = [], 0.0
    for s, r, t in _seeded_triples(model, cfg):
        direct = evo.propagator_matrix(model, s, t)
        chained = evo.propagator_matrix(model, r, t) @ evo.propagator_matrix(model, s, r)
        resid = operator_norm(direct - chained)
        worst = max(worst, resid)
        rows.append((s, r, t, resid))
    write_csv(outdir / "evolution_chain.csv", ["s", "r", "t", "chain_residual"], rows)
    report.add("evolve.chain-law",
               "PASS" if worst <= TOL_CHAIN else "FAIL",
               f"max residual {worst:.3e} vs {TOL_CHAIN:.0e} on {len(rows)} triples")

    if model.kind == "dense":
        bad = 0.0
        for s, t in _adjoint_spans(model, cfg):
            gap = operator_norm(evo.propagator_matrix(model, s, t).T
                                - evo.adjoint_by_integration(model, s, t))
            bad = max(bad, gap)
        report.add("evolve.adjoint", "PASS" if bad <= 1e-8 else "FAIL",
                   f"max deviation {bad:.3e} between transpose and dual solve")

    pairs = _pairs(cfg)
    certs = {}
    cert_op = evo.fit_decay(model, pairs, mode="operator")
    certs["operator"] = cert_op.as_dict()
    try:
        cert_cm = evo.fit_decay(model, pairs, mode="cameron-martin")
        certs["cameron_martin"] = cert_cm.as_dict()
        sound = all(evo.measured_norm(model, s, t, "cameron-martin")
                    <= cert_cm.bound(s, t) * (1.0 + cert_cm.slack) for s, t in pairs[:10])
    except (evo.FitFailedError, evo.RangeIncompatibleError) as exc:
        # no range-norm certificate on this window is a legitimate outcome
        certs["cameron_martin"] = {"error": str(exc)}
        sound = True
    write_json(outdir / "decay_certificates.json", certs)
    report.add("evolve.decay-certificates", "PASS" if sound else "FAIL",
               f"operator rate {cert_op.rate:.6g}")


def run_covariance(model, cfg, report: RunReport, outdir: Path) -> None:
    pairs = _pairs(cfg)
    rows = []
    for s, t in pairs:
        k = cov.accumulated(model, s, t).matrix
        for i in range(model.dim):
            for j in range(i, model.dim):
                rows.append((s, t, i, j, k[i, j]))
    write_csv(outdir / "covariance.csv", ["s", "t", "i", "j", "value"], rows)

    worst = 0.0
    for s, r, t in list(_seeded_triples(model, cfg))[:10]:
        if not (s < r < t):
            continue
        u = evo.propagator_matrix(model, r, t)
        whole = cov.accumulated(model, s, t).matrix
        split = u @ cov.accumulated(model, s, r).matrix @ u.T + cov.accumulated(model, r, t).matrix
        worst = max(worst, float(np.abs(whole - split).max()))
    report.add("covariance.flow-decomposition", "PASS" if worst <= 1e-8 else "FAIL",
               f"max residual {worst:.3e}")

    gen = seed_stream(cfg.seed, "cov-derivative")
    s, t = pairs[0]
    drows, bad = [], 0.0
    for probe in range(3):
        v = gen.standard_normal(model.dim)
        v /= np.linalg.norm(v)
        fwd = cov.check_forward_derivative(model, s, t, v)
        bwd = cov.check_backward_derivative(model, s, t, v)
        drows.append((s, t, probe, "forward", fwd.fd_value, fwd.formula_value, fwd.abs_discrepancy))
        drows.append((s, t, probe, "backward", bwd.fd_value, bwd.formula_value, bwd.abs_discrepancy))
        bad = max(bad, fwd.abs_discrepancy, bwd.abs_discrepancy)
    write_csv(outdir / "covariance_derivatives.csv",
              ["s", "t", "probe", "side", "fd", "formula", "discrepancy"], drows)
    report.add("covariance.derivatives", "PASS" if bad <= cfg.tol_fd else "FAIL",
               f"max discrepancy {bad:.3e} at step {fwd.fd_step:g}")

    if model.decay is not None and model.decay[1] > 0:
        t0 = float(cfg.t_values[0])
        zeta = model.decay[1]
        horizons = [c / zeta for c in (2.0, 4.0, 8.0, 16.0)
                    if t0 - c / zeta >= model.window[0]]
        if len(horizons) < 2:
            report.add("covariance.monotone-horizon", "REPORT",
                       f"window {model.window} holds {len(horizons)} of the 4 "
                       f"horizons before t = {t0:g}; monotonicity is not checked")
            return
        traces = [np.trace(cov.accumulated(model, t0 - h, t0).matrix) for h in horizons]
        rows = list(zip(horizons, traces))
        s_star = cov.tail_cutoff(model, t0)[0]
        if s_star >= model.window[0]:
            limit = np.trace(cov.steady_state(model, t0).matrix)
            rows.append(("inf", limit))
            detail = f"trace climbs to {limit:.6g}"
        else:
            detail = (f"trace climbs to {traces[-1]:.6g} at horizon {horizons[-1]:g}; the "
                      f"tail cutoff {s_star:.3f} falls before window start {model.window[0]:g}, "
                      "so there is no inf row")
        monotone = all(b >= a - 1e-12 for a, b in zip(traces, traces[1:]))
        write_csv(outdir / "covariance_horizon.csv", ["horizon", "trace"], rows)
        report.add("covariance.monotone-horizon", "PASS" if monotone else "FAIL", detail)


def run_invariance(model, cfg, report: RunReport, outdir: Path) -> None:
    system = _system(model, cfg)
    probes = meas.default_probes(model.dim, cfg.seed, random_count=cfg.probe_count)
    probes = probes[:cfg.probe_count]
    pairs = _pairs(cfg)
    rep = meas.verify_invariance(system, model, pairs, probes, tol=cfg.tol_invariance)
    rows = [(s, t, j, d) for s, t, j, d in rep.rows]
    write_csv(outdir / "invariance.csv", ["s", "t", "probe", "discrepancy"], rows)
    report.add("invariance.gaussian-system", "PASS" if rep.passed else "FAIL",
               f"{system.label}: max {rep.max_discrepancy:.3e} over "
               f"{len(pairs)} pairs x {rep.probe_count} probes, dual {rep.dual_max:.3e}")

    scale = model.meta.get("mean_scale")
    if scale is not None:
        # the scale solves the mode-1 flow, so scale(t) e_1 is U-invariant
        e1 = np.eye(model.dim)[0]
        shifted = meas.point_shifted_system(system, lambda t: scale(t) * e1, "shifted-by-flow")
        rep2 = meas.verify_invariance(shifted, model, pairs, probes, tol=cfg.tol_invariance)
        write_csv(outdir / "invariance_shifted.csv", ["s", "t", "probe", "discrepancy"],
                  [(s, t, j, d) for s, t, j, d in rep2.rows])
        report.add("invariance.shifted-system", "PASS" if rep2.passed else "FAIL",
                   f"max {rep2.max_discrepancy:.3e}: a second system passes")


def run_diffcheck(model, cfg, report: RunReport, outdir: Path) -> None:
    gen = seed_stream(cfg.seed, "diffcheck")
    pairs = _pairs(cfg)[:2]
    rows, worst, ratios = [], 0.0, []
    for probe in range(20):
        s, t = pairs[probe % len(pairs)]
        freq = gen.standard_normal(model.dim)
        poly = mehler.TrigPolynomial.plane_wave(freq)
        x = gen.standard_normal(model.dim)
        rep = mehler.check_differentiation(model, s, t, poly, x)
        worst = max(worst, rep.start_discrepancy, rep.end_discrepancy)
        ratios.extend([rep.start_order_ratio, rep.end_order_ratio])
        rows.append((probe, s, t, rep.start_discrepancy, rep.end_discrepancy,
                     rep.start_order_ratio, rep.end_order_ratio))
    write_csv(outdir / "diffcheck.csv",
              ["probe", "s", "t", "start_disc", "end_disc", "start_ratio", "end_ratio"], rows)
    report.add("diffcheck.formulas", "PASS" if worst <= cfg.tol_fd else "FAIL",
               f"max discrepancy {worst:.3e} on 20 trig probes")
    med = float(np.median(ratios))
    report.add("diffcheck.fd-order", "PASS" if 3.5 <= med <= 4.5 else "FAIL",
               f"median halving ratio {med:.2f}")


def _kappa_or_report(model, cfg, report, check_name) -> tuple[float | None, dict | None]:
    """kappa and the range-norm certificate it comes from.  Inadmissible
    certificates (rate <= 0 on the window) are a legitimate outcome for
    models without decay; the check then reports instead of asserting."""
    try:
        cert = evo.fit_decay(model, _pairs(cfg), mode="cameron-martin")
        return ineq.log_sobolev_constant(cert), cert.as_dict()
    except (ineq.BadCertificateError, evo.FitFailedError) as exc:
        report.add(check_name, "REPORT",
                   f"no admissible range-norm certificate on this window ({exc}); "
                   "inequality checks skipped")
        return None, None


def run_logsob(model, cfg, report: RunReport, outdir: Path) -> None:
    kappa, cert = _kappa_or_report(model, cfg, report, "logsob.entropy-bound")
    if kappa is None:
        return
    system = _system(model, cfg)
    rows, all_pass = [], True
    for phi in ineq.default_entropy_probes(model.dim):
        for p in LOGSOB_P_VALUES:
            rep = ineq.entropy_gap(model, REF_T, phi, p, kappa, system=system)
            all_pass &= rep.passed
            rows.append((REF_T, p, rep.label, rep.lhs, rep.rhs, rep.slack,
                         rep.lhs_err + rep.rhs_err, "PASS" if rep.passed else "FAIL"))
    write_csv(outdir / "logsob.csv",
              ["t", "p", "probe", "entropy", "energy_bound", "slack", "err", "verdict"], rows)
    write_json(outdir / "logsob_constant.json", {"kappa": kappa, "certificate": cert})
    report.add("logsob.entropy-bound", "PASS" if all_pass else "FAIL",
               f"kappa {kappa:.6g}; {len(rows)} probe/exponent cells")

    agree = True
    for phi in ineq.default_entropy_probes(model.dim)[:3]:
        quad = ineq.entropy_gap(model, REF_T, phi, 2.0, kappa, system=system)
        mc = ineq.entropy_gap(model, REF_T, phi, 2.0, kappa, system=system,
                              method="mc", count=cfg.mc_samples, seed=cfg.seed)
        tol = 4.0 * max(mc.lhs_err + mc.rhs_err, 1e-12)
        agree &= abs(quad.lhs - mc.lhs) <= tol and abs(quad.rhs - mc.rhs) <= tol
    report.add("logsob.quadrature-vs-mc", "PASS" if agree else "FAIL",
               "quadrature and Monte Carlo entropies agree within 4 stderr")


def _hyper_probes(model, cfg) -> list[mehler.TrigPolynomial]:
    gen = seed_stream(cfg.seed, "hyper-probes")
    probes = []
    for _ in range(10):
        poly = mehler.TrigPolynomial.constant(model.dim, 2.0)
        for _ in range(2):
            h = gen.standard_normal(model.dim)
            poly = poly + float(gen.uniform(-1, 1)) * mehler.TrigPolynomial.cosine(h)
            poly = poly + float(gen.uniform(-1, 1)) * mehler.TrigPolynomial.sine(h)
        probes.append(poly)
    return probes


def run_hyper(model, cfg, report: RunReport, outdir: Path) -> None:
    kappa, _ = _kappa_or_report(model, cfg, report, "hyper.norm-inequality")
    if kappa is None:
        return
    system = _system(model, cfg)
    t = REF_T
    s = t - HYPER_GAP
    p_values = list(cfg.hyper_p_values) + [HYPER_Q]
    probes = _hyper_probes(model, cfg)
    by_probe = [ineq.hyper_quadrature(model, s, t, HYPER_Q, p_values, phi, kappa, system=system)
                for phi in probes]
    rows, all_pass = [], True
    for k, p in enumerate(p_values):
        for i, reports in enumerate(by_probe):
            rep = reports[k]
            all_pass &= rep.passed
            rows.append((s, t, HYPER_Q, p, rep.p_max, i, rep.lhs, rep.rhs,
                         rep.lhs_err + rep.rhs_err, "PASS" if rep.passed else "FAIL"))
    write_csv(outdir / "hyper.csv",
              ["s", "t", "q", "p", "p_max", "probe", "lhs_norm", "rhs_norm", "err", "verdict"],
              rows)
    report.add("hyper.norm-inequality", "PASS" if all_pass else "FAIL",
               f"kappa {kappa:.6g}, curve p_max {ineq.exponent_curve(HYPER_Q, t - s, kappa):.4g}")

    # Monte Carlo on the first probes: one sample and one propagation per
    # probe serve every exponent
    worst = 0.0
    for i, phi in enumerate(probes[:3]):
        mc = ineq.hypercontractivity_check(model, s, t, HYPER_Q, p_values, phi, kappa,
                                           cfg.mc_samples, cfg.seed + i, system=system)
        for quad, sampled in zip(by_probe[i], mc):
            tol = max(4.0 * (sampled.lhs_err + sampled.rhs_err)
                      + quad.lhs_err + quad.rhs_err, 1e-12)
            worst = max(worst, abs(quad.lhs - sampled.lhs) / tol,
                        abs(quad.rhs - sampled.rhs) / tol)
    report.add("hyper.quadrature-vs-mc", "PASS" if worst <= 1.0 else "FAIL",
               f"quadrature and Monte Carlo norms differ by at most {worst:.3f} of "
               "4 stderr plus the quadrature error, on 3 probes")

    fam = ineq.capped_exponential_family(model.dim)
    srows = ineq.sharpness_probe(model, s, t, HYPER_Q, cfg.sharpness_p_values, fam, kappa,
                                 system=system)
    write_csv(outdir / "hyper_sharpness.csv",
              ["p", "probe", "ratio", "err", "violates"],
              [(r.p, r.label, r.ratio, r.ratio_err, r.violates) for r in srows])
    best = max(srows, key=lambda r: r.ratio)
    report.add("hyper.sharpness-probe", "REPORT",
               f"max ratio {best.ratio:.4f} at p={best.p:g} ({best.label}); "
               f"{sum(r.violates for r in srows)} violation(s) beyond the curve")


def run_spde(model, cfg, report: RunReport, outdir: Path) -> None:
    s = REF_T
    t = s + 1.0
    x0 = np.eye(model.dim)[0]
    ens = spde.simulate(model, s, t, x0, cfg.spde_step, cfg.spde_paths, cfg.seed)
    law = spde.law_check(ens, model, s, t, x0)
    report.add("spde.terminal-law", "PASS" if law.passed else "FAIL",
               f"max z mean {law.mean_z_max:.2f}, cov {law.cov_z_max:.2f}")

    poly = mehler.TrigPolynomial.cosine(np.eye(model.dim)[0])
    exact = mehler.apply_exact(model, s, t, poly, x0).real
    vals = np.asarray(poly.evaluate(ens.terminal)).real
    stderr = float(vals.std(ddof=1)) / math.sqrt(len(vals))
    gap = abs(float(vals.mean()) - exact)
    report.add("spde.observable-consistency",
               "PASS" if gap <= 4.0 * stderr + 1e-12 else "FAIL",
               f"|mc - exact| = {gap:.3e} vs 4 stderr {4*stderr:.3e}")

    rows = []
    for pid in range(min(spde.HEAD, ens.count)):
        for k, tt in enumerate(ens.times):
            for i in range(model.dim):
                rows.append((pid, tt, i, ens.states[pid, i, k]))
    write_csv(outdir / "spde_paths.csv", ["path", "time", "coord", "value"], rows)


def run_ergodic(model, cfg, report: RunReport, outdir: Path) -> None:
    if model.decay is None or model.decay[1] <= 0:
        report.add("ergodic.long-time-limit", "REPORT",
                   "model has no certified decay rate; the start-time limit "
                   "need not exist and is not checked")
        return
    s_values = [s for s in ERGODIC_S_VALUES if s >= model.window[0]]
    if len(s_values) < 2:
        report.add("ergodic.long-time-limit", "REPORT",
                   f"window {model.window} holds {len(s_values)} of the "
                   f"{len(ERGODIC_S_VALUES)} start times; the limit is not checked")
        return
    system = _system(model, cfg)
    e1 = np.eye(model.dim)[0]
    poly = mehler.TrigPolynomial.plane_wave(e1)
    rep = meas.verify_long_time_limit(model, REF_T, e1, s_values, poly, system=system)
    rows = list(zip(rep.s_values, rep.differences, rep.schedule_bound))
    write_csv(outdir / "ergodic.csv", ["s", "difference", "schedule_bound"], rows)
    ok = rep.monotone and rep.final_below
    report.add("ergodic.long-time-limit", "PASS" if ok else "FAIL",
               f"final gap {rep.differences[-1]:.3e} (tol {rep.tol_final:g}), "
               f"monotone={rep.monotone}")


# what a subcommand may raise on a model or window the numerics cannot serve
NUMERICAL_ERRORS = (WindowExceededError, IntegratorDivergedError, cov.NoDecayError, NotPSDError,
                    evo.FitFailedError, ineq.BadCertificateError, ineq.NonPositiveMeanError)

SUBCOMMANDS = {
    "evolve": run_evolve,
    "covariance": run_covariance,
    "invariance": run_invariance,
    "diffcheck": run_diffcheck,
    "logsob": run_logsob,
    "hyper": run_hyper,
    "spde": run_spde,
    "ergodic": run_ergodic,
}


def run_suite(name: str, cfg: ExperimentConfig, outdir: Path) -> RunReport:
    from . import __version__

    window = {} if cfg.window is None else {"window": cfg.window}
    try:
        model = build_model(cfg.model_name, {**cfg.model_params, **window})
    except BadParameterError as exc:
        raise ConfigError(str(exc)) from exc
    report = RunReport(cfg.to_text(), __version__)
    outdir.mkdir(parents=True, exist_ok=True)
    for sub in SUBCOMMANDS if name == "report-all" else (name,):
        start = time.perf_counter()
        try:
            SUBCOMMANDS[sub](model, cfg, report, outdir)
        except NUMERICAL_ERRORS as exc:
            report.add(f"{sub}.error", "ERROR", f"{type(exc).__name__}: {exc}")
        report.subcommand_seconds[sub] = time.perf_counter() - start
    report.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # from KiB
    report.write(outdir)
    return report
