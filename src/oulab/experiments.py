"""Bodies of the CLI subcommands.

Each ``run_*`` function drives one family of checks for the configured
model, writes its CSV artifacts into the output directory, and records
its checks on the shared RunReport: each asserted one as a (value, bound)
record, each piece of evidence as a REPORT row; the parameters that
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
from .linalg import NonSymmetricError, NotPSDError, operator_norm
from .models import BadParameterError, OperatorFamily, WindowExceededError, build_model
from .reporting import RunReport, write_csv, write_json
from .rng import seed_stream

TOL_CHAIN = 1e-12  # evolve.chain-law: bound on |U(t,s) - U(t,r) U(r,s)| / (|U(t,r)| |U(r,s)|)
REF_T = 0.0  # reference time t of logsob, hyper, spde and ergodic
HYPER_Q = 2.0  # hyper: the norm exponent q mapped to p along p_max(q, t - s)
HYPER_GAP = math.log(2.0)  # hyper: t - s
LOGSOB_P_VALUES = (1.5, 2.0, 3.0)  # logsob: the exponents p of the entropy bound
ERGODIC_S_VALUES = (-1.0, -2.0, -4.0, -8.0)  # ergodic: receding start times s
FD_STEP = 1e-4  # covariance and diffcheck: the central-difference step in s and t


def _worst(values, floor: float = 0.0) -> float:
    """The largest of the values and ``floor``, NaN if any value is NaN
    (Python's ``max`` drops a NaN that is not its first argument)."""
    return float(np.max(list(values), initial=floor))


def _cross_check_ratios(quad, mc) -> list[float]:
    """|quadrature - Monte Carlo| of lhs and rhs over 4 stderr plus the
    quadrature error (at least 1e-12): both quadrature-vs-mc checks."""
    tol = max(4.0 * (mc.lhs_err + mc.rhs_err) + quad.lhs_err + quad.rhs_err, 1e-12)
    return [abs(quad.lhs - mc.lhs) / tol, abs(quad.rhs - mc.rhs) / tol]


def _pairs(cfg: ExperimentConfig) -> list[tuple[float, float]]:
    return [(s, t) for s in cfg.s_values for t in cfg.t_values if s < t]


def _stencil_pairs(model, cfg, report: RunReport, check: str) -> list[tuple[float, float]]:
    """The grid pairs whose finite-difference stencils s +- FD_STEP and
    t +- FD_STEP lie in the window and apart; without one, a REPORT row for
    ``check`` names the window."""
    lo, hi = model.window
    pairs = [(s, t) for s, t in _pairs(cfg)
             if lo <= s - FD_STEP and s + FD_STEP <= t - FD_STEP and t + FD_STEP <= hi]
    if not pairs:
        report.add(check, "REPORT", f"no grid pair's stencils s +- {FD_STEP:g} and t +- "
                   f"{FD_STEP:g} lie apart in the window {model.window}; not checked")
    return pairs


def _system(model: OperatorFamily, cfg: ExperimentConfig) -> meas.EvolutionSystem:
    """Evolution system for the model: the certified infinite-horizon system
    when the model decays, unless the tail cutoff of the earliest time the
    battery asks of it leaves a window that holds that time; otherwise the
    exact system anchored at a start derived from the window and the grids:
    far in the past for an integrable slow mode (``meta["mean_scale"]``),
    two before the earliest time for any other model."""
    earliest = min(min(cfg.s_values), REF_T - HYPER_GAP)
    if model.decay is not None and model.decay[1] > 0:
        if earliest < model.window[0] or cov.tail_cutoff(model, earliest)[0] >= model.window[0]:
            return meas.gaussian_system(model)
    if "mean_scale" in model.meta:
        return meas.gaussian_system(model, anchor=max(-200.0, model.window[0] + 1.0))
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


def run_evolve(model, cfg, report: RunReport, outdir: Path) -> None:
    triples = list(_seeded_triples(model, cfg))
    rows, relative = [], []
    for s, r, t in triples:
        direct = evo.propagator_matrix(model, s, t)
        late, early = evo.propagator_matrix(model, r, t), evo.propagator_matrix(model, s, r)
        residual = operator_norm(direct - late @ early)
        rows.append((s, r, t, residual))
        relative.append(residual / (operator_norm(late) * operator_norm(early)))
    write_csv(outdir / "evolution_chain.csv", ["s", "r", "t", "chain_residual"], rows)
    report.check("evolve.chain-law", _worst(relative), TOL_CHAIN,
                 f"max residual relative to |U(t,r)| |U(r,s)| on {len(rows)} triples")

    if model.kind == "dense":
        # the outer spans (s, t) of the first chain-law triples, in the window by construction
        spans = [(s, t) for s, _, t in triples[:5]]
        flows = [evo.propagator_matrix(model, s, t) for s, t in spans]
        bad = _worst(operator_norm(u.T - evo.adjoint_by_integration(model, s, t)) / operator_norm(u)
                     for u, (s, t) in zip(flows, spans))
        report.check("evolve.adjoint", bad, 1e-8, "max deviation between transpose and dual "
                     f"solve relative to |U(t,s)| on {len(spans)} spans")

    pairs = _pairs(cfg)
    fitted = [evo.fit_decay(model, pairs, mode="operator")]
    certs = {"operator": fitted[0].as_dict()}
    try:
        fitted.append(evo.fit_decay(model, pairs, mode="cameron-martin"))
        certs["cameron_martin"] = fitted[1].as_dict()
    except evo.FitFailedError as exc:
        # no range-norm certificate on this window is a legitimate outcome
        certs["cameron_martin"] = {"error": str(exc)}
    write_json(outdir / "decay_certificates.json", certs)
    excess = _worst((evo.measured_norm(model, s, t, c.mode) - c.bound(s, t) * (1 + evo.CERT_SLACK)
                     for c in fitted for s, t in pairs[:10]), -math.inf)
    report.check("evolve.decay-certificates", excess, 0.0,
                 f"operator rate {fitted[0].rate:.6g}; measured norm minus the bound of "
                 f"{len(fitted)} certificate(s) on {len(pairs[:10])} fitted pairs")


def run_covariance(model, cfg, report: RunReport, outdir: Path) -> None:
    pairs = _pairs(cfg)
    upper = np.triu_indices(model.dim)  # row by row, j >= i
    rows = [(s, t, i, j, k) for s, t in pairs
            for i, j, k in zip(*upper, cov.accumulated(model, s, t).entries[upper])]
    write_csv(outdir / "covariance.csv", ["s", "t", "i", "j", "value"], rows)

    resids = []
    for s, r, t in list(_seeded_triples(model, cfg))[:10]:
        u = evo.propagator_matrix(model, r, t)
        whole = cov.accumulated(model, s, t).entries
        split = (u @ cov.accumulated(model, s, r).entries @ u.T
                 + cov.accumulated(model, r, t).entries)
        resids.append(np.abs(whole - split).max() / np.abs(whole).max())
    report.check("covariance.flow-decomposition", _worst(resids), 1e-12,
                 f"max residual relative to max|K(t,s)| on {len(resids)} triples")

    gen = seed_stream(cfg.seed, "cov-derivative")
    pairs = _stencil_pairs(model, cfg, report, "covariance.derivatives")
    if pairs:
        s, t = pairs[0]
        drows, extrapolated = [], []
        for probe in range(3):
            v = gen.standard_normal(model.dim)
            v /= np.linalg.norm(v)
            fwd = cov.check_forward_derivative(model, s, t, v, FD_STEP)
            bwd = cov.check_backward_derivative(model, s, t, v, FD_STEP)
            drows += [(s, t, probe, side, rep.fd_value, rep.formula_value, rep.abs_discrepancy)
                      for side, rep in (("forward", fwd), ("backward", bwd))]
            extrapolated += [fwd.extrapolated, bwd.extrapolated]
        write_csv(outdir / "covariance_derivatives.csv",
                  ["s", "t", "probe", "side", "fd", "formula", "discrepancy"], drows)
        report.check("covariance.derivatives", _worst(extrapolated), 1e-8,
                     f"max discrepancy of the Richardson value at step {FD_STEP:g}")

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
        traces = [np.trace(cov.accumulated(model, t0 - h, t0).entries) for h in horizons]
        rows = list(zip(horizons, traces))
        s_star = cov.tail_cutoff(model, t0)[0]
        if s_star >= model.window[0]:
            limit = np.trace(cov.steady_state(model, t0).entries)
            rows.append(("inf", limit))
            detail = f"trace climbs to {limit:.6g}"
        else:
            detail = (f"trace climbs to {traces[-1]:.6g} at horizon {horizons[-1]:g}; the "
                      f"tail cutoff {s_star:.3f} falls before window start {model.window[0]:g}, "
                      "so there is no inf row")
        write_csv(outdir / "covariance_horizon.csv", ["horizon", "trace"], rows)
        report.check("covariance.monotone-horizon",
                     float(np.max(np.subtract(traces[:-1], traces[1:]))), 1e-12,
                     f"{detail}; largest fall of the trace")


def run_invariance(model, cfg, report: RunReport, outdir: Path) -> None:
    system = _system(model, cfg)
    probes = meas.default_probes(model.dim, cfg.seed, cfg.probe_count)
    pairs = _pairs(cfg)
    rep = meas.verify_invariance(system, model, pairs, probes, tol=1e-8)
    write_csv(outdir / "invariance.csv", ["s", "t", "probe", "discrepancy"], rep.rows)
    report.check("invariance.gaussian-system", rep.max_discrepancy, rep.tol,
                 f"{system.label}: max {rep.max_discrepancy:.3e} over {len(pairs)} pairs x "
                 f"{len(probes)} probes")

    scale = model.meta.get("mean_scale")
    if scale is not None:
        # the scale solves the mode-1 flow, so scale(t) e_1 is U-invariant
        e1 = np.eye(model.dim)[0]
        shifted = meas.point_shifted_system(system, lambda t: scale(t) * e1, "shifted-by-flow")
        rep2 = meas.verify_invariance(shifted, model, pairs, probes, tol=1e-8)
        write_csv(outdir / "invariance_shifted.csv", ["s", "t", "probe", "discrepancy"],
                  rep2.rows)
        report.check("invariance.shifted-system", rep2.max_discrepancy, rep2.tol,
                     f"max {rep2.max_discrepancy:.3e}: a second system passes")


def run_diffcheck(model, cfg, report: RunReport, outdir: Path) -> None:
    pairs = _stencil_pairs(model, cfg, report, "diffcheck.formulas")[:2]
    if not pairs:
        return
    gen = seed_stream(cfg.seed, "diffcheck")
    rows, extrapolated = [], []
    for probe in range(20):
        s, t = pairs[probe % len(pairs)]
        poly = mehler.TrigPolynomial.plane_wave(gen.standard_normal(model.dim))
        x = gen.standard_normal(model.dim)
        rep = mehler.check_differentiation(model, s, t, poly, x, FD_STEP)
        rows.append((probe, s, t, rep.start_discrepancy, rep.end_discrepancy,
                     rep.start_order_ratio, rep.end_order_ratio))
        extrapolated += [rep.start_extrapolated, rep.end_extrapolated]
    write_csv(outdir / "diffcheck.csv",
              ["probe", "s", "t", "start_disc", "end_disc", "start_ratio", "end_ratio"], rows)
    report.check("diffcheck.formulas", _worst(extrapolated), 1e-8,
                 "max discrepancy of the Richardson value (4 D(h/2) - D(h))/3 on 20 trig probes")
    med = float(np.median([r for row in rows for r in row[5:7]]))
    report.check("diffcheck.fd-order", abs(med - 4.0), 0.5,
                 f"median halving ratio {med:.2f}, distance from 4")


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
    probes = ineq.default_entropy_probes(model.dim)
    by_probe = [[ineq.entropy_gap(model, REF_T, phi, p, kappa, system=system)
                 for p in LOGSOB_P_VALUES] for phi in probes]
    rows = [(REF_T, rep.p, rep.label, rep.lhs, rep.rhs, rep.slack, rep.lhs_err + rep.rhs_err,
             "PASS" if rep.passed else "FAIL") for reports in by_probe for rep in reports]
    write_csv(outdir / "logsob.csv",
              ["t", "p", "probe", "entropy", "energy_bound", "slack", "err", "verdict"], rows)
    write_json(outdir / "logsob_constant.json", {"kappa": kappa, "certificate": cert})
    report.check("logsob.entropy-bound",
                 _worst((rep.excess for reports in by_probe for rep in reports), -math.inf), 0.0,
                 f"kappa {kappa:.6g}; worst -slack - 3 err of {len(rows)} probe/exponent cells")

    # Monte Carlo at p = 2 on the first three probes, each its own sample,
    # against the loop's reports
    gaps = []
    for i, (phi, reports) in enumerate(zip(probes[:3], by_probe)):
        quad = reports[LOGSOB_P_VALUES.index(2.0)]
        mc = ineq.entropy_gap(model, REF_T, phi, 2.0, kappa, system=system,
                              method="mc", count=cfg.mc_samples, seed=cfg.seed + i)
        gaps += _cross_check_ratios(quad, mc)
    report.check("logsob.quadrature-vs-mc", _worst(gaps), 1.0,
                 "largest gap between quadrature and Monte Carlo entropy sides over "
                 "4 stderr plus the quadrature error, on 3 probes")


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
    s, t = REF_T - HYPER_GAP, REF_T
    p_values = list(cfg.hyper_p_values) + [HYPER_Q]
    probes = _hyper_probes(model, cfg)
    by_probe = [ineq.hypercontractivity_check(model, s, t, HYPER_Q, p_values, phi, kappa,
                                              system=system, method="quadrature")
                for phi in probes]
    cells = [(i, rep) for column in zip(*by_probe) for i, rep in enumerate(column)]
    rows = [(s, t, HYPER_Q, rep.p, rep.p_max, i, rep.lhs, rep.rhs, rep.lhs_err + rep.rhs_err,
             "PASS" if rep.passed else "FAIL") for i, rep in cells]
    write_csv(outdir / "hyper.csv", ["s", "t", "q", "p", "p_max", "probe", "lhs_norm",
                                     "rhs_norm", "err", "verdict"], rows)
    report.check("hyper.norm-inequality", _worst((rep.excess for _, rep in cells), -math.inf), 0.0,
                 f"kappa {kappa:.6g}, curve p_max {cells[0][1].p_max:.4g}; largest excess of "
                 f"{len(rows)} exponent/probe cells")

    # Monte Carlo on the first probes: one sample and one propagation per
    # probe serve every exponent
    gaps = []
    for i, phi in enumerate(probes[:3]):
        mc = ineq.hypercontractivity_check(model, s, t, HYPER_Q, p_values, phi, kappa,
                                           cfg.mc_samples, cfg.seed + i, system=system)
        for quad, sampled in zip(by_probe[i], mc):
            gaps += _cross_check_ratios(quad, sampled)
    report.check("hyper.quadrature-vs-mc", _worst(gaps), 1.0,
                 "largest gap between quadrature and Monte Carlo norms over "
                 "4 stderr plus the quadrature error, on 3 probes")

    fam = ineq.capped_exponential_family(model.dim)
    srows = ineq.sharpness_probe(model, s, t, HYPER_Q, cfg.sharpness_p_values, fam,
                                 system=system)
    write_csv(outdir / "hyper_sharpness.csv",
              ["p", "probe", "ratio", "err", "violates"],
              [(r.p, r.label, r.ratio, r.ratio_err, r.violates) for r in srows])
    best = max(srows, key=lambda r: r.ratio)
    report.add("hyper.sharpness-probe", "REPORT",
               f"max ratio {best.ratio:.4f} at p={best.p:g} ({best.label}); "
               f"{sum(r.violates for r in srows)} violation(s) beyond the curve")


def run_spde(model, cfg, report: RunReport, outdir: Path) -> None:
    s, t = REF_T, REF_T + 1.0
    x0 = np.eye(model.dim)[0]
    ens = spde.simulate(model, s, t, x0, cfg.spde_step, cfg.mc_samples, cfg.seed)
    law = spde.law_check(ens, model, s, t, x0)
    report.check("spde.terminal-law", _worst([law.mean_z_max, law.cov_z_max]), spde.Z_LIMIT,
                 f"max z mean {law.mean_z_max:.2f}, cov {law.cov_z_max:.2f}")

    poly = mehler.TrigPolynomial.cosine(np.eye(model.dim)[0])
    exact = mehler.apply_exact(model, s, t, poly, x0).real
    vals = np.asarray(poly.evaluate(ens.terminal)).real
    stderr = float(vals.std(ddof=1)) / math.sqrt(len(vals))
    gap = abs(float(vals.mean()) - exact)
    report.check("spde.observable-consistency", gap, 4.0 * stderr + 1e-12,
                 "|mc - exact| against 4 stderr")

    rows = [(pid, tt, i, ens.states[pid, i, k]) for pid in range(len(ens.states))
            for k, tt in enumerate(ens.times) for i in range(model.dim)]
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
    write_csv(outdir / "ergodic.csv", ["s", "difference"],
              list(zip(rep.s_values, rep.differences)))
    report.check("ergodic.long-time-limit", rep.excess, 0.0,
                 f"final gap {rep.differences[-1]:.3e} (tol {rep.tol_final:g}); largest rise "
                 "of a difference over the one before, or of the final gap over tol")


# what a subcommand may raise on a model or window the numerics cannot serve
NUMERICAL_ERRORS = (WindowExceededError, IntegratorDivergedError, cov.NoDecayError, NotPSDError,
                    NonSymmetricError, evo.FitFailedError, ineq.BadCertificateError,
                    ineq.NonPositiveMeanError)

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


def _peak_rss_mb() -> float:
    """This process's own peak resident set in MB, ``VmHWM``; the fallback
    ``ru_maxrss`` keeps the peak of a spawning process across fork and exec."""
    try:
        with open("/proc/self/status") as status:
            return next(int(row.split()[1]) for row in status if row.startswith("VmHWM:")) / 1024.0
    except (OSError, StopIteration):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # from KiB


def run_suite(name: str, cfg: ExperimentConfig, outdir: Path) -> RunReport:
    from . import __version__

    window = {} if cfg.window is None else {"window": cfg.window}
    try:
        model = build_model(cfg.model_name, {**cfg.model_params, **window})
    except BadParameterError as exc:
        raise ConfigError(str(exc)) from exc
    report = RunReport(cfg.to_text(), __version__)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {outdir}: {exc.strerror}") from exc
    for sub in SUBCOMMANDS if name == "report-all" else (name,):
        start = time.perf_counter()
        try:
            SUBCOMMANDS[sub](model, cfg, report, outdir)
        except NUMERICAL_ERRORS as exc:
            report.add(f"{sub}.error", "ERROR", f"{type(exc).__name__}: {exc}")
        report.subcommand_seconds[sub] = time.perf_counter() - start
    report.peak_rss_mb = _peak_rss_mb()
    report.write(outdir)
    return report
