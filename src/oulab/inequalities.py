"""Entropy inequality and norm-contraction checks.

From a range-metric decay certificate (scale C, rate eta) the inequality
constant is

    kappa = C / (2 eta),

the paper's C (2 eta)^(2 alpha - 1) Gamma(1 - 2 alpha) at alpha = 0, the
power every certificate of a finite truncation has (see ``evolution``).
Two families of checks use it:

  * entropy gap: for smooth positive cylindrical observables phi (profile
    and gradient) and exponents p in (1, inf),

      E[ |phi|^p log |phi|^p ] - m log m
          <= kappa p^2 E[ |phi|^{p-2} |R grad phi|^2 ; phi != 0 ],

    with m = E|phi|^p, R the PSD root of the diffusion at the test time, and
    both sides taken under the system measure at that time;

  * norm contraction across the exponent curve

      p_max(q, t - s) = (q - 1) exp((t - s) / (2 kappa)) + 1,

    i.e. the p-norm of the propagated trig-polynomial observable at the
    start measure stays below the q-norm at the end measure whenever
    p <= p_max.

Every entry point takes its evolution system from the caller (``system``).
Every expectation is a weighted sum over a rule (``_rules``) for the law
N(H m, H Q H^T) of the observable's k coordinates <h_i, x> under N(m, Q)
(``measures.marginal``), and the one entry point of each inequality picks
the rule by its ``method``: "quadrature" is tensor Gauss-Hermite for a law
of rank at most two (64 nodes per dimension, error estimated as the gap to
a 48-node rule), enough for the shipped entropy probes and both norms of
the contraction check, since a trig polynomial over two frequency
directions propagates to one over their two adjoint images; "mc" is one
draw at equal weights with delta-method errors, k normals a row for any
rank: the sampled cross-check.  The sampled entropy's error is the
standard error of its one summand ent_i - (1 + log m) v_i, since its two
means correlate.
Norm ratios beyond the curve use nested 1-D Gauss-Hermite rules with
SHARPNESS_NODES nodes, one nested quadrature per ramp and rule for every p.

Every node set comes from ``measures.gauss_hermite``: the tensor rule over
the columns of the factor that ``measures.sample`` draws with, as many as
the law has rank, means included, so quadrature and Monte Carlo share one
factorization of each law, a zero or dependent direction costs no nodes,
and measures with a mean (``point_shifted_system``) are integrated where
their mass sits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import accumulated
from .evolution import DecayCertificate, propagator_matrix
from .linalg import SymOperator
from .measures import EvolutionSystem, GaussianMeasure, gauss_hermite, marginal, sample
from .mehler import CylindricalFunction, TrigPolynomial, propagate_trig
from .models import OperatorFamily

GH_NODES = 64
GH_NODES_COARSE = 48
SHARPNESS_NODES = 96  # the error estimate uses 16 fewer
RAMP_RATES = (0.5, 1.0, 1.5, 2.0, 2.5)  # capped_exponential_family
RAMP_CAP = 6.0


class BadCertificateError(ValueError):
    """Certificate of the wrong mode or without a positive rate."""


class NonPositiveMeanError(RuntimeError):
    """E|phi|^p came out non-positive: a numerical failure by definition."""


def log_sobolev_constant(cert: DecayCertificate) -> float:
    """kappa from a cameron-martin decay certificate."""
    if cert.mode != "cameron-martin":
        raise BadCertificateError("kappa needs a cameron-martin certificate")
    if cert.rate <= 0.0:
        raise BadCertificateError(f"rate must be positive, got {cert.rate}")
    return cert.scale / (2.0 * cert.rate)


def exponent_curve(q: float, gap: float, kappa: float) -> float:
    """Largest admissible p for a given start norm q over a time gap."""
    if q <= 1.0:
        raise ValueError("need q > 1")
    if gap < 0.0:
        raise ValueError("need a nonnegative time gap")
    return (q - 1.0) * math.exp(gap / (2.0 * kappa)) + 1.0


def _entropy_terms(u: np.ndarray, phi: CylindricalFunction, p: float,
                   q_proj: np.ndarray):
    """Per-point summands of E|phi|^p, of the entropy E[|phi|^p log |phi|^p]
    and of the gradient energy."""
    vals = np.asarray(phi.profile(u), dtype=float)
    grads = np.asarray(phi.gradient(u), dtype=float)
    av = np.abs(vals)
    pos = av > 0.0
    vp = np.where(pos, av, 1.0) ** p
    vp = np.where(pos, vp, 0.0)
    ent_terms = np.where(pos, vp * np.log(np.where(pos, vp, 1.0)), 0.0)
    energy_density = np.einsum("ni,ij,nj->n", grads, q_proj, grads)
    pw = np.where(pos, np.where(pos, av, 1.0) ** (p - 2.0), 0.0)
    return vp, ent_terms, pw * energy_density


@dataclass(frozen=True)
class LogSobolevReport:
    p: float
    label: str
    lhs: float
    rhs: float
    slack: float
    lhs_err: float
    rhs_err: float

    @property
    def excess(self) -> float:
        """The verdict slack >= -3 err as an excess: at most 0 exactly when it holds."""
        return -self.slack - 3.0 * (self.lhs_err + self.rhs_err)

    @property
    def passed(self) -> bool:
        return self.excess <= 0.0


def _rules(law: GaussianMeasure, method: str, count: int, seed: int, label: str):
    """Points and weights of expectations under law: by "quadrature" the
    GH_NODES rule and the GH_NODES_COARSE one that gives its error, by "mc"
    one draw of count rows at weight 1/count."""
    if method == "quadrature":
        return [gauss_hermite(law, *np.polynomial.hermite.hermgauss(n))
                for n in (GH_NODES, GH_NODES_COARSE)]
    if method == "mc":
        return [(sample(law, count, seed, label=label), np.full(count, 1.0 / count))]
    raise ValueError(f"unknown method {method!r}")


def entropy_gap(model: OperatorFamily, t: float, phi: CylindricalFunction, p: float,
                kappa: float, system: EvolutionSystem, method: str = "quadrature",
                count: int = 100_000, seed: int = 0) -> LogSobolevReport:
    """Entropy versus weighted gradient energy at time t, both integrated
    over the law of phi's k coordinates <h_i, x> by the rule of ``method``."""
    if not p > 1.0:
        raise ValueError("need p > 1")
    h = phi.directions
    q_proj = h @ model.diffusion_matrix(t) @ h.T
    rules = _rules(marginal(system(t), h), method, count, seed, "entropy-gap")
    terms = [_entropy_terms(u, phi, p, q_proj) for u, _ in rules]
    sums = [[float(w @ a) for a in by_term] for (_, w), by_term in zip(rules, terms)]
    m, ent, energy = sums[0]
    if m <= 0.0:
        raise NonPositiveMeanError(f"E|phi|^p = {m}")
    lhs = ent - m * math.log(m)
    rhs = kappa * p * p * energy
    if method == "quadrature":  # the gap to the coarser rule
        mc, entc, energyc = sums[1]
        lhs_err = abs(lhs - (entc - mc * math.log(mc) if mc > 0 else lhs))
        rhs_err = abs(rhs - kappa * p * p * energyc)
    else:  # delta method, d(m log m) = (1 + log m) dm: lhs is the mean of one summand
        vp, ent_terms, energy_terms = terms[0]
        lhs_err = float(np.std(ent_terms - (1.0 + math.log(m)) * vp, ddof=1)) / math.sqrt(count)
        rhs_err = kappa * p * p * float(np.std(energy_terms, ddof=1)) / math.sqrt(count)
    return LogSobolevReport(p, phi.label, lhs, rhs, rhs - lhs, lhs_err, rhs_err)


# -- norm contraction -----------------------------------------------------------

def _p_norms(phi: TrigPolynomial, mu: GaussianMeasure, p_values, method: str, count: int,
             seed: int, label: str) -> tuple[list[float], list[float]]:
    """(E|phi|^p)^(1/p) under mu for each p and its error, over the law of
    the phases along phi's folded directions by the rule of ``method``; each
    p is its own sum, so it does not depend on the others."""
    rules = _rules(marginal(mu, phi.directions), method, count, seed, label)
    vals = [phi.at_phases(u) for u, _ in rules]
    if max(np.abs(v.imag).max(initial=0.0) for v in vals) > 1e-8:
        raise ValueError("observable must be real for norm checks")
    norms, errors = [], []
    for p in p_values:
        vp = [np.abs(v.real) ** p for v in vals]
        m = [float(v @ w) for v, (_, w) in zip(vp, rules)]
        norm = m[0] ** (1.0 / p) if m[0] > 0.0 else 0.0
        if method == "quadrature":  # the gap to the coarser rule
            err = abs(norm - m[1] ** (1.0 / p))
        else:  # delta method, d(m^(1/p)) = m^(1/p - 1) / p dm
            se = float(np.std(vp[0], ddof=1)) / math.sqrt(count)
            err = (m[0] ** (1.0 / p - 1.0) / p) * se if m[0] > 0.0 else se
        norms.append(norm)
        errors.append(err)
    return norms, errors


@dataclass(frozen=True)
class HyperReport:
    p: float
    p_max: float
    lhs: float
    rhs: float
    lhs_err: float
    rhs_err: float

    @property
    def excess(self) -> float:
        """p - p_max (less 1e-12) for p beyond the curve or NaN, else lhs - rhs - 3 err."""
        if not self.p <= self.p_max + 1e-12:
            return self.p - (self.p_max + 1e-12)
        return self.lhs - (self.rhs + 3.0 * (self.lhs_err + self.rhs_err))

    @property
    def passed(self) -> bool:
        return self.excess <= 0.0


def hypercontractivity_check(model: OperatorFamily, s: float, t: float,
                             q: float, p, phi: TrigPolynomial, kappa: float,
                             count: int = 100_000, seed: int = 0, *,
                             system: EvolutionSystem, method: str = "mc"
                             ) -> HyperReport | list[HyperReport]:
    """p-norm of the propagated observable at nu_s against its q-norm at nu_t,
    by the rule of ``method``: "mc" (the default) or "quadrature".

    The trig observable propagates exactly, so one integration over nu_s
    suffices.  Each norm integrates the law of the phases along its
    polynomial's k folded directions (k = 3 for two frequency directions
    and a constant term, pinned at zero).

    ``p`` is one exponent, giving one HyperReport, or a sequence, giving
    one per exponent in order from one pass: only the left-hand p-norm
    depends on p, so each report equals its single-exponent call's.
    """
    single = np.ndim(p) == 0
    p_values = [float(p)] if single else [float(v) for v in p]
    lhs, lhs_err = _p_norms(propagate_trig(model, s, t, phi), system(s), p_values, method,
                            count, seed, "hyper-outer")
    (rhs,), (rhs_err,) = _p_norms(phi, system(t), [q], method, count, seed + 1, "hyper-rhs")
    p_max = exponent_curve(q, t - s, kappa)
    reports = [HyperReport(v, p_max, a, rhs, a_err, rhs_err)
               for v, a, a_err in zip(p_values, lhs, lhs_err)]
    return reports[0] if single else reports


@dataclass(frozen=True)
class SharpnessRow:
    p: float
    label: str
    ratio: float
    ratio_err: float
    violates: bool


def _ratio_1d(model: OperatorFamily, s: float, t: float, q: float, p_values,
              phi: CylindricalFunction, system: EvolutionSystem,
              nodes: int) -> list[float]:
    """Norm ratio at each p of ``p_values`` for a single-direction
    observable, by nested 1-D Gauss-Hermite: the propagated observable is
    again a function of one coordinate, so both norms reduce to scalar
    Gaussian integrals over the inner law N(0, <K(t, s) h, h>) of the
    transition, the outer law of <g, x> under nu_s, g = U(t, s)^T h, and the
    end law of <h, x> under nu_t; only the outer norm depends on p."""
    h = phi.directions[:1]
    g = h @ propagator_matrix(model, s, t)
    k_h = SymOperator(h @ accumulated(model, s, t).entries @ h.T)
    laws = GaussianMeasure(np.zeros(1), k_h), marginal(system(s), g), marginal(system(t), h)
    rule = np.polynomial.hermite.hermgauss(nodes)
    (inner, w_in), (outer, w_out), (end, w_end) = (gauss_hermite(law, *rule) for law in laws)
    prof = lambda u: np.asarray(phi.profile(u), dtype=float)
    propagated = np.abs(np.array([float(w_in @ prof(pt + inner)) for pt in outer]))
    rhs = float(w_end @ np.abs(prof(end)) ** q) ** (1.0 / q)
    return [float(w_out @ propagated ** p) ** (1.0 / p) / rhs for p in p_values]


def sharpness_probe(model: OperatorFamily, s: float, t: float, q: float,
                    p_grid, family, system: EvolutionSystem) -> list[SharpnessRow]:
    """Norm ratios beyond the exponent curve, reported as evidence: one row
    per (p, observable), p-major.

    Every observable in ``family`` must be cylindrical over one direction;
    the nested quadrature makes the ratios deterministic, serves every p at
    once and takes the error from a coarser node count.  Rows flag ratio >
    1 + 3 err; whether any p produces a violation depends on where the
    model's true contraction threshold sits relative to the certified curve.
    """
    p_grid, cells = tuple(p_grid), []  # cells: (ratio, error) at each p, per observable
    for phi in family:
        if phi.n_dirs != 1:
            raise ValueError("sharpness probes must have one active direction")
        fine, coarse = (_ratio_1d(model, s, t, q, p_grid, phi, system, n)
                        for n in (SHARPNESS_NODES, SHARPNESS_NODES - 16))
        cells.append([(r, abs(r - r_c)) for r, r_c in zip(fine, coarse)])
    return [SharpnessRow(float(p), phi.label, r, err, r > 1.0 + 3.0 * err)
            for p, by_phi in zip(p_grid, zip(*cells)) for phi, (r, err) in zip(family, by_phi)]


def capped_exponential_family(dim: int) -> list[CylindricalFunction]:
    """exp(rate * clip(u, -RAMP_CAP, RAMP_CAP)) along the first coordinate,
    one per rate in RAMP_RATES: bounded ramps that approximate the extremal
    exponentials of Gaussian smoothing."""
    e1 = np.eye(dim)[:1]
    fam = []
    for lam in RAMP_RATES:
        fam.append(CylindricalFunction(
            profile=lambda u, lam=lam: np.exp(lam * np.clip(u[..., 0], -RAMP_CAP, RAMP_CAP)),
            directions=e1,
            label=f"capped-exp({lam:g})",
        ))
    return fam


def default_entropy_probes(dim: int) -> list[CylindricalFunction]:
    """Twelve smooth probes over one or two directions, with closed-form
    gradients, mostly bounded away from zero."""
    e1 = np.eye(dim)[:1]
    e12 = np.eye(dim)[:2]
    probes = []

    def one_d(label, f, g):
        probes.append(CylindricalFunction(
            profile=lambda u: f(u[..., 0]),
            gradient=lambda u: g(u[..., 0])[..., None],
            directions=e1, label=label))

    one_d("2+cos", lambda x: 2 + np.cos(x), lambda x: -np.sin(x))
    one_d("2+sin", lambda x: 2 + np.sin(x), lambda x: np.cos(x))
    one_d("3+cos2", lambda x: 3 + np.cos(2 * x), lambda x: -2 * np.sin(2 * x))
    one_d("exp-sin", lambda x: np.exp(np.sin(x)), lambda x: np.cos(x) * np.exp(np.sin(x)))
    one_d("exp-cos", lambda x: np.exp(np.cos(x)), lambda x: -np.sin(x) * np.exp(np.cos(x)))
    one_d("2+tanh", lambda x: 2 + np.tanh(x), lambda x: 1 - np.tanh(x) ** 2)
    one_d("gauss-bump", lambda x: np.exp(-x**2 / 4), lambda x: -(x / 2) * np.exp(-x**2 / 4))
    one_d("1+gauss", lambda x: 1 + np.exp(-x**2 / 2), lambda x: -x * np.exp(-x**2 / 2))

    def sig(x):
        return 1.0 / (1.0 + np.exp(-x))

    one_d("1+sigmoid", lambda x: 1 + sig(x), lambda x: sig(x) * (1 - sig(x)))

    def two_d(label, f, g):
        probes.append(CylindricalFunction(
            profile=lambda u: f(u[..., 0], u[..., 1]),
            gradient=lambda u: np.stack(g(u[..., 0], u[..., 1]), axis=-1),
            directions=e12, label=label))

    two_d("2+cos*sin",
          lambda x, y: 2 + np.cos(x) * np.sin(y),
          lambda x, y: (-np.sin(x) * np.sin(y), np.cos(x) * np.cos(y)))
    two_d("1+gauss2",
          lambda x, y: 1 + np.exp(-(x**2 + y**2) / 8),
          lambda x, y: (-(x / 4) * np.exp(-(x**2 + y**2) / 8),
                        -(y / 4) * np.exp(-(x**2 + y**2) / 8)))
    two_d("2.5+sin-sum",
          lambda x, y: 2.5 + 0.5 * np.sin(x + y),
          lambda x, y: (0.5 * np.cos(x + y), 0.5 * np.cos(x + y)))
    return probes
