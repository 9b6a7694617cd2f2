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
Every expectation is over the law N(H m, H Q H^T) of the observable's k
coordinates <h_i, x> under N(m, Q) (``measures.marginal``).  Laws of rank
at most two are integrated by tensor Gauss-Hermite quadrature (64 nodes
per dimension, error estimated as the gap to a 48-node rule): the entropy
gap of the shipped probes and both norms of the contraction check
(``hyper_quadrature``), since a trig polynomial over two frequency
directions propagates to one over their two adjoint images.  Monte Carlo
with delta-method errors serves any rank, drawing k normals a row whatever
the dimension; ``entropy_gap(method="mc")`` and
``hypercontractivity_check`` are the sampled cross-checks of the
quadrature verdicts; the sampled entropy's error is the standard error of
its one summand ent_i - (1 + log m) v_i, since its two means correlate.
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


def entropy_gap(model: OperatorFamily, t: float, phi: CylindricalFunction, p: float,
                kappa: float, system: EvolutionSystem, method: str = "quadrature",
                count: int = 100_000, seed: int = 0) -> LogSobolevReport:
    """Entropy versus weighted gradient energy at time t.

    Both methods integrate over the marginal law of phi's k coordinates
    <h_i, x>: quadrature for a law of rank at most 2, Monte Carlo for any
    k, drawing k normals a row from that law.
    """
    if not p > 1.0:
        raise ValueError("need p > 1")
    if method not in ("quadrature", "mc"):
        raise ValueError(f"unknown method {method!r}")
    h = phi.directions
    law = marginal(system(t), h)
    q_proj = h @ model.diffusion_matrix(t) @ h.T
    if method == "quadrature":
        sums = [[float(w @ a) for a in _entropy_terms(u, phi, p, q_proj)]
                for u, w in (gauss_hermite(law, *np.polynomial.hermite.hermgauss(n))
                             for n in (GH_NODES, GH_NODES_COARSE))]
    else:
        terms = _entropy_terms(sample(law, count, seed, label="entropy-gap"), phi, p, q_proj)
        sums = [[float(a.mean()) for a in terms]]
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
        vp, ent_terms, energy_terms = terms
        lhs_err = float(np.std(ent_terms - (1.0 + math.log(m)) * vp, ddof=1)) / math.sqrt(count)
        rhs_err = kappa * p * p * float(np.std(energy_terms, ddof=1)) / math.sqrt(count)
    return LogSobolevReport(p, phi.label, lhs, rhs, rhs - lhs, lhs_err, rhs_err)


# -- norm contraction -----------------------------------------------------------

def _p_norm_and_err(values: np.ndarray, p: float) -> tuple[float, float]:
    """Monte Carlo p-norm with the delta-method standard error."""
    vp = np.abs(values) ** p
    m = float(vp.mean())
    se = float(np.std(vp, ddof=1)) / math.sqrt(len(vp))
    if m <= 0.0:
        return 0.0, se
    norm = m ** (1.0 / p)
    return norm, (m ** (1.0 / p - 1.0) / p) * se


def _sampled_values(poly: TrigPolynomial, mu: GaussianMeasure, count: int, seed: int,
                    label: str) -> np.ndarray:
    """Real values of poly at count draws of mu, drawn as the phases along
    its k folded directions: k normals a row."""
    vals = poly.at_phases(sample(marginal(mu, poly.directions), count, seed, label=label))
    if np.abs(vals.imag).max(initial=0.0) > 1e-8:
        raise ValueError("observable must be real for norm checks")
    return vals.real


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
                             count: int, seed: int, system: EvolutionSystem
                             ) -> HyperReport | list[HyperReport]:
    """p-norm of the propagated observable at nu_s against its q-norm at nu_t,
    by Monte Carlo: the sampled cross-check of ``hyper_quadrature``, and the
    path for observables over more than two frequency directions.

    The trig observable propagates exactly, so one Monte Carlo layer over
    nu_s suffices.  Each norm draws the marginal law of the phases along its
    polynomial's k folded directions, k normals a row (k = 3 for two
    frequency directions and a constant term, pinned at zero).

    ``p`` is one exponent, giving one HyperReport, or a sequence, giving
    one per exponent in order from one pass: only the left-hand p-norm
    depends on p, so each report equals its single-exponent call's.
    """
    single = np.ndim(p) == 0
    p_values = [p] if single else list(p)
    vals = _sampled_values(propagate_trig(model, s, t, phi), system(s), count, seed,
                           "hyper-outer")
    rhs, rhs_err = _p_norm_and_err(_sampled_values(phi, system(t), count, seed + 1,
                                                   "hyper-rhs"), q)
    p_max = exponent_curve(q, t - s, kappa)
    reports = []
    for p in p_values:
        lhs, lhs_err = _p_norm_and_err(vals, p)
        reports.append(HyperReport(p, p_max, lhs, rhs, lhs_err, rhs_err))
    return reports[0] if single else reports


def _quad_p_norms(phi: TrigPolynomial, mu: GaussianMeasure, p_values,
                  nodes: int) -> np.ndarray:
    """(E|phi|^p)^(1/p) under mu for each p, by Gauss-Hermite over the law
    of the phases along phi's folded directions, of rank at most 2."""
    u, w = gauss_hermite(marginal(mu, phi.directions), *np.polynomial.hermite.hermgauss(nodes))
    vals = phi.at_phases(u)
    if np.abs(vals.imag).max() > 1e-8:
        raise ValueError("observable must be real for norm checks")
    p = np.asarray(p_values, dtype=float)
    return (np.abs(vals.real)[None, :] ** p[:, None] @ w) ** (1.0 / p)


def hyper_quadrature(model: OperatorFamily, s: float, t: float, q: float, p_values,
                     phi: TrigPolynomial, kappa: float,
                     system: EvolutionSystem) -> list[HyperReport]:
    """``hypercontractivity_check`` over a vector of exponents with both
    norms by quadrature, for phi over at most two frequency directions (its
    propagation has as many).  Each error is the gap between the GH_NODES
    and GH_NODES_COARSE rules; the PASS rule is the Monte Carlo one."""
    propagated = propagate_trig(model, s, t, phi)
    lhs, lhs_c = (_quad_p_norms(propagated, system(s), p_values, n)
                  for n in (GH_NODES, GH_NODES_COARSE))
    (rhs,), (rhs_c,) = (_quad_p_norms(phi, system(t), [q], n)
                        for n in (GH_NODES, GH_NODES_COARSE))
    p_max = exponent_curve(q, t - s, kappa)
    return [HyperReport(float(p), p_max, float(a), float(rhs),
                        float(abs(a - a_c)), float(abs(rhs - rhs_c)))
            for p, a, a_c in zip(p_values, lhs, lhs_c)]


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
