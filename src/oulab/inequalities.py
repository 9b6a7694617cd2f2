"""Entropy inequality and norm-contraction checks.

From a range-metric decay certificate (scale C, rate eta, power alpha) the
inequality constant is

    kappa = C * (2 eta)^(2 alpha - 1) * Gamma(1 - 2 alpha),

finite for alpha in [0, 1/2).  Two families of checks use it:

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

Expectations over at most two active directions are done by tensor
Gauss-Hermite quadrature (64 nodes per dimension, error estimated as the gap
to a 48-node rule).  That covers the entropy gap of the shipped probes and
both norms of the contraction check (``hyper_quadrature``): a trig
polynomial over two frequency directions propagates to one over their two
adjoint images.  Monte Carlo with delta-method errors serves any number of
directions; ``entropy_gap(method="mc")`` and ``hypercontractivity_check``
are the sampled cross-checks of the quadrature verdicts.  Norm ratios beyond
the curve use nested 1-D Gauss-Hermite rules with SHARPNESS_NODES nodes.

Tensor node sets come from one grid, ``_gh_grid``, over k = 0, 1 or 2
directions (k = 0 is a point mass), and the nested 1-D rules from its
helper ``_normal_nodes``.  Both give nodes of a centred law N(0, cov); each
caller shifts them by the measure's mean along its directions, so measures
with a mean (``point_shifted_system``) are integrated where their mass
sits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import accumulated
from .evolution import DecayCertificate, propagator_matrix
from .measures import EvolutionSystem, GaussianMeasure, gaussian_system, sample
from .mehler import CylindricalFunction, TrigPolynomial, propagate_trig
from .models import OperatorFamily
from .rng import CHUNK

GH_NODES = 64
GH_NODES_COARSE = 48
SHARPNESS_NODES = 96  # the error estimate uses 16 fewer
RAMP_RATES = (0.5, 1.0, 1.5, 2.0, 2.5)  # capped_exponential_family
RAMP_CAP = 6.0


class BadCertificateError(ValueError):
    """Certificate outside the admissible (rate, power) region."""


class NonPositiveMeanError(RuntimeError):
    """E|phi|^p came out non-positive: a numerical failure by definition."""


def log_sobolev_constant(cert: DecayCertificate) -> float:
    """kappa from a cameron-martin decay certificate."""
    if cert.mode != "cameron-martin":
        raise BadCertificateError("kappa needs a cameron-martin certificate")
    c, eta, alpha = cert.scale, cert.rate, cert.power
    if eta <= 0.0:
        raise BadCertificateError(f"rate must be positive, got {eta}")
    if not 0.0 <= alpha < 0.5:
        raise BadCertificateError(f"power must lie in [0, 1/2), got {alpha}")
    return c * (2.0 * eta) ** (2.0 * alpha - 1.0) * math.gamma(1.0 - 2.0 * alpha)


def exponent_curve(q: float, gap: float, kappa: float) -> float:
    """Largest admissible p for a given start norm q over a time gap."""
    if q <= 1.0:
        raise ValueError("need q > 1")
    if gap < 0.0:
        raise ValueError("need a nonnegative time gap")
    return (q - 1.0) * math.exp(gap / (2.0 * kappa)) + 1.0


# -- Gauss-Hermite machinery ---------------------------------------------------

def _normal_nodes(x: np.ndarray, var: float) -> np.ndarray:
    """Physicists' Hermite nodes x mapped to N(0, var); all at 0 when
    var <= 0."""
    return math.sqrt(2.0 * var) * x if var > 0.0 else np.zeros_like(x)


def _gh_grid(cov: np.ndarray, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (rows) and normalized weights for E under N(0, cov), cov k x k
    with k <= 2; k = 0 is the point mass at the origin."""
    k = cov.shape[0]
    if k == 0:
        return np.zeros((1, 0)), np.ones(1)
    x, w = np.polynomial.hermite.hermgauss(nodes)
    if k == 1:
        return _normal_nodes(x, cov[0, 0])[:, None], w / math.sqrt(math.pi)
    xs = np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1).reshape(-1, 2)
    ws = np.multiply.outer(w, w).reshape(-1) / math.pi
    chol = np.linalg.cholesky(cov + 1e-300 * np.eye(k))
    return math.sqrt(2.0) * xs @ chol.T, ws


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
    t: float
    p: float
    label: str
    lhs: float
    rhs: float
    slack: float
    lhs_err: float
    rhs_err: float
    kappa: float
    method: str
    passed: bool


def entropy_gap(model: OperatorFamily, t: float, phi: CylindricalFunction,
                p: float, kappa: float,
                system: EvolutionSystem | None = None,
                method: str = "quadrature",
                count: int = 100_000, seed: int = 0) -> LogSobolevReport:
    """Entropy versus weighted gradient energy at time t.

    Quadrature handles cylindrical observables over at most two directions;
    Monte Carlo works for any number.  The verdict allows slack down to
    minus three combined errors.
    """
    if not p > 1.0:
        raise ValueError("need p > 1")
    if system is None:
        system = gaussian_system(model)
    mu = system(t)
    h = phi.directions
    q_proj = h @ model.diffusion_matrix(t) @ h.T
    marginal = h @ mu.cov.entries @ h.T

    if method == "quadrature":
        if phi.n_dirs > 2:
            raise ValueError("quadrature path handles at most 2 active directions")
        shift = phi.coords(mu.mean)
        sums = []
        for nodes in (GH_NODES, GH_NODES_COARSE):
            u, w = _gh_grid(marginal, nodes)
            sums.append([float(w @ a) for a in _entropy_terms(u + shift, phi, p, q_proj)])
        (m, ent, energy), (mc, entc, energyc) = sums
        if m <= 0.0:
            raise NonPositiveMeanError(f"E|phi|^p = {m}")
        lhs = ent - m * math.log(m)
        lhs_c = entc - mc * math.log(mc) if mc > 0 else lhs
        rhs = kappa * p * p * energy
        rhs_c = kappa * p * p * energyc
        lhs_err, rhs_err = abs(lhs - lhs_c), abs(rhs - rhs_c)
    elif method == "mc":
        u = phi.coords(sample(mu, count, seed, label="entropy-gap"))
        w = np.full(len(u), 1.0 / len(u))
        terms = _entropy_terms(u, phi, p, q_proj)
        m, ent, energy = (float(w @ a) for a in terms)
        if m <= 0.0:
            raise NonPositiveMeanError(f"E|phi|^p = {m}")
        lhs = ent - m * math.log(m)
        rhs = kappa * p * p * energy
        # delta method on the same summands: d(m log m) = (1 + log m) dm
        se_vp, se_ent, se_energy = (float(np.std(a, ddof=1)) / math.sqrt(len(a))
                                    for a in terms)
        lhs_err = se_ent + abs(1.0 + math.log(m)) * se_vp
        rhs_err = kappa * p * p * se_energy
    else:
        raise ValueError(f"unknown method {method!r}")

    slack = rhs - lhs
    passed = slack >= -3.0 * (lhs_err + rhs_err)
    return LogSobolevReport(t, p, phi.label, lhs, rhs, slack, lhs_err, rhs_err,
                            kappa, method, passed)


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


def _evaluate_by_chunk(phi: TrigPolynomial, xs: np.ndarray) -> np.ndarray:
    """phi at each row of xs, CHUNK rows per call, so the work arrays stay
    the size of a chunk."""
    vals = np.empty(len(xs), dtype=complex)
    for lo in range(0, len(xs), CHUNK):
        vals[lo:lo + CHUNK] = phi.evaluate(xs[lo:lo + CHUNK])
    return vals


@dataclass(frozen=True)
class HyperReport:
    s: float
    t: float
    q: float
    p: float
    p_max: float
    lhs: float
    rhs: float
    lhs_err: float
    rhs_err: float
    kappa: float
    passed: bool


def _hyper_report(s, t, q, p, p_max, lhs, rhs, lhs_err, rhs_err, kappa) -> HyperReport:
    """PASS requires p on or under the exponent curve and the norm inequality
    to hold within three combined errors."""
    passed = (p <= p_max + 1e-12) and (lhs <= rhs + 3.0 * (lhs_err + rhs_err))
    return HyperReport(s, t, q, p, p_max, lhs, rhs, lhs_err, rhs_err, kappa, passed)


def hypercontractivity_check(model: OperatorFamily, s: float, t: float,
                             q: float, p, phi: TrigPolynomial, kappa: float,
                             count: int, seed: int, system: EvolutionSystem | None = None
                             ) -> HyperReport | list[HyperReport]:
    """p-norm of the propagated observable at nu_s against its q-norm at nu_t,
    by Monte Carlo: the sampled cross-check of ``hyper_quadrature``, and the
    path for observables over more than two frequency directions.

    The trig observable propagates exactly, so one Monte Carlo layer over
    nu_s suffices.  PASS requires p on or under the exponent curve and the
    norm inequality to hold within three combined standard errors.

    ``p`` is one exponent or a sequence of them.  A single exponent returns
    one HyperReport.  A sequence returns one HyperReport per exponent, in
    order, from a single pass: the outer sample, the propagated values and
    the right-hand q-norm do not depend on p, so they are drawn and
    evaluated once and only the left-hand p-norm is taken per exponent.
    Each report equals the one the single-exponent call returns.
    """
    single = np.ndim(p) == 0
    p_values = [p] if single else list(p)
    if system is None:
        system = gaussian_system(model)
    mu_s, mu_t = system(s), system(t)
    # each sample lives only while its observable is evaluated
    vals = _evaluate_by_chunk(propagate_trig(model, s, t, phi),
                              sample(mu_s, count, seed, label="hyper-outer"))
    if np.abs(vals.imag).max(initial=0.0) > 1e-8:
        raise ValueError("observable must be real for norm checks")
    ends = _evaluate_by_chunk(phi, sample(mu_t, count, seed + 1, label="hyper-rhs"))
    rhs, rhs_err = _p_norm_and_err(ends.real, q)
    p_max = exponent_curve(q, t - s, kappa)
    reports = []
    for p in p_values:
        lhs, lhs_err = _p_norm_and_err(vals.real, p)
        reports.append(_hyper_report(s, t, q, p, p_max, lhs, rhs, lhs_err, rhs_err, kappa))
    return reports[0] if single else reports


def _quad_p_norms(phi: TrigPolynomial, mu: GaussianMeasure, p_values,
                  nodes: int) -> np.ndarray:
    """(E|phi|^p)^(1/p) under mu for each p, by tensor Gauss-Hermite on the
    at most 2-dimensional span of phi's frequencies.  The basis is the right
    singular vectors above roundoff; an unpivoted QR would lose part of the
    span when an early frequency depends on later ones, as -h does on h."""
    f = phi.freqs[np.any(phi.freqs != 0.0, axis=1)]
    if len(f):
        _, sv, vt = np.linalg.svd(f, full_matrices=False)
        basis = vt[sv > sv[0] * max(f.shape) * np.finfo(float).eps].T
    else:
        basis = np.zeros((phi.dim, 0))
    if basis.shape[1] > 2:
        raise ValueError(f"quadrature norms need at most 2 frequency directions, "
                         f"got {basis.shape[1]}")
    u, w = _gh_grid(basis.T @ mu.cov.entries @ basis, nodes)
    vals = np.asarray(phi.evaluate(mu.mean + u @ basis.T))
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
    return [_hyper_report(s, t, q, float(p), p_max, float(a), float(rhs),
                          float(abs(a - a_c)), float(abs(rhs - rhs_c)), kappa)
            for p, a, a_c in zip(p_values, lhs, lhs_c)]


@dataclass(frozen=True)
class SharpnessRow:
    p: float
    label: str
    ratio: float
    ratio_err: float
    violates: bool


def _ratio_1d(model: OperatorFamily, s: float, t: float, q: float, p: float,
              phi: CylindricalFunction, system: EvolutionSystem,
              nodes: int) -> float:
    """Norm ratio for a single-direction observable, by nested 1-D
    Gauss-Hermite: the propagated observable is again a function of one
    coordinate, so both norms reduce to scalar Gaussian integrals.  The outer
    nodes sit at the law of <g, x> under nu_s, g = U(t, s)^T h, and the end
    nodes at the law of <h, x> under nu_t, means included."""
    h = phi.directions[0]
    g = propagator_matrix(model, s, t).T @ h
    v_inner = float(h @ accumulated(model, s, t).matrix @ h)
    mu_s, mu_t = system(s), system(t)
    v_outer = float(g @ mu_s.cov.entries @ g)
    v_end = float(h @ mu_t.cov.entries @ h)

    x1, w1 = np.polynomial.hermite.hermgauss(nodes)
    w1 = w1 / math.sqrt(math.pi)
    inner_pts = _normal_nodes(x1, v_inner)
    outer_pts = _normal_nodes(x1, v_outer) + g @ mu_s.mean
    end_pts = _normal_nodes(x1, v_end) + h @ mu_t.mean

    prof = lambda arr: np.asarray(phi.profile(arr[:, None]), dtype=float)
    propagated = np.array([float(w1 @ prof(wpt + inner_pts)) for wpt in outer_pts])
    lhs = float(w1 @ np.abs(propagated) ** p) ** (1.0 / p)
    rhs = float(w1 @ np.abs(prof(end_pts)) ** q) ** (1.0 / q)
    return lhs / rhs


def sharpness_probe(model: OperatorFamily, s: float, t: float, q: float,
                    p_grid, family, kappa: float,
                    system: EvolutionSystem | None = None) -> list[SharpnessRow]:
    """Norm ratios beyond the exponent curve, reported as evidence.

    Every observable in ``family`` must be cylindrical over one direction;
    the nested quadrature makes the ratios deterministic, with the error
    taken from a coarser node count.  Rows flag ratio > 1 + 3 err; whether
    any p actually produces a violation depends on where the model's true
    contraction threshold sits relative to the certified curve.
    """
    if system is None:
        system = gaussian_system(model)
    rows = []
    for p in p_grid:
        for phi in family:
            if phi.n_dirs != 1:
                raise ValueError("sharpness probes must have one active direction")
            r = _ratio_1d(model, s, t, q, p, phi, system, SHARPNESS_NODES)
            r_coarse = _ratio_1d(model, s, t, q, p, phi, system, SHARPNESS_NODES - 16)
            err = abs(r - r_coarse)
            rows.append(SharpnessRow(float(p), phi.label, r, err, r > 1.0 + 3.0 * err))
    return rows


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
