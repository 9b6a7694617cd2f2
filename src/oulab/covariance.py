"""Accumulated noise covariances and their derivative identities.

Between times s <= t the noise accumulates the covariance

    K(t, s) = integral over [s, t] of U(t, r) B(r) B(r)^T U(t, r)^T dr,

which is the covariance of the Gaussian transition law started at s and read
at t.  Diagonal models reduce to one scalar integral per mode,

    k_i(t, s) = integral of exp(2 integral_sigma^t a_i) b_i(sigma)^2 dsigma,

with the inner drift integral c_i(t) - c_i(sigma) taken from the modes'
exact antiderivative ``drift_antideriv``, the one U uses too; every mode's
integral comes from one vector ``quad`` on a shared subdivision.  Dense
models read K from ``evolution.flow``, which stores it once per span: in
closed form from one eigendecomposition of the drift when the family is
autonomous, otherwise by solving the joint (U, K) system on unit-grid cells
and composing longer spans.  Every covariance is a ``SymOperator``.

The infinite-horizon limit K(t, -inf) is realized by truncating at the start
time s* of ``tail_cutoff``, whose neglected trace the model's decay
certificate bounds; a model without one has no steady state here, and its
evolution systems start from a finite anchor (``measures.gaussian_system``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evolution import flow, propagator_matrix
from .integrators import quad
from .linalg import SymOperator, clamp_psd
from .models import OperatorFamily, WindowExceededError

MODE_TOL = 1e-11


class NoDecayError(RuntimeError):
    """No usable decay rate or noise bound to certify the tail."""


# -- per-mode machinery ------------------------------------------------------

def mode_accumulated(model: OperatorFamily, s: float, t: float) -> np.ndarray:
    """k_i(t, s) of every diagonal mode i over [s, t]: one quad to MODE_TOL, which may raise."""
    if t == s:
        return np.zeros(model.dim)
    cum, diffusion = model.coeffs.drift_antideriv, model.coeffs.diffusion
    at = cum(t)
    f = lambda sigma: np.exp(2.0 * (at - cum(sigma))) * diffusion(sigma) ** 2
    return quad(f, s, t, epsabs=MODE_TOL, epsrel=MODE_TOL, limit=400)


def accumulated(model: OperatorFamily, s: float, t: float) -> SymOperator:
    """The covariance K(t, s) accumulated by the noise between s and t.

    Results are memoized per model: K is a pure function of (s, t), and
    call sites (finite differences, norm checks, repeated propagations) hit
    the same pairs many times over: a dense family's K is the one
    ``evolution.flow`` stores, a diagonal family's is kept here.
    """
    model.require_span(s, t)
    if model.kind == "dense":
        return flow(model, s, t)[1]
    cache = model.memo.setdefault("kernel", {})
    key = (float(s), float(t))
    if key not in cache:
        cache[key] = clamp_psd(np.diag(mode_accumulated(model, s, t)))
    return cache[key]


def tail_cutoff(model: OperatorFamily, t: float, tol_tail: float = 1e-10) -> tuple[float, float]:
    """The certified cutoff s* of K(t, -inf) and its neglected-trace bound.

    The cutoff comes from the model's decay certificate (scale M, rate
    zeta > 0) and the noise bound K = ``meta["noise_sup"]``:

        neglected trace <= dim * M^2 K^2 * exp(-2 zeta (t - s*)) / (2 zeta),

    pushed below ``tol_tail``, with t - s* at least 1.  The tail runs over
    (-inf, s*], so both bounds must hold before the window too: the catalog
    diagonal families state them in closed form over the whole line, a
    parabolic family with callable coefficients samples them in the window.
    """
    if model.decay is None or model.decay[1] <= 0.0:
        raise NoDecayError("model has no positive decay rate; anchor the system at a finite start")
    big_m, zeta = model.decay
    if "noise_sup" not in model.meta:
        raise NoDecayError("model meta has no noise_sup to bound the tail; "
                           "anchor the system at a finite start")
    k_sup = float(model.meta["noise_sup"])
    lead = model.dim * big_m**2 * k_sup**2 / (2.0 * zeta)
    gap = max(math.log(max(lead, tol_tail) / tol_tail) / (2.0 * zeta), 1.0)
    return t - gap, lead * math.exp(-2.0 * zeta * gap)


def steady_state(model: OperatorFamily, t: float, tol_tail: float = 1e-10) -> SymOperator:
    """Infinite-horizon covariance K(t, -inf), truncated at the cutoff s* of
    ``tail_cutoff``: the memoized K(t, s*) itself, with neglected trace at
    most ``tol_tail``.
    """
    model.require_window(t)
    s_star = tail_cutoff(model, t, tol_tail)[0]
    if s_star < model.window[0]:
        raise WindowExceededError(
            f"tail cutoff {s_star:.3f} falls before window start {model.window[0]}; "
            "widen the window or anchor the system at a finite start")
    return accumulated(model, s_star, t)


# -- derivative identities ----------------------------------------------------

def central_differences(f, step: float):
    """D(step) and D(step/2), D(h) = (f(h) - f(-h)) / 2h, and their Richardson
    value (4 D(step/2) - D(step))/3, whose O(step^2) truncation cancels."""
    fd, fd_half = ((f(h) - f(-h)) / (2.0 * h) for h in (step, 0.5 * step))
    return fd, fd_half, (4.0 * fd_half - fd) / 3.0


@dataclass(frozen=True)
class DerivativeReport:
    """A K-derivative's central difference at fd_step, its closed form and their distance;
    ``extrapolated`` is the distance of the Richardson value from the closed form."""

    fd_value: float
    formula_value: float
    abs_discrepancy: float
    extrapolated: float


def check_forward_derivative(model: OperatorFamily, s: float, t: float,
                             h: np.ndarray, fd_step: float = 1e-4) -> DerivativeReport:
    """d/dtau <K(tau, s) h, h> at tau = t against its closed form

        <Q(t) h, h> + 2 <K(t, s) A(t)^T h, h>,

    with Q(t) = B(t) B(t)^T.  Central finite differences on the left.
    """
    if not s < t:
        raise ValueError("need s < t")
    h = np.asarray(h, dtype=float)
    fd, _, richardson = central_differences(
        lambda d: accumulated(model, s, t + d).quadratic_form(h), fd_step)
    q_t = model.diffusion_matrix(t)
    ah = model.drift_matrix(t).T @ h
    formula = float(h @ q_t @ h) + 2.0 * float(h @ accumulated(model, s, t).entries @ ah)
    return DerivativeReport(fd, formula, abs(fd - formula), abs(richardson - formula))


def check_backward_derivative(model: OperatorFamily, s: float, t: float,
                              x: np.ndarray, fd_step: float = 1e-4) -> DerivativeReport:
    """d/dsigma <K(t, sigma) x, x> at sigma = s against

        - <U(t, s) Q(s) U(t, s)^T x, x>.
    """
    if not s < t:
        raise ValueError("need s < t")
    x = np.asarray(x, dtype=float)
    fd, _, richardson = central_differences(
        lambda d: accumulated(model, s + d, t).quadratic_form(x), fd_step)
    u = propagator_matrix(model, s, t)
    formula = -float(x @ u @ model.diffusion_matrix(s) @ u.T @ x)
    return DerivativeReport(fd, formula, abs(fd - formula), abs(richardson - formula))
