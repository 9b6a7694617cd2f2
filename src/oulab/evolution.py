"""Two-parameter propagators, the joint (U, K) flow, and decay certificates.

For a model with drift family A(t) and noise B(t), the propagator U(t, s)
and the accumulated noise covariance K(t, s) solve, in the start time s,

    d/ds U = -U A(s),                    U(t, t) = I,
    d/ds K = -(U B(s)) (U B(s))^T,       K(t, t) = 0,

the backward form of the joint system U' = A U, K' = A K + K A^T + B B^T
(Van Loan, IEEE TAC 1978).  U satisfies the chain law
U(t, r) U(r, s) = U(t, s), and K the flow decomposition

    K(t, s) = U(t, r) K(r, s) U(t, r)^T + K(t, r).

Diagonal models get U as entrywise exponentials exp(c_k(t) - c_k(s)), with
c_k the exact drift antiderivative every mode carries
(``ModeCoefficients.drift_antideriv``); K of the mode takes its exponent
from the same c_k.

``flow`` serves U and K for dense models.  An autonomous family (A and B
constant, A symmetric) gets both in closed form from one eigendecomposition
A = V diag(lam) V^T: U = e^{A tau} and K the Van Loan integral of
e^{A r} Q e^{A r} over [0, tau], tau = t - s.  For any other dense family a
span inside one cell [k, k+1] of the unit grid is one DOP853 solve of the
backward system, and a longer span is split at ceil(t) - 1 and composed with
the two laws above.  The split depends on (s, t) alone, so results do not
depend on call order, and long spans reuse the memoized cells.

fit_decay measures propagator norms N(s, t) on a grid of (s, t) pairs, in
either the plain operator norm or the norm between the noise-range metrics
at times s and t, and fits one least-squares line

    log N(s, t) = log scale - rate * (t - s).

The scale is then raised so the bound sits above every sample; certificates
certify the sampled window only.  The certificate keeps the power alpha of
the paper's bound scale * e^{-rate (t-s)} / (t-s)^alpha, and every fit sets
it to 0: in a finite truncation with continuous, invertible noise,
U(t, s) -> I and R_t -> R_s as t -> s, so the range norm stays near 1 close
to the diagonal and has no (t - s)^-alpha factor to find.  A fitted alpha
would only follow the time-varying rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .integrators import IntegratorDivergedError, dop853
from .linalg import SymOperator, operator_norm, range_inverse, sqrt_psd
from .models import OperatorFamily

FLOW_RTOL = 1e-12
FLOW_ATOL = 1e-14
FLOW_FIRST_STEP = 1e-3
RANGE_TOL = 1e-8  # relative share of U(t, s) R_s allowed outside range(R_t)


class FitFailedError(RuntimeError):
    """A measured norm was zero or non-finite, so no decay fit exists."""


class RangeIncompatibleError(ValueError):
    """U(t, s) carries the start noise range outside the end noise range, so
    the range-norm is ill posed."""


def _solve(rhs, s: float, t: float, y0: np.ndarray) -> np.ndarray:
    """State at t of y' = rhs(tau, y), y(s) = y0, by one DOP853 solve;
    t < s integrates backward."""
    if s == t:
        return y0
    return dop853(rhs, s, t, y0, FLOW_RTOL, FLOW_ATOL, min(abs(t - s), FLOW_FIRST_STEP))


def _cell_flow(model: OperatorFamily, s: float, t: float) -> tuple[np.ndarray, np.ndarray]:
    """(U(t, s), K(t, s)) from one DOP853 solve of the backward system from
    (I, 0) at sigma = t down to s, carried as the n x 2n block [U | K].

    K' does not depend on K, so the step control never sees the stiff block
    A K + K A^T of the forward system.
    """
    n = model.dim

    def rhs(sigma, y):
        v = y.reshape(n, 2 * n)[:, :n]
        vb = v @ model.noise_matrix(sigma)
        out = np.empty((n, 2 * n))
        np.matmul(v, model.drift_matrix(sigma), out=out[:, :n])
        np.matmul(vb, vb.T, out=out[:, n:])
        return np.negative(out, out=out).ravel()

    y = _solve(rhs, t, s, np.eye(n, 2 * n).ravel()).reshape(n, 2 * n)  # from [I | 0]
    return y[:, :n], y[:, n:]


def _spectral_flow(model: OperatorFamily, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """(U, K) over a span of length tau of an autonomous family, in closed form.

    With the constant symmetric A = V diag(lam) V^T and C = V^T Q V,

        U = V e^{lam tau} V^T,   K = V (E o C) V^T,
        E_ij = integral of e^{(lam_i + lam_j) r} over [0, tau]
             = expm1((lam_i + lam_j) tau) / (lam_i + lam_j),

    and E_ij = tau where lam_i + lam_j = 0; tau = 0 gives (I, 0) exactly.
    The decomposition is computed on first use and kept in
    ``model.memo["spectral"]``.
    """
    if tau == 0.0:
        return np.eye(model.dim), np.zeros((model.dim, model.dim))
    if "spectral" not in model.memo:
        a = model.drift_matrix(model.window[0])
        if not np.array_equal(a, a.T):
            raise ValueError(f"autonomous family {model.name!r} has a non-symmetric drift")
        lam, v = np.linalg.eigh(a)
        rates = lam[:, None] + lam[None, :]
        model.memo["spectral"] = lam, v, rates, v.T @ model.diffusion_matrix(model.window[0]) @ v
    lam, v, rates, c = model.memo["spectral"]
    e = np.full_like(rates, tau)
    np.divide(np.expm1(rates * tau), rates, out=e, where=rates != 0.0)
    return (v * np.exp(lam * tau)) @ v.T, v @ (e * c) @ v.T


def flow(model: OperatorFamily, s: float, t: float) -> tuple[np.ndarray, np.ndarray]:
    """(U(t, s), K(t, s)) of the joint flow, memoized per model.

    An autonomous family is served in closed form from one eigendecomposition
    of its drift (``_spectral_flow``).  Otherwise a span inside one unit-grid
    cell is solved directly, and a longer one is split at r = ceil(t) - 1
    into [s, r] and [r, t] and composed.  The returned arrays are the memo's
    own and are read-only.
    """
    if t < s:
        raise ValueError(f"need s <= t, got s={s}, t={t}")
    model.require_window(s, t)
    memo = model.memo.setdefault("flow", {})
    key = (float(s), float(t))
    if key not in memo:
        r = math.ceil(t) - 1
        if model.autonomous:
            u, k = _spectral_flow(model, key[1] - key[0])
        elif s >= r:
            u, k = _cell_flow(model, s, t)
        else:
            u_tr, k_tr = flow(model, r, t)
            u_rs, k_rs = flow(model, s, r)
            u, k = u_tr @ u_rs, u_tr @ k_rs @ u_tr.T + k_tr
        u.setflags(write=False)
        k.setflags(write=False)
        memo[key] = (u, k)
    return memo[key]


def propagator_matrix(model: OperatorFamily, s: float, t: float) -> np.ndarray:
    """Matrix of U(t, s).

    Dense models read it from the memoized ``flow`` (read-only); diagonal
    models are cheap enough to recompute.
    """
    if t < s:
        raise ValueError(f"need s <= t, got s={s}, t={t}")
    model.require_window(s, t)
    if model.kind == "diagonal":
        return np.diag([math.exp(float(m.drift_antideriv(t)) - float(m.drift_antideriv(s)))
                        for m in model.modes])
    return flow(model, s, t)[0]


def adjoint_by_integration(model: OperatorFamily, s: float, t: float) -> np.ndarray:
    """Independent adjoint solve, used to cross-check the transpose of
    propagator_matrix: one U-only pass of V' = V A(t)^T over the whole of
    [s, t], outside the flow memo and its unit-grid composition."""
    if t < s:
        raise ValueError(f"need s <= t, got s={s}, t={t}")
    model.require_window(s, t)
    n = model.dim
    rhs = lambda tau, y: (y.reshape(n, n) @ model.drift_adjoint(tau)).ravel()
    return _solve(rhs, s, t, np.eye(n).ravel()).reshape(n, n)


# -- norms and decay certificates -------------------------------------------

def cm_operator_norm(model: OperatorFamily, s: float, t: float) -> float:
    """Norm of U(t, s) between the noise-range metrics at times s and t.

    Computed as the spectral norm of R_t^-1 U(t, s) R_s with R_r the PSD
    square root of B(r) B(r)^T and R_t^-1 its pseudo-inverse, applied from
    the factors of ``range_inverse``.  Raises when U(t, s) pushes the range
    of R_s outside the range of R_t (the eigenvectors with w+ > 0) by more
    than RANGE_TOL relative; the mapping is ill posed in that case.
    """
    u = propagator_matrix(model, s, t)
    root_s = sqrt_psd(SymOperator(model.diffusion_matrix(s))).entries
    v, inv = range_inverse(sqrt_psd(SymOperator(model.diffusion_matrix(t))))
    mapped = u @ root_s
    v_range = v[:, inv > 0.0]
    residual = mapped - v_range @ (v_range.T @ mapped)
    if float(np.abs(residual).max()) > RANGE_TOL * max(1.0, float(np.abs(mapped).max())):
        raise RangeIncompatibleError(
            "range of the start metric is not carried into the end metric")
    return operator_norm((v @ ((v.T @ u).T * inv).T) @ root_s)


@dataclass(frozen=True)
class DecayCertificate:
    """Fitted bound  norm(s, t) <= scale * e^{-rate (t-s)} / (t-s)^power.

    ``mode`` is "operator" or "cameron-martin".  ``fit_decay`` sets ``power``
    to 0 in both modes; the field keeps the algebraic factor of the paper's
    bound, which ``inequalities.log_sobolev_constant`` reads.  The
    certificate is sound on its sampled pairs: after fitting, ``scale`` is
    inflated so the bound majorizes every measured norm up to ``slack``.
    """

    mode: str
    scale: float
    rate: float
    power: float
    residual: float
    pairs: tuple[tuple[float, float], ...]
    slack: float = 1e-9

    def bound(self, s: float, t: float) -> float:
        gap = t - s
        return self.scale * math.exp(-self.rate * gap) / gap**self.power

    def as_dict(self) -> dict:
        if self.mode == "operator":
            names = {"M": self.scale, "zeta": self.rate}
        else:
            names = {"C": self.scale, "eta": self.rate, "alpha": self.power}
        return {
            "mode": self.mode,
            **names,
            "residual": self.residual,
            "grid": [list(p) for p in self.pairs],
            "certified_window": [min(s for s, _ in self.pairs), max(t for _, t in self.pairs)],
        }


def measured_norm(model: OperatorFamily, s: float, t: float, mode: str) -> float:
    if mode == "operator":
        return operator_norm(propagator_matrix(model, s, t))
    if mode == "cameron-martin":
        return cm_operator_norm(model, s, t)
    raise ValueError(f"unknown norm mode {mode!r}")


def fit_decay(model: OperatorFamily, pairs, mode: str = "operator") -> DecayCertificate:
    """Least-squares decay line over (s, t) pairs, upgraded to a sound bound.

    Fits log N = log scale - rate * (t - s) with power 0, then raises the
    scale until the bound covers every measured norm.  Pairs with t <= s are
    refused: at t = s the norm is that of the identity whatever the model,
    so it says nothing about the rate, and the paper's bound with power
    alpha > 0 is infinite there.  When all gaps agree to 1e-9 relative, a
    line has no slope to fit, and the largest norm is interpolated at the
    largest gap: scale 1 when it decays, otherwise rate 0.
    A certificate is a pure function of (mode, pairs), so a fitted one is
    kept in ``model.memo["decay"]`` and returned by later calls; a failed
    fit is not kept.
    """
    pairs = tuple((float(s), float(t)) for s, t in pairs)
    memo = model.memo.setdefault("decay", {})
    if (mode, pairs) not in memo:
        memo[mode, pairs] = _fit_decay(model, pairs, mode)
    return memo[mode, pairs]


def _fit_decay(model: OperatorFamily, pairs: tuple, mode: str) -> DecayCertificate:
    if not pairs:
        raise FitFailedError("empty grid")
    if any(t <= s for s, t in pairs):
        raise ValueError("grid pairs must satisfy s < t")
    norms = np.array([measured_norm(model, s, t, mode) for s, t in pairs])
    if not np.all(np.isfinite(norms)) or np.any(norms <= 0.0):
        raise FitFailedError("measured norms must be finite and positive")
    gaps = np.array([t - s for s, t in pairs])
    logn = np.log(norms)

    if np.allclose(gaps, gaps[0], rtol=1e-9, atol=0.0):
        g, ln = float(gaps.max()), float(logn.max())
        if ln < 0:
            scale, rate = 1.0, -ln / g
        else:
            scale, rate = math.exp(ln), 0.0
        return DecayCertificate(mode, scale, rate, 0.0, float(np.std(logn)), pairs)

    coef = np.polyfit(gaps, logn, 1)
    rate, logc = -float(coef[0]), float(coef[1])
    fitted = logc - rate * gaps
    residual = float(np.sqrt(np.mean((fitted - logn) ** 2)))
    # upgrade: shift the scale so the bound sits above every sample
    logc += max(0.0, float(np.max(logn - fitted)))
    return DecayCertificate(mode, math.exp(logc), rate, 0.0, residual, pairs)
