"""Time-dependent drift/noise families on an n-dimensional truncation.

A model is the pair of maps t -> A(t) (drift) and t -> B(t) (noise) on a
finite truncation of the state space, together with a query window
[t_min, t_max] that every time query must fall in.  Two kinds are
supported:

  diagonal   A(t) e_k = a_k(t) e_k,  B(t) e_k = b_k(t) e_k, every a_k with
             a closed-form antiderivative; a time, or an array of times,
             maps to all n values a_k or b_k on the last axis
  dense      A(t), B(t) arbitrary matrix-valued callables

The factories below ship the concrete families used throughout the test
suite: constant diagonal coefficients, a rational-in-time diagonal drift with
oscillating diffusion, the scalar non-autonomous analogue of the classical
Ornstein-Uhlenbeck operator (n identical diagonal modes), a 1-D
finite-difference discretization of a divergence-form parabolic operator
with Dirichlet boundary (written as the tridiagonal matrix it is), and a
two-mode family engineered so that more than one evolution system exists.

``meta`` carries the model data the checks read: ``noise_sup``, a bound on
|B(t)| behind the steady-state tail cutoff, and, for the non-uniqueness
family, ``mean_scale``, the flow-invariant mean shift.

The diagonal catalog families state ``noise_sup`` and the decay certificate
in closed form, bounds over the whole real line and so over every window.
A parabolic family takes both from its one matrix when its coefficients are
numbers, and from 101 samples across the window when they are callables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .linalg import operator_norm


class BadParameterError(ValueError):
    """Model construction parameters violate the factory's contract."""


class WindowExceededError(ValueError):
    """A query time falls outside the model's window."""


@dataclass(frozen=True)
class DiagonalCoefficients:
    """Drift/diffusion coefficients of every diagonal mode at once: a time,
    or an array of times of shape S, maps to the n mode values on the last
    axis, an array of shape S + (n,).

    ``drift_antideriv`` is an exact antiderivative c of the drift: U of
    mode k is exp(c_k(t) - c_k(s)), and K of the mode takes its exponent
    from the same c.  A drift without a closed-form integral is a dense
    model.
    """

    drift: Callable
    diffusion: Callable
    drift_antideriv: Callable


@dataclass(frozen=True)
class OperatorFamily:
    name: str
    dim: int
    window: tuple[float, float]
    coeffs: DiagonalCoefficients | None = None  # a diagonal family carries these
    noise_fn: Callable | None = None  # t -> (dim, dim); a dense family carries both maps
    drift_fn: Callable | None = None  # t -> (dim, dim)
    decay: tuple[float, float] | None = None  # (M, zeta): ||U(t,s)|| <= M e^{-zeta (t-s)}
    meta: dict = field(default_factory=dict)  # "noise_sup" (a bound on |B(t)|), "mean_scale"
    # dense kind: A and B constant in t and A symmetric, so evolution.flow
    # evaluates (U, K) from one eigendecomposition of A
    autonomous: bool = False
    # pure-function caches: the flow memo, a diagonal family's kernels, the
    # spectral decomposition of an autonomous family and the decay certificates
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.window[0] >= self.window[1]:
            raise BadParameterError(f"empty window {self.window}")
        if self.dim < 1:
            raise BadParameterError("dim must be >= 1")
        # diagonal: coeffs and neither map; dense: both maps and no coeffs
        if (self.drift_fn is not None, self.noise_fn is not None) != (self.coeffs is None,) * 2:
            raise BadParameterError("a family carries either coeffs (diagonal) "
                                    "or drift_fn and noise_fn (dense)")

    @property
    def kind(self) -> str:
        """The model kind, "diagonal" when the family carries ``coeffs``, else "dense"."""
        return "dense" if self.coeffs is None else "diagonal"

    # -- queries ----------------------------------------------------------

    def require_window(self, *times: float) -> None:
        lo, hi = self.window
        for t in times:
            if not (lo <= t <= hi):
                raise WindowExceededError(f"time {t} outside window [{lo}, {hi}]")

    def require_span(self, s: float, t: float) -> None:
        """Refuse a span [s, t] unless s <= t and both ends lie in the window."""
        if t < s:
            raise ValueError(f"need s <= t, got s={s}, t={t}")
        self.require_window(s, t)

    def drift_matrix(self, t: float) -> np.ndarray:
        self.require_window(t)
        if self.kind == "diagonal":
            return np.diag(self.coeffs.drift(t))
        return np.asarray(self.drift_fn(t), dtype=float)

    def noise_matrix(self, t: float) -> np.ndarray:
        self.require_window(t)
        if self.kind == "diagonal":
            return np.diag(self.coeffs.diffusion(t))
        return np.asarray(self.noise_fn(t), dtype=float)

    def diffusion_matrix(self, t: float) -> np.ndarray:
        """Q(t) = B(t) B(t)^T."""
        b = self.noise_matrix(t)
        return b @ b.T


def _per_mode(values, n: int) -> np.ndarray:
    """values, an array over times, repeated for n modes on a last axis."""
    values = np.asarray(values, dtype=float)
    return np.broadcast_to(values[..., None], values.shape + (n,))


def constant_modes(lams, bs) -> DiagonalCoefficients:
    """Modes with constant drifts lams and diffusions bs."""
    lams, bs = np.asarray(lams, dtype=float), np.asarray(bs, dtype=float)
    return DiagonalCoefficients(
        drift=lambda t: np.broadcast_to(lams, np.shape(t) + lams.shape),
        diffusion=lambda t: np.broadcast_to(bs, np.shape(t) + bs.shape),
        drift_antideriv=lambda t: np.multiply.outer(t, lams))


def make_diagonal_constant(n: int, lam: float, b: float,
                           window: tuple[float, float] = (-50.0, 50.0)) -> OperatorFamily:
    """Constant diagonal model: a_k = lam < 0, b_k = b.

    The propagator is exp(lam (t-s)) I, so the decay certificate (M, zeta) =
    (1, -lam) is exact, not fitted, and |B(t)| = |b|.
    """
    if lam >= 0:
        raise BadParameterError(f"need lam < 0, got {lam}")
    if n < 1:
        raise BadParameterError("n must be >= 1")
    lam, b = float(lam), float(b)
    return OperatorFamily(
        name="diag-constant", dim=n, window=window,
        coeffs=constant_modes(np.full(n, lam), np.full(n, b)),
        decay=(1.0, -lam), meta={"noise_sup": abs(b)},
    )


def _inverse_even_power_antiderivs(n: int) -> Callable:
    """Antiderivatives F_k of 1/(1 + t^{2k}), k = 1..n, on the last axis, by
    partial fractions over the roots e^{i theta_j}, theta_j = (2j - 1) pi / (2k),
    j = 1..k:

        F_k(t) = (1/2k) sum_j [2 sin theta_j atan((t - cos theta_j) / sin theta_j)
                               - cos theta_j ln(t^2 - 2 t cos theta_j + 1)].

    cos theta_j and sin theta_j are taken as the sine and cosine of
    phi_j = pi/2 - theta_j.  phi_j is 0 for the middle root of an odd k, so
    that root's cosine is exactly 0 and F_1 is atan t to the last bit.  The
    terms of every root of every mode are one broadcast, summed mode by mode.
    """
    ks = np.arange(1, n + 1)
    phis = np.concatenate([(k + 1 - 2 * np.arange(1, k + 1)) * np.pi / (2 * k) for k in ks])
    sin_j, cos_j = np.cos(phis), np.sin(phis)
    starts = np.cumsum(ks) - ks  # each mode's first root

    def antideriv(t):
        t = np.asarray(t, dtype=float)[..., None]
        terms = (2.0 * sin_j * np.arctan((t - cos_j) / sin_j)
                 - cos_j * np.log(t * t - 2.0 * t * cos_j + 1.0))
        return np.add.reduceat(terms, starts, axis=-1) / (2 * ks)

    return antideriv


def make_diagonal_rational(n: int, c1: float, c2: float,
                           window: tuple[float, float] = (-50.0, 50.0)) -> OperatorFamily:
    """Diagonal model with rational-in-time drift and oscillating diffusion:

        a_k(t) = -(k^2 + c1) / (t^{2k} + 1),   b_k(t) = sin(k t) + c2,

    k = 1..n, with c1 > 0 and c2 > 1, so 0 < c2 - 1 <= b_k <= 1 + c2.
    Each a_k is strictly negative but tends to 0 at infinity, so the model
    carries no decay certificate.  Every
    mode carries the closed-form antiderivative -(k^2 + c1) F_k, with F_k
    from ``_inverse_even_power_antiderivs``; F_1 is atan.
    Note mode 1 has integrable drift, so the propagator does NOT vanish as
    s -> -infinity and no infinite-horizon covariance exists: evolution
    systems for this model must be anchored at a finite start time.
    """
    if c1 <= 0:
        raise BadParameterError(f"need c1 > 0, got {c1}")
    if c2 <= 1:
        raise BadParameterError(f"need c2 > 1, got {c2}")

    ks = np.arange(1, n + 1)
    scales, antiderivs = -(ks * ks + c1), _inverse_even_power_antiderivs(n)

    def drift(t):
        t = np.asarray(t, dtype=float)[..., None]
        with np.errstate(over="ignore"):
            return scales / (t ** (2 * ks) + 1.0)

    coeffs = DiagonalCoefficients(
        drift=drift,
        diffusion=lambda t: np.sin(ks * np.asarray(t, dtype=float)[..., None]) + c2,
        drift_antideriv=lambda t: scales * antiderivs(t))
    return OperatorFamily(
        name="diag-rational", dim=n, window=window, coeffs=coeffs,
        meta={"noise_sup": 1.0 + float(c2)},
    )


def _constant_matrix(b: np.ndarray) -> Callable:
    """t -> b, handing out one read-only array instead of a copy per call."""
    b.setflags(write=False)
    return lambda t: b


def make_parabolic_1d(m: int, a: Callable | float, a0: Callable | float,
                      window: tuple[float, float] = (-50.0, 50.0),
                      noise: Callable | None = None) -> OperatorFamily:
    """Second-order finite-difference drift on (0, 1) with Dirichlet rows.

    A(t) discretizes u -> (a(t, x) u')' + a0(t, x) u on m interior points,
    x_i = i h with h = 1/(m+1), using midpoint coefficients:

        (A u)_i = [a(t, x_i + h/2)(u_{i+1} - u_i)
                   - a(t, x_i - h/2)(u_i - u_{i-1})] / h^2 + a0(t, x_i) u_i.

    A coefficient is a plain number, constant in t and x, or a callable
    taking a float t and an array of points x and returning one value per
    point, or a scalar that broadcasts; a callable that cannot take an
    array raises BadParameterError here.  A(t) = diag(a0) - D^T diag(a / h^2) D
    with D the (m+1) x m Dirichlet difference matrix: tridiagonal, written
    diagonal by diagonal.

    Ellipticity a >= nu > 0 and non-positivity of a0 are checked on a sample
    grid of the window times the spatial nodes.  B defaults to the identity.
    When a and a0 are numbers and B is the default, A is one symmetric
    matrix built once, every check and bound is taken from it exactly, and
    the family is marked ``autonomous``.
    """
    if m < 1:
        raise BadParameterError("m must be >= 1")
    autonomous = not callable(a) and not callable(a0) and noise is None
    # a coefficient maps (t, x) to a value; a plain number is constant in t and x
    a, a0 = (c if callable(c) else (lambda t, x, c=c: c) for c in (a, a0))
    h = 1.0 / (m + 1)
    xs = np.arange(1, m + 1) * h
    mids = np.arange(0.5, m + 1) * h  # staggered coefficient nodes
    # an autonomous family is the same at every time, so one time is exact
    t_grid = [float(window[0])] if autonomous else np.linspace(window[0], window[1], 101)

    def sample(f, name, t, points):
        try:
            return np.broadcast_to(np.asarray(f(t, points), dtype=float), points.shape)
        except (TypeError, ValueError) as err:
            raise BadParameterError(
                f"coefficient {name} must be a number or accept an array of points: {err}"
            ) from err

    a_min = min(float(sample(a, "a", t, mids).min()) for t in t_grid)
    if not a_min > 0:
        raise BadParameterError(f"ellipticity violated: min a = {a_min}")
    a0_max = max(float(sample(a0, "a0", t, xs).max()) for t in t_grid)
    if not a0_max <= 0:
        raise BadParameterError(f"zero-order coefficient must be <= 0, max is {a0_max}")

    h2 = np.full(m + 1, h**2)  # an array, so a scalar coefficient broadcasts

    def drift_fn(t):
        c = np.divide(a(t, mids), h2)
        flat = np.zeros(m * m)
        flat[::m + 1] = -c[:-1] - c[1:] + a0(t, xs)  # the diagonal
        flat[1::m + 1] = flat[m::m + 1] = c[1:-1]  # the super- and subdiagonal
        return flat.reshape(m, m)

    if autonomous:
        drift_fn = _constant_matrix(drift_fn(t_grid[0]))
    if noise is None:
        noise = _constant_matrix(np.eye(m))
    noise_sup = max(operator_norm(np.asarray(noise(t), dtype=float)) for t in t_grid)
    # the drift matrices are symmetric, so the logarithmic-norm bound
    # ||U(t,s)|| <= exp(integral of lambda_max(A)) holds and a negative top
    # eigenvalue, sampled or (autonomous) exact, certifies exponential decay
    top = max(float(np.linalg.eigvalsh(drift_fn(t)).max()) for t in t_grid)
    decay = (1.0, -top) if top < 0 else None
    return OperatorFamily(
        name="parabolic-1d", dim=m, window=window,
        drift_fn=drift_fn, noise_fn=noise, decay=decay, meta={"noise_sup": noise_sup},
        autonomous=autonomous,
    )


SQRT2 = math.sqrt(2.0)


def _quartic_ratio_antideriv(t):
    """An antiderivative of t^2 / (1 + t^4):

        (1/2 sqrt2) [atan(sqrt2 t + 1) + atan(sqrt2 t - 1)]
            + (1/4 sqrt2) ln((t^2 - sqrt2 t + 1) / (t^2 + sqrt2 t + 1)),

    which tends to -pi / (2 sqrt2) as t -> -inf.
    """
    return ((np.arctan(SQRT2 * t + 1.0) + np.arctan(SQRT2 * t - 1.0)) / (2.0 * SQRT2)
            + np.log((t * t - SQRT2 * t + 1.0) / (t * t + SQRT2 * t + 1.0)) / (4.0 * SQRT2))


def make_nonunique_demo(n: int, window: tuple[float, float] = (-250.0, 50.0)) -> OperatorFamily:
    """Two-regime diagonal model admitting several evolution systems.

    Mode 1 has drift a_1(t) = -t^2/(1 + t^4): non-positive with supremum 0
    (attained at t = 0) and integrable over the line, so the mode-1
    propagator entry converges to a positive constant as s -> -infinity
    instead of vanishing.  Modes k >= 2 decay hard with a_k = -k^2.  The
    diffusion is b_1(t) = 1/(1 + t^2) (square integrable, keeping the
    infinite-horizon covariance finite) and b_k = 1 for k >= 2, so
    |B(t)| <= 1.  Every mode carries its closed-form drift antiderivative
    c_k; c_1 is minus ``_quartic_ratio_antideriv``.

    The factory records m(t) = exp(c_1(t) - c_1(-inf)) = exp(integral of
    a_1 over (-inf, t]) as ``meta["mean_scale"]``.  Since m solves the
    mode-1 flow, m(t) e_1 is carried along by the propagator, and shifting
    any zero-mean evolution system by m(t) e_1 produces a second, distinct
    system.  U and m share c_1, so the shift is flow-invariant to roundoff.
    """
    if n < 2:
        raise BadParameterError("need n >= 2 to separate the two regimes")

    first = np.arange(n) == 0
    lams = -np.arange(1.0, n + 1) ** 2  # -k^2, the drift of every mode k >= 2
    times = lambda t: np.asarray(t, dtype=float)[..., None]

    def c1(t):
        return -_quartic_ratio_antideriv(t)

    coeffs = DiagonalCoefficients(
        drift=lambda t: np.where(first, -(times(t) ** 2) / (1.0 + times(t) ** 4), lams),
        diffusion=lambda t: np.where(first, 1.0 / (1.0 + times(t) ** 2), 1.0),
        drift_antideriv=lambda t: np.where(first, c1(times(t)), lams * times(t)))
    c1_at_minus_inf = math.pi / (2.0 * SQRT2)

    def mean_scale(t: float) -> float:
        return math.exp(c1(t) - c1_at_minus_inf)

    return OperatorFamily(
        name="nonunique-demo", dim=n, window=window, coeffs=coeffs,
        meta={"noise_sup": 1.0, "mean_scale": mean_scale},
    )


# -- catalog ---------------------------------------------------------------

def _build_scalar_osc(n: int = 4, offset: float = -1.0, amp: float = -0.5,
                      window: tuple[float, float] = (-50.0, 50.0)) -> OperatorFamily:
    """A(t) = (offset + amp sin t) I, B = I as n identical diagonal modes; the
    drift is at most offset + |amp| < 0, which gives the decay certificate."""
    top = offset + abs(amp)
    if not top < 0:
        raise BadParameterError(f"need offset + |amp| < 0, got {top}")
    coeffs = DiagonalCoefficients(
        drift=lambda t: _per_mode(offset + amp * np.sin(t), n),
        diffusion=lambda t: _per_mode(np.ones(np.shape(t)), n),
        drift_antideriv=lambda t: _per_mode(offset * t - amp * np.cos(t), n),
    )
    return OperatorFamily(
        name="scalar", dim=n, window=window, coeffs=coeffs,
        decay=(1.0, -top), meta={"noise_sup": 1.0},
    )


def _build_parabolic(m: int = 5, nu: float = 1.0, omega: float = 1.0,
                     window: tuple[float, float] = (-50.0, 50.0)) -> OperatorFamily:
    return make_parabolic_1d(m, a=nu, a0=-omega, window=window)


# name -> (builder, default parameters)
CATALOG: dict[str, tuple[Callable, dict]] = {
    "diag-constant": (make_diagonal_constant, {"n": 8, "lam": -1.0, "b": 1.0}),
    "diag-rational": (make_diagonal_rational, {"n": 4, "c1": 1.0, "c2": 2.0}),
    "scalar-osc": (_build_scalar_osc, {"n": 4, "offset": -1.0, "amp": -0.5}),
    "parabolic-1d": (_build_parabolic, {"m": 5, "nu": 1.0, "omega": 1.0}),
    "nonunique-demo": (make_nonunique_demo, {"n": 3}),
}


def build_model(name: str, params: dict | None = None) -> OperatorFamily:
    """Construct a catalog model by name, overriding its defaults or ``window``."""
    if name not in CATALOG:
        raise BadParameterError(f"unknown model {name!r}; catalog: {sorted(CATALOG)}")
    builder, defaults = CATALOG[name]
    unknown = sorted(set(params or {}) - set(defaults) - {"window"})
    if unknown:
        raise BadParameterError(f"unknown parameter(s) of {name}: {', '.join(unknown)}")
    for key, value in (params or {}).items():
        # NaN fails every comparison, so it slips past checks like ``if lam >= 0``
        if not all(math.isfinite(v) for v in (value if key == "window" else (value,))):
            raise BadParameterError(f"{key} of {name} must be finite, got {value}")
    merged = {**defaults, **(params or {})}
    for key, default in defaults.items():
        # a config number like 2.0 parses as a float; a count must be integral
        if isinstance(default, int):
            if merged[key] != int(merged[key]):
                raise BadParameterError(f"{key} of {name} must be an integer, got {merged[key]}")
            merged[key] = int(merged[key])
    return builder(**merged)
