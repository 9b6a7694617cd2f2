"""Gaussian measures, evolution systems, and the invariance verifier.

A family of probability measures nu_t is an evolution system for the model's
transition operators when averaging a propagated observable against nu_s
equals averaging the observable against nu_t.  On characteristic functions
this is the single identity

    nu_t^(h) = exp(-<K(t,s) h, h>/2) * nu_s^(U(t,s)^T h),

checked here on finite probe sets, with the damping and U^T h taken from
``mehler.propagate_trig``.  A Gaussian system is one of two kinds, and no
caller supplies a cutoff of its own:

  * certified: nu_t = N(0, K(t, -inf)), the infinite-horizon covariance
    truncated at the cutoff of ``covariance.tail_cutoff``, whose neglected
    trace the model's decay certificate bounds;
  * anchored at a finite time S: nu_t = N(0, K(t, S)), an exact evolution
    system on [S, infinity) regardless of decay.  This is the natural
    realization for models whose infinite-horizon covariance diverges or
    has no certified tail.

Shifting a system by a point mass along a flow-invariant curve produces a
second, distinct system, which is how non-uniqueness is demonstrated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .covariance import accumulated, steady_state
from .linalg import RANK_CUT, SymOperator, spectral_factor
from .mehler import TrigPolynomial, apply_exact, propagate_trig
from .models import OperatorFamily, WindowExceededError
from .rng import CHUNK, chunked_normals, seed_stream


@dataclass(frozen=True)
class GaussianMeasure:
    mean: np.ndarray
    cov: SymOperator
    _factor: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.array(self.mean, dtype=float)
        if m.ndim != 1 or m.shape[0] != self.cov.dim:
            raise ValueError("mean must be a vector matching the covariance")
        m.setflags(write=False)
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "_factor", spectral_factor(self.cov))

    @property
    def dim(self) -> int:
        return self.cov.dim


def characteristic(mu: GaussianMeasure, h: np.ndarray) -> complex | np.ndarray:
    """exp(i<m, h> - <Q h, h>/2) at a frequency h (dim,), or one value per
    row of an array (terms, dim) of frequencies."""
    h = np.asarray(h, dtype=float)
    rows = np.atleast_2d(h)
    vals = np.exp(1j * (rows @ mu.mean) - 0.5 * np.einsum("ij,jk,ik->i", rows, mu.cov.entries, rows))
    return complex(vals[0]) if h.ndim == 1 else vals


def sample(mu: GaussianMeasure, count: int, seed: int, label: str = "sample") -> np.ndarray:
    """(count, dim) i.i.d. draws; deterministic in (seed, label) and
    independent of any chunking of the work.

    The standard normals of ``chunked_normals`` are mapped to mean + F z in
    place, CHUNK rows at a time, so a sample costs one (count, dim) array;
    the first CHUNK rows are the same, bit for bit, for every count."""
    if count < 1:
        raise ValueError("count must be >= 1")
    z = chunked_normals(seed, label, count, mu.dim)
    for lo in range(0, count, CHUNK):
        z[lo:lo + CHUNK] = mu.mean + z[lo:lo + CHUNK] @ mu._factor.T
    return z


def gauss_hermite(mu: GaussianMeasure, x: np.ndarray, w: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Points (rows) and normalized weights for E under mu from the
    physicists' Hermite rule (x, w) of ``hermgauss``: the tensor rule over
    the leading columns of the factor ``sample`` draws with, as many as mu
    has rank (eigenvalues above RANK_CUT times the largest), at most 2.
    Rank 0 is the point mass at the mean."""
    lam = np.einsum("ij,ij->j", mu._factor, mu._factor)  # the eigenvalues
    rank = int(np.count_nonzero(lam > RANK_CUT * lam[0]))
    if rank == 0:
        return mu.mean[None, :], np.ones(1)
    if rank > 2:
        raise ValueError(f"Gauss-Hermite rules take laws of rank at most 2, got {rank}")
    u, w = x[:, None], w / math.sqrt(math.pi)
    if rank == 2:
        u = np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1).reshape(-1, 2)
        w = np.multiply.outer(w, w).reshape(-1)
    return mu.mean + math.sqrt(2.0) * u @ mu._factor[:, :rank].T, w


def marginal(mu: GaussianMeasure, h: np.ndarray) -> GaussianMeasure:
    """Law N(H m, H Q H^T) of the coordinates (<h_1, x>, ..., <h_k, x>)
    under mu = N(m, Q), for the rows h_i of H.  Its factor comes from
    ``spectral_factor``, so a rank-deficient marginal (a zero row, or
    dependent rows) samples with its kernel modes pinned."""
    h = np.atleast_2d(np.asarray(h, dtype=float))
    return GaussianMeasure(h @ mu.mean, SymOperator(h @ mu.cov.entries @ h.T))


def mean_functional(mu: GaussianMeasure, phi: TrigPolynomial) -> complex:
    """Exact mean of a trig polynomial: term coefficients against the
    characteristic function at the term frequencies."""
    return complex(phi.coeffs @ characteristic(mu, phi.freqs))


@dataclass
class EvolutionSystem:
    """A labelled family t -> GaussianMeasure (with memoized lookups)."""

    label: str
    factory: Callable[[float], GaussianMeasure]
    _cache: dict = field(default_factory=dict, repr=False)

    def __call__(self, t: float) -> GaussianMeasure:
        if t not in self._cache:
            self._cache[t] = self.factory(t)
        return self._cache[t]


def gaussian_system(model: OperatorFamily, anchor: float = -math.inf,
                    tol_tail: float = 1e-10) -> EvolutionSystem:
    """Zero-mean Gaussian evolution system for the model.

    ``anchor=-inf`` gives the certified system: the infinite-horizon
    covariance truncated at ``tail_cutoff``, which needs a decay certificate
    and bounds the neglected trace by ``tol_tail``.  A finite anchor S gives
    K(t, S), exact for t >= S; times before the anchor raise
    WindowExceededError.
    """
    zero = np.zeros(model.dim)
    if anchor == -math.inf:
        def factory(t: float) -> GaussianMeasure:
            return GaussianMeasure(zero, steady_state(model, t, tol_tail))
        return EvolutionSystem("gaussian(-inf)", factory)

    def factory(t: float) -> GaussianMeasure:
        if t < anchor:
            raise WindowExceededError(f"time {t} precedes the system anchor {anchor}")
        return GaussianMeasure(zero, accumulated(model, anchor, t))
    return EvolutionSystem(f"gaussian(anchor={anchor:g})", factory)


def point_shifted_system(base: EvolutionSystem, shift: Callable[[float], np.ndarray],
                         label: str | None = None) -> EvolutionSystem:
    """Convolve each measure with a point mass at shift(t) (a mean shift).

    The result is again an evolution system exactly when the shift follows
    the propagator flow: shift(t) = U(t, s) shift(s).
    """
    def factory(t: float) -> GaussianMeasure:
        mu = base(t)
        return GaussianMeasure(mu.mean + np.asarray(shift(t), dtype=float), mu.cov)
    return EvolutionSystem(label or f"{base.label}+shift", factory)


def default_probes(dim: int, seed: int, count: int = 20) -> list[np.ndarray]:
    """The first ``count`` of: basis vectors, adjacent-pair sums (for dim
    >= 3), and seeded random directions; only the random directions kept
    are drawn."""
    probes = [np.eye(dim)[i] for i in range(dim)]
    if dim >= 3:  # below 3 the cyclic pair sums repeat or are parallel to e_1
        probes += [np.eye(dim)[i] + np.eye(dim)[(i + 1) % dim] for i in range(min(dim, 4))]
    gen = seed_stream(seed, "probes")
    for _ in range(count - len(probes)):
        v = gen.standard_normal(dim)
        probes.append(v / np.linalg.norm(v))
    return probes[:count]


@dataclass(frozen=True)
class InvarianceReport:
    """Probe-set evidence for the characteristic-function identity.

    ``rows`` carry (s, t, probe index, |lhs - rhs|), and ``passed`` holds
    when ``max_discrepancy``, the largest of them, is at most ``tol``.  On
    trig polynomials the identity, taken term by term, is the defining one,
    integral of P_{s,t} phi against nu_s = integral of phi against nu_t, so
    no second form is checked.  Finite probes give evidence, not proof.
    """

    rows: tuple
    max_discrepancy: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_discrepancy <= self.tol


def verify_invariance(system: EvolutionSystem, model: OperatorFamily,
                      pairs, probes, tol: float) -> InvarianceReport:
    """Check nu_t^(h) = e^{-<K(t,s)h,h>/2} nu_s^(U^T h) over pairs x probes,
    passing when every discrepancy is at most ``tol``.

    The probes are the terms of one trig polynomial, moved by one
    ``propagate_trig`` call per pair; no random numbers are drawn.
    """
    waves = TrigPolynomial(np.ones(len(probes)), probes)  # one term per probe
    rows = []
    for s, t in pairs:
        moved = propagate_trig(model, s, t, waves)
        gaps = np.abs(characteristic(system(t), waves.freqs)
                      - moved.coeffs * characteristic(system(s), moved.freqs))
        rows += [(float(s), float(t), j, float(g)) for j, g in enumerate(gaps)]
    # np.max keeps a NaN discrepancy, which then fails ``passed``
    worst = float(np.max([row[3] for row in rows], initial=0.0))
    return InvarianceReport(tuple(rows), worst, tol)


@dataclass(frozen=True)
class LongTimeLimitReport:
    """|P_{s,t} phi (x0) - limit| along a sequence of start times.  ``excess``
    is the largest rise of a difference over the one before (beyond 1e-9
    relative) and of the last over ``tol_final``, NaN if any is: at most 0
    exactly when the differences fall monotonically to within ``tol_final``."""

    s_values: tuple
    differences: tuple
    tol_final: float
    excess: float


def verify_long_time_limit(model: OperatorFamily, t: float, x0: np.ndarray,
                           s_values, phi: TrigPolynomial,
                           system: EvolutionSystem | None = None,
                           tol_final: float = 1e-3) -> LongTimeLimitReport:
    """Convergence of the propagated observable to its system mean as the
    start time recedes.  Requires a positive decay rate."""
    if system is None:
        system = gaussian_system(model)
    if model.decay is None or model.decay[1] <= 0:
        raise ValueError("long-time limit check needs a positive decay rate")
    limit = mean_functional(system(t), phi)
    s_values = tuple(float(s) for s in s_values)
    diffs = tuple(abs(apply_exact(model, s, t, phi, x0) - limit) for s in s_values)
    rises = [b - a * (1.0 + 1e-9) for a, b in zip(diffs, diffs[1:])]
    return LongTimeLimitReport(s_values, diffs, tol_final,
                               float(np.max(rises + [diffs[-1] - tol_final])))
