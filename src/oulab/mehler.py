"""Exact transition action on trigonometric polynomials.

The transition operator of the model between s and t maps an observable
phi to its average under the Gaussian law N(U(t,s) x, K(t,s)).  On a complex
exponential e^{i<., h>} that average is a closed form,

    (P phi)(x) = exp(-<K(t,s) h, h>/2) * e^{i<x, U(t,s)^T h>},

so finite combinations of exponentials propagate exactly: coefficients pick
up the Gaussian damping factor and frequencies flow along the adjoint
propagator.  Everything else about the operator family is checked against
this closed form: Monte Carlo application, the pointwise generator on trig
polynomials

    (L(r) phi)(x) = 1/2 Tr(Q(r) Hess phi(x)) + <x, A(r)^T grad phi(x)>,

and the two differentiation formulas (in the start and end times).
Cylindrical functions psi(<x, h_1>, ..., <x, h_k>) carry a profile and its
gradient, all that the entropy and norm-ratio checks evaluate.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .covariance import accumulated
from .evolution import propagator_matrix
from .linalg import spectral_factor
from .models import OperatorFamily
from .rng import chunked_normals

CANONICAL_DECIMALS = 12  # frequencies equal to this many decimals merge


@dataclass(frozen=True)
class TrigPolynomial:
    """Finite combination sum_j c_j e^{i <x, h_j>} stored as term data.

    ``coeffs`` is a complex vector, ``freqs`` the matching (terms, dim)
    frequency matrix.  The class is closed under sums, under scaling by a
    number and under the exact transition action (see ``propagate_trig``).
    """

    coeffs: np.ndarray
    freqs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=complex))
        f = np.atleast_2d(np.asarray(self.freqs, dtype=float))
        if c.shape[0] != f.shape[0]:
            raise ValueError("one coefficient per frequency row required")
        c.setflags(write=False)
        f.setflags(write=False)
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "freqs", f)

    @property
    def dim(self) -> int:
        return self.freqs.shape[1]

    @property
    def n_terms(self) -> int:
        return self.freqs.shape[0]

    @cached_property
    def _folded(self) -> tuple[np.ndarray, np.ndarray]:
        """Terms folded onto their k distinct directions H, each signed so
        its first nonzero entry is positive: c e^{i<x,h>} + c' e^{-i<x,h>}
        is (c + c') cos<x,h> + i (c - c') sin<x,h>.  Returns H and the real
        (2k, 2) map from [cos | sin] of x H^T to the value's (Re, Im)."""
        f = self.freqs
        lead = f[np.arange(len(f)), np.argmax(f != 0.0, axis=1)]
        sign = np.where(lead < 0.0, -1.0, 1.0)
        dirs, where = np.unique(sign[:, None] * f + 0.0, axis=0, return_inverse=True)
        even = np.zeros(len(dirs), dtype=complex)
        odd = np.zeros(len(dirs), dtype=complex)
        np.add.at(even, where, self.coeffs)
        np.add.at(odd, where, sign * self.coeffs)
        mix = np.block([[even.real[:, None], even.imag[:, None]],
                        [-odd.imag[:, None], odd.real[:, None]]])
        return dirs, mix

    def evaluate(self, x: np.ndarray) -> complex | np.ndarray:
        """Value at a point (dim,) or at each row of an (N, dim) array."""
        x = np.asarray(x, dtype=float)
        dirs, mix = self._folded
        phases = x @ dirs.T
        parts = np.concatenate([np.cos(phases), np.sin(phases)], axis=-1) @ mix
        vals = parts[..., 0] + 1j * parts[..., 1]
        if x.ndim == 1:
            return complex(vals)
        return vals

    def __call__(self, x):
        return self.evaluate(x)

    def __mul__(self, other):
        return TrigPolynomial(self.coeffs * complex(other), self.freqs)

    __rmul__ = __mul__

    def __add__(self, other: "TrigPolynomial") -> "TrigPolynomial":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return TrigPolynomial(np.concatenate([self.coeffs, other.coeffs]),
                              np.vstack([self.freqs, other.freqs]))

    def canonical(self) -> "TrigPolynomial":
        """Merge duplicate frequencies (to CANONICAL_DECIMALS) and sort
        terms, for data-level comparisons of two polynomials."""
        keys = {}
        for c, f in zip(self.coeffs, self.freqs):
            key = tuple(np.round(f, CANONICAL_DECIMALS))
            keys[key] = keys.get(key, 0.0) + c
        items = sorted(keys.items())
        coeffs = np.array([v for _, v in items], dtype=complex)
        freqs = np.array([k for k, _ in items], dtype=float)
        return TrigPolynomial(coeffs, freqs)

    @staticmethod
    def constant(dim: int, value: complex = 1.0) -> "TrigPolynomial":
        return TrigPolynomial([value], np.zeros((1, dim)))

    @staticmethod
    def plane_wave(h: np.ndarray) -> "TrigPolynomial":
        h = np.asarray(h, dtype=float)
        return TrigPolynomial([1.0], h[None, :])

    @staticmethod
    def cosine(h: np.ndarray) -> "TrigPolynomial":
        h = np.asarray(h, dtype=float)
        return TrigPolynomial([0.5, 0.5], np.stack([h, -h]))

    @staticmethod
    def sine(h: np.ndarray) -> "TrigPolynomial":
        h = np.asarray(h, dtype=float)
        return TrigPolynomial([-0.5j, 0.5j], np.stack([h, -h]))


@dataclass(frozen=True)
class CylindricalFunction:
    """phi(x) = psi(<x, h_1>, ..., <x, h_k>) with a smooth profile psi.

    ``directions`` holds the h_i as rows and must be orthonormal.  The
    profile and its gradient act on arrays of shape (..., k); the gradient
    may be omitted for routines that never differentiate (norm ratios).
    """

    profile: callable
    directions: np.ndarray
    gradient: callable | None = None
    label: str = "cylindrical"

    def __post_init__(self):
        d = np.atleast_2d(np.asarray(self.directions, dtype=float))
        gram = d @ d.T
        if np.abs(gram - np.eye(d.shape[0])).max() > 1e-12:
            raise ValueError("directions must be orthonormal to 1e-12")
        d.setflags(write=False)
        object.__setattr__(self, "directions", d)

    @property
    def dim(self) -> int:
        return self.directions.shape[1]

    @property
    def n_dirs(self) -> int:
        return self.directions.shape[0]

    def coords(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float) @ self.directions.T

    def __call__(self, x):
        return self.profile(self.coords(x))


@dataclass(frozen=True)
class MCEstimate:
    value: complex
    stderr: float
    count: int
    seed: int


# -- exact action -------------------------------------------------------------

def propagate_trig(model: OperatorFamily, s: float, t: float,
                   phi: TrigPolynomial) -> TrigPolynomial:
    """Exact image of a trig polynomial under the transition operator.

    Term by term the coefficient is damped by exp(-<K(t,s)h, h>/2) and the
    frequency moves to U(t,s)^T h, so the output lives in the same class.
    """
    if t == s:
        return phi
    u = propagator_matrix(model, s, t)
    k = accumulated(model, s, t).matrix
    damp = np.exp(-0.5 * np.einsum("ij,jk,ik->i", phi.freqs, k, phi.freqs))
    return TrigPolynomial(phi.coeffs * damp, phi.freqs @ u)


def apply_exact(model: OperatorFamily, s: float, t: float,
                phi: TrigPolynomial, x: np.ndarray) -> complex:
    return propagate_trig(model, s, t, phi).evaluate(x)


def apply_mc(model: OperatorFamily, s: float, t: float, phi, x: np.ndarray,
             count: int, seed: int, label: str = "apply-mc") -> MCEstimate:
    """Monte Carlo transition average of a callable observable.

    Draws from N(U(t,s) x, K(t,s)) through the spectral factor; the stderr
    combines real and imaginary sample variances.
    """
    x = np.asarray(x, dtype=float)
    mean = propagator_matrix(model, s, t) @ x
    factor = spectral_factor(accumulated(model, s, t).op)
    z = chunked_normals(seed, label, count, model.dim)
    ys = mean + z @ factor.T
    vals = np.asarray(phi(ys))
    avg = complex(vals.mean())
    var = float(np.var(vals.real)) + float(np.var(vals.imag))
    return MCEstimate(avg, math.sqrt(var / count), count, seed)


# -- generator ----------------------------------------------------------------

def generator_apply(model: OperatorFamily, r: float, phi: TrigPolynomial,
                    x: np.ndarray) -> complex:
    """Pointwise generator L(r) on a trig polynomial: each term picks up the
    factor i<x, A(r)^T h> - <Q(r)h, h>/2."""
    x = np.asarray(x, dtype=float)
    ah = phi.freqs @ model.drift_matrix(r)  # rows A(r)^T h_j
    drift_part = 1j * (ah @ x)
    noise_part = -0.5 * np.einsum("ij,jk,ik->i", phi.freqs, model.diffusion_matrix(r),
                                  phi.freqs)
    phases = np.exp(1j * (phi.freqs @ x))
    return complex(np.sum(phi.coeffs * (drift_part + noise_part) * phases))


def transition_of_generator(model: OperatorFamily, s: float, t: float,
                            phi: TrigPolynomial, x: np.ndarray) -> complex:
    """Closed form of P_{s,t}(L(t) phi)(x) for trig phi.

    Per term: [i<x, U^T A(t)^T h> - <K(t,s) A(t)^T h, h> - <Q(t)h, h>/2]
    times the propagated term value.
    """
    x = np.asarray(x, dtype=float)
    u = propagator_matrix(model, s, t)
    k = accumulated(model, s, t).matrix
    a_star = model.drift_adjoint(t)
    q_t = model.diffusion_matrix(t)
    total = 0.0 + 0.0j
    for c, h in zip(phi.coeffs, phi.freqs):
        ah = a_star @ h
        damp = cmath.exp(-0.5 * float(h @ k @ h) + 1j * float(x @ (u.T @ h)))
        factor = (1j * float(x @ (u.T @ ah))
                  - float(ah @ k @ h)
                  - 0.5 * float(h @ q_t @ h))
        total += c * factor * damp
    return total


# -- differentiation and gradient checks ---------------------------------------

@dataclass(frozen=True)
class DifferentiationReport:
    """Finite differences of (s, t) -> P_{s,t} phi (x) against closed forms.

    ``start_*`` compares the s-derivative with -L(s) P_{s,t} phi (x);
    ``end_*`` compares the t-derivative with P_{s,t}(L(t) phi)(x).  Each
    discrepancy is measured at fd_step and fd_step/2; second-order central
    differences should shrink the error by about 4.
    """

    fd_step: float
    start_discrepancy: float
    start_discrepancy_half: float
    end_discrepancy: float
    end_discrepancy_half: float

    @property
    def start_order_ratio(self) -> float:
        return self.start_discrepancy / max(self.start_discrepancy_half, 1e-300)

    @property
    def end_order_ratio(self) -> float:
        return self.end_discrepancy / max(self.end_discrepancy_half, 1e-300)


def check_differentiation(model: OperatorFamily, s: float, t: float,
                          phi: TrigPolynomial, x: np.ndarray,
                          fd_step: float = 1e-4) -> DifferentiationReport:
    if not s < t:
        raise ValueError("need s < t")
    x = np.asarray(x, dtype=float)

    def value(ss, tt):
        return apply_exact(model, ss, tt, phi, x)

    def start_disc(step):
        fd = (value(s + step, t) - value(s - step, t)) / (2.0 * step)
        formula = -generator_apply(model, s, propagate_trig(model, s, t, phi), x)
        return abs(fd - formula)

    def end_disc(step):
        fd = (value(s, t + step) - value(s, t - step)) / (2.0 * step)
        formula = transition_of_generator(model, s, t, phi, x)
        return abs(fd - formula)

    return DifferentiationReport(
        fd_step,
        start_disc(fd_step), start_disc(fd_step / 2.0),
        end_disc(fd_step), end_disc(fd_step / 2.0),
    )
