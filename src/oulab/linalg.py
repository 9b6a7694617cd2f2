"""Dense symmetric linear algebra substrate.

Spectral decompositions, PSD square roots and factors, and the norm
induced by a covariance-type operator R on its range,

    <x, y>_R = <R^-1 x, R^-1 y>,

with R^-1 the pseudo-inverse (zero on ker R), applied through the spectral
factors of R and never formed as a matrix.  Everything is dense: the
working dimensions are a few hundred at most, so no sparse machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SYM_TOL = 1e-12
PSD_TOL = 1e-10
RANK_CUT = 1e-12  # eigenvalues below this share of the largest count as kernel


class NonSymmetricError(ValueError):
    """Matrix fails the symmetry check."""


class NotPSDError(ValueError):
    """Matrix has an eigenvalue below the PSD tolerance."""


def _as_readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SymOperator:
    """A dense symmetric operator on the truncation space.

    The input is checked symmetric to within ``SYM_TOL`` relative to its
    largest entry, then symmetrized exactly to kill representation roundoff.
    Instances are immutable, so caches and callers may share them.
    """

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        scale = max(1.0, float(np.abs(a).max()))
        asym = float(np.abs(a - a.T).max())
        if asym > SYM_TOL * scale:
            raise NonSymmetricError(
                f"asymmetry {asym:.3e} exceeds {SYM_TOL:.0e} * {scale:.3e}"
            )
        object.__setattr__(self, "entries", _as_readonly(0.5 * (a + a.T)))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.entries @ np.asarray(x, dtype=float)

    def quadratic_form(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        return float(x @ self.entries @ x)

    @staticmethod
    def zero(dim: int) -> "SymOperator":
        return SymOperator(np.zeros((dim, dim)))

    @staticmethod
    def identity(dim: int) -> "SymOperator":
        return SymOperator(np.eye(dim))

    @staticmethod
    def diagonal(values) -> "SymOperator":
        return SymOperator(np.diag(np.asarray(values, dtype=float)))


@dataclass(frozen=True)
class SpectralDecomp:
    """Eigenpairs of a symmetric operator, eigenvalues sorted descending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns, orthonormal

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", _as_readonly(self.eigenvalues))
        object.__setattr__(self, "eigenvectors", _as_readonly(self.eigenvectors))

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.T


def spectral(s: SymOperator) -> SpectralDecomp:
    """Full symmetric eigendecomposition, descending eigenvalue order."""
    w, v = np.linalg.eigh(s.entries)
    order = np.argsort(w)[::-1]
    return SpectralDecomp(w[order], v[:, order])


def sqrt_psd(s: SymOperator) -> SymOperator:
    """Symmetric PSD square root.

    Eigenvalues in [-PSD_TOL, 0) are clamped to zero: covariances assembled
    by quadrature carry that much roundoff.  Anything more negative is a
    genuine failure and raises NotPSDError.
    """
    dec = spectral(s)
    w = np.array(dec.eigenvalues)
    if w.min(initial=0.0) < -PSD_TOL:
        raise NotPSDError(f"minimum eigenvalue {w.min():.3e} < -{PSD_TOL:.0e}")
    w = np.clip(w, 0.0, None)
    v = dec.eigenvectors
    return SymOperator((v * np.sqrt(w)) @ v.T)


@dataclass(frozen=True)
class CameronMartinMetric:
    """Range-space metric of a symmetric non-negative operator R.

    Eigenvalues at or below RANK_CUT times the largest one count as kernel:
    the continuous theory works with exact kernels, a numerical threshold
    is mandatory here.
    """

    base: SymOperator
    _decomp: SpectralDecomp = field(init=False, repr=False, compare=False)
    _cut: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dec = spectral(self.base)
        top = float(dec.eigenvalues.max(initial=0.0))
        object.__setattr__(self, "_decomp", dec)
        object.__setattr__(self, "_cut", RANK_CUT * max(top, 0.0))

    @property
    def dim(self) -> int:
        return self.base.dim

    def inverse_eigenvalues(self) -> np.ndarray:
        """1/w on eigenvalues above the cut, 0 on the kernel."""
        w = self._decomp.eigenvalues
        return np.where(w > self._cut, 1.0 / np.where(w > self._cut, w, 1.0), 0.0)


def pseudo_inverse_apply(metric: CameronMartinMetric, y: np.ndarray) -> np.ndarray:
    """Apply R^-1 to a vector, or to each column of a matrix: the unique
    preimage of y in (ker R)^perp.

    Components of y along kernel directions map to zero, so the left identity
    R (R^-1 y) = y - P_ker y holds by construction.  The factors are applied
    in turn, V (w^+ * (V^T y)), with w^+ scaling the rows of V^T y: the
    formed matrix of R^-1 would lose about cond(R) * eps of the identity.
    """
    y = np.asarray(y, dtype=float)
    v = metric._decomp.eigenvectors
    return v @ ((v.T @ y).T * metric.inverse_eigenvalues()).T


def cm_norm(metric: CameronMartinMetric, x: np.ndarray) -> float:
    return float(np.linalg.norm(pseudo_inverse_apply(metric, x)))


def operator_norm(a: np.ndarray) -> float:
    """Spectral norm of a dense matrix."""
    return float(np.linalg.norm(a, 2))


def spectral_factor(s: SymOperator) -> np.ndarray:
    """Factor L with L L^T = S, built from the spectral decomposition.

    Kernel directions give zero columns, so degenerate covariances sample
    with those modes pinned.
    """
    dec = spectral(s)
    w = np.array(dec.eigenvalues)
    if w.min(initial=0.0) < -PSD_TOL:
        raise NotPSDError(f"minimum eigenvalue {w.min():.3e} < -{PSD_TOL:.0e}")
    return dec.eigenvectors * np.sqrt(np.clip(w, 0.0, None))
