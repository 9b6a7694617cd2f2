"""Dense symmetric linear algebra substrate.

``psd_eigh`` is the one eigendecomposition of a PSD operator: eigenvalues
in descending order, roundoff negatives down to -PSD_TOL clipped to 0, and
NotPSDError below that.  PSD square roots and factors, the clamp of
assembled covariances, and the range inverse of a covariance-type operator
R are built on it.  The range inverse returns R^-1, the pseudo-inverse (zero
on ker R), as its spectral factors, so callers apply it without forming it
as a matrix.  Everything is dense: the working dimensions are a few hundred
at most, so no sparse machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SYM_TOL = 1e-12
PSD_TOL = 1e-10
RANK_CUT = 1e-12  # eigenvalues below this share of the largest count as kernel


class NonSymmetricError(ValueError):
    """Matrix fails the symmetry check."""


class NotPSDError(ValueError):
    """Matrix has an eigenvalue below the PSD tolerance."""


@dataclass(frozen=True)
class SymOperator:
    """A dense symmetric operator on the truncation space.

    The input is checked symmetric to within ``SYM_TOL`` relative to its
    largest entry, then symmetrized exactly to kill representation roundoff.
    NaN and infinite entries fail the check.
    Instances are immutable, so caches and callers may share them.
    """

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        # NaN fails every comparison, so it would pass the check below
        if not np.isfinite(a).all():
            raise NonSymmetricError("the symmetry check needs finite entries")
        scale = max(1.0, float(np.abs(a).max()))
        asym = float(np.abs(a - a.T).max())
        if asym > SYM_TOL * scale:
            raise NonSymmetricError(
                f"asymmetry {asym:.3e} exceeds {SYM_TOL:.0e} * {scale:.3e}"
            )
        sym = 0.5 * (a + a.T)
        sym.setflags(write=False)
        object.__setattr__(self, "entries", sym)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def quadratic_form(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        return float(x @ self.entries @ x)

    @staticmethod
    def zero(dim: int) -> "SymOperator":
        return SymOperator(np.zeros((dim, dim)))


def psd_eigh(s: SymOperator) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues w, descending, and orthonormal eigenvector columns V of
    a PSD operator, S = V diag(w) V^T.

    Eigenvalues in [-PSD_TOL, 0) are clipped to zero: covariances assembled
    by quadrature carry that much roundoff.  Anything more negative is a
    genuine failure and raises NotPSDError.
    """
    w, v = np.linalg.eigh(s.entries)
    order = np.argsort(w)[::-1]
    w, v = w[order], v[:, order]
    if w[-1] < -PSD_TOL:
        raise NotPSDError(f"minimum eigenvalue {w[-1]:.3e} < -{PSD_TOL:.0e}")
    return np.clip(w, 0.0, None), v


def sqrt_psd(s: SymOperator) -> SymOperator:
    """Symmetric PSD square root."""
    w, v = psd_eigh(s)
    return SymOperator((v * np.sqrt(w)) @ v.T)


def spectral_factor(s: SymOperator) -> np.ndarray:
    """Factor L with L L^T = S.  Kernel directions give zero columns, so
    degenerate covariances sample with those modes pinned."""
    w, v = psd_eigh(s)
    return v * np.sqrt(w)


def clamp_psd(mat: np.ndarray) -> SymOperator:
    """The symmetric part of an assembled covariance: unchanged when its
    smallest eigenvalue is above 0, else rebuilt from the eigenvalues of
    ``psd_eigh``, clipped at 0."""
    sym = SymOperator(0.5 * (mat + mat.T))
    w, v = psd_eigh(sym)
    return sym if w[-1] > 0.0 else SymOperator((v * w) @ v.T)


def range_inverse(r: SymOperator) -> tuple[np.ndarray, np.ndarray]:
    """Spectral factors (V, w+) of the pseudo-inverse R^-1 = V diag(w+) V^T.

    w+ is 1/w on eigenvalues above RANK_CUT times the largest one and 0 on
    the rest, which count as kernel: the continuous theory works with exact
    kernels, a numerical threshold is mandatory here.  Apply the factors in
    turn, V (w+ * (V^T y)): the formed matrix of R^-1 would lose about
    cond(R) * eps of the left identity R R^-1 y = y on the range.
    """
    w, v = psd_eigh(r)
    inv = np.zeros_like(w)
    np.divide(1.0, w, out=inv, where=w > RANK_CUT * w[0])
    return v, inv


def operator_norm(a: np.ndarray) -> float:
    """Spectral norm of a dense matrix."""
    return float(np.linalg.norm(a, 2))
