"""oulab: a numerical laboratory for non-autonomous Ornstein-Uhlenbeck
dynamics on finite Galerkin truncations.

The package builds two-parameter propagators for time-dependent linear
drifts, accumulates their noise covariances, constructs Gaussian evolution
systems of measures, applies the transition operators exactly on
trigonometric polynomials, and verifies structural identities (chain laws,
invariance, differentiation formulas) and functional inequalities (entropy
bounds, norm contraction across an exponent curve) by closed forms,
quadrature oracles, and Monte Carlo.
"""

__version__ = "0.1.0"

from .models import (  # noqa: F401
    BadParameterError,
    OperatorFamily,
    WindowExceededError,
    build_model,
    make_diagonal_constant,
    make_diagonal_rational,
    make_nonunique_demo,
    make_parabolic_1d,
)
