import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

import oulab
from oulab import integrators
from oulab.covariance import MODE_TOL
from oulab.evolution import mode_cumulative

# integrands from smooth to singular: the singular ones drive QAGS through
# its epsilon extrapolation and its error exits (codes 1, 2, 3 and 5)
INTEGRANDS = {
    "poly": (lambda x: x**3 - 2.0 * x, 0.0, 2.0),
    "gauss": (lambda x: math.exp(-x * x), -3.0, 5.0),
    "inv-sqrt": (lambda x: 1.0 / math.sqrt(x) if x > 0 else 0.0, 0.0, 1.0),
    "log": (lambda x: math.log(x) if x > 0 else 0.0, 0.0, 1.0),
    "log-interior": (lambda x: math.log(abs(x - 0.3)) if x != 0.3 else 0.0, 0.0, 1.0),
    "power-0.9": (lambda x: x**-0.9 if x > 0 else 0.0, 0.0, 1.0),
    "inverse": (lambda x: 1.0 / x if x > 0 else 0.0, 0.0, 1.0),
    "power-1.5": (lambda x: x**-1.5 if x > 0 else 0.0, 0.0, 1.0),
    "pole": (lambda x: 1.0 / abs(x - 1.0 / 3.0) if x != 1.0 / 3.0 else 0.0, 0.0, 1.0),
    "oscillating": (lambda x: math.sin(50.0 * x), 0.0, 3.0),
    "noisy": (lambda x: math.sin(1e4 * x) + 1e-9 * math.sin(1e7 * x), 0.0, 1.0),
    "peak": (lambda x: 1.0 / (1e-4 + (x - 0.3) ** 2), 0.0, 1.0),
    "kink": (lambda x: abs(x - 0.123), -1.0, 2.0),
    "reversed": (math.cos, 2.0, -1.0),
    "empty": (math.cos, 0.5, 0.5),
}
# the opening words of SciPy's message for each QUADPACK error code
SCIPY_WORDING = {1: "The maximum number of subdivisions", 2: "The occurrence of roundoff error",
                 3: "Extremely bad integrand", 4: "The algorithm does not converge",
                 5: "The integral is probably divergent"}


def _codes(warned, wording):
    return [next(code for code, text in wording.items() if text in str(w.message))
            for w in warned]


@pytest.mark.parametrize("name", sorted(INTEGRANDS))
@pytest.mark.parametrize("tol, limit", [(1.49e-8, 50), (1e-14, 50), (1e-11, 400), (1e-10, 10)])
def test_quad_is_bitwise_scipy_quad(name, tol, limit):
    # value, error estimate and QUADPACK's error code
    f, a, b = INTEGRANDS[name]
    with warnings.catch_warnings(record=True) as ref_warned:
        warnings.simplefilter("always")
        ref = integrate.quad(f, a, b, epsabs=tol, epsrel=tol, limit=limit)
    with warnings.catch_warnings(record=True) as warned:
        warnings.simplefilter("always")
        got = integrators.quad(f, a, b, tol, tol, limit)
    assert got == ref
    assert _codes(warned, integrators.QAGS_ERRORS) == _codes(ref_warned, SCIPY_WORDING)


@pytest.mark.parametrize("which", ["rational4", "nonunique3"])
def test_quad_is_bitwise_scipy_on_mode_covariance_integrands(request, which):
    # the integrands of covariance.mode_accumulated, at seeded (s, t)
    model = request.getfixturevalue(which)
    gen = np.random.default_rng(7)
    for idx, mode in enumerate(model.modes):
        cum = mode_cumulative(model, idx)
        for s, t in np.sort(gen.uniform(-4.0, 2.0, (10, 2)), axis=1):
            at = cum(t)
            f = lambda u: math.exp(2.0 * (at - cum(u))) * float(mode.diffusion(u)) ** 2
            ref = integrate.quad(f, s, t, epsabs=MODE_TOL, epsrel=MODE_TOL, limit=400)
            assert integrators.quad(f, s, t, MODE_TOL, MODE_TOL, 400) == ref


def test_dop853_backward_matrix_flow_is_bitwise_solve_ivp():
    gen = np.random.default_rng(11)
    drift = -np.eye(4) + 0.3 * gen.standard_normal((4, 4))
    rhs = lambda t, y: -(y.reshape(4, 4) @ (drift * (1.0 + 0.5 * math.sin(3.0 * t)))).ravel()
    y0 = np.eye(4).ravel()
    for s, t in [(1.0, 0.0), (0.25, -2.5), (-1.0, -1.001)]:
        first = min(abs(t - s), 1e-3)
        ref = integrate.solve_ivp(rhs, (s, t), y0, method="DOP853", first_step=first,
                                  rtol=1e-12, atol=1e-14)
        y, steps = integrators.dop853(rhs, s, t, y0, 1e-12, 1e-14, first_step=first)
        assert np.array_equal(y, ref.y[:, -1]) and steps == []


def test_dop853_dense_steps_are_bitwise_solve_ivp_interpolants():
    # no first step given: the starting-step heuristic is compared as well
    rhs = lambda t, y: [math.sin(t) - 0.3 * y[0]]
    ref = integrate.solve_ivp(rhs, (-10.0, 20.0), [0.5], method="DOP853", dense_output=True,
                              rtol=1e-13, atol=1e-14)
    y, steps = integrators.dop853(rhs, -10.0, 20.0, [0.5], 1e-13, 1e-14, dense=True)
    assert np.array_equal(y, ref.y[:, -1])
    assert len(steps) == len(ref.sol.interpolants)
    for (t_old, t, y_old, coefs), interp in zip(steps, ref.sol.interpolants):
        assert (t_old, t) == (interp.t_old, interp.t)
        assert np.array_equal(y_old, interp.y_old) and np.array_equal(coefs, interp.F)


def test_dop853_non_finite_rhs_raises():
    with pytest.raises(integrators.IntegratorDivergedError, match="step size"):
        integrators.dop853(lambda t, y: [math.nan], 0.0, 1.0, [0.0], 1e-12, 1e-14,
                           first_step=1e-3)


def test_importing_oulab_loads_no_scipy():
    code = ("import sys, oulab.cli, oulab.experiments; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(Path(oulab.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=env)
    assert out.stdout.strip() == "[]"
