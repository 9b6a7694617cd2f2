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

# (integrand, a, b, exact integral or None where it diverges), from smooth to
# singular; QUADPACK's QAGS meets the singular ones with Wynn's epsilon
# extrapolation, which quad does not have
INTEGRANDS = {
    "poly": (lambda x: x**3 - 2.0 * x, 0.0, 2.0, 0.0),
    "gauss": (lambda x: math.exp(-x * x), -3.0, 5.0,
              0.5 * math.sqrt(math.pi) * (math.erf(5.0) + math.erf(3.0))),
    "inv-sqrt": (lambda x: 1.0 / math.sqrt(x) if x > 0 else 0.0, 0.0, 1.0, 2.0),
    "log": (lambda x: math.log(x) if x > 0 else 0.0, 0.0, 1.0, -1.0),
    "log-interior": (lambda x: math.log(abs(x - 0.3)) if x != 0.3 else 0.0, 0.0, 1.0,
                     0.3 * math.log(0.3) + 0.7 * math.log(0.7) - 1.0),
    "power-0.9": (lambda x: x**-0.9 if x > 0 else 0.0, 0.0, 1.0, 10.0),
    "inverse": (lambda x: 1.0 / x if x > 0 else 0.0, 0.0, 1.0, None),
    "power-1.5": (lambda x: x**-1.5 if x > 0 else 0.0, 0.0, 1.0, None),
    "pole": (lambda x: 1.0 / abs(x - 1.0 / 3.0) if x != 1.0 / 3.0 else 0.0, 0.0, 1.0, None),
    "oscillating": (lambda x: math.sin(50.0 * x), 0.0, 3.0, (1.0 - math.cos(150.0)) / 50.0),
    "noisy": (lambda x: math.sin(1e4 * x) + 1e-9 * math.sin(1e7 * x), 0.0, 1.0,
              (1.0 - math.cos(1e4)) / 1e4 + 1e-9 * (1.0 - math.cos(1e7)) / 1e7),
    "peak": (lambda x: 1.0 / (1e-4 + (x - 0.3) ** 2), 0.0, 1.0,
             100.0 * (math.atan(70.0) + math.atan(30.0))),
    "kink": (lambda x: abs(x - 0.123), -1.0, 2.0, 0.5 * (1.123**2 + 1.877**2)),
    "reversed": (math.cos, 2.0, -1.0, math.sin(-1.0) - math.sin(2.0)),
    "empty": (math.cos, 0.5, 0.5, 0.0),
}
SMOOTH = ("poly", "gauss", "oscillating", "reversed", "empty")
TOLERANCES = [(1.49e-8, 50), (1e-14, 50), (1e-11, 400), (1e-10, 10)]
# the one seeded mode integral (model, mode, (s, t) pair) on which QAGS, in
# the phase that readies its extrapolation, bisects a longer part ahead of
# the part with the largest error: quad evaluates the same abscissae in
# another order, so the value is SciPy's but the error estimate, a running
# sum, ends 2.4e-12 relative off SciPy's
BISECTED_IN_QAGS_ORDER = {("rational4", 3, 4)}


@pytest.mark.parametrize("name", sorted(INTEGRANDS))
@pytest.mark.parametrize("tol, limit", TOLERANCES)
def test_quad_is_bitwise_scipy_quad(name, tol, limit):
    # on the smooth integrands above roundoff: SciPy's value, error estimate
    # and evaluation count.  Elsewhere QAGS's extrapolation takes another
    # course, so the 21-point rule is compared instead: on each part SciPy
    # ends with, it gives SciPy's result and error estimate
    f, a, b, _ = INTEGRANDS[name]
    value, error, info = integrate.quad(f, a, b, epsabs=tol, epsrel=tol, limit=limit,
                                        full_output=1)[:3]
    if name in SMOOTH and tol > 1e-14:
        calls = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # oscillating at limit 10
            got = integrators.quad(lambda x: calls.append(x) or f(x), a, b, tol, tol, limit)
        assert got == (value, error) and len(calls) == info["neval"]
    else:
        parts = zip(*(info[key][:info["last"]] for key in ("alist", "blist", "rlist", "elist")))
        for lo, hi, result, abserr in parts:
            assert integrators._qk21(f, lo, hi)[:2] == (result, abserr)


@pytest.mark.parametrize("name", sorted(INTEGRANDS))
@pytest.mark.parametrize("tol, limit", TOLERANCES)
def test_quad_warns_or_is_within_tolerance(name, tol, limit):
    # a divergent integral must warn
    f, a, b, exact = INTEGRANDS[name]
    with warnings.catch_warnings(record=True) as warned:
        warnings.simplefilter("always")
        got = integrators.quad(f, a, b, tol, tol, limit)
    if not any(issubclass(w.category, RuntimeWarning) for w in warned):
        assert exact is not None and abs(got[0] - exact) <= max(tol, tol * abs(exact))


def test_quad_warns_at_its_subinterval_limit():
    f, a, b, _ = INTEGRANDS["oscillating"]
    with pytest.warns(RuntimeWarning, match="10 subintervals"):
        integrators.quad(f, a, b, 1e-10, 1e-10, 10)


@pytest.mark.parametrize("which", ["rational4", "nonunique3"])
def test_quad_is_bitwise_scipy_on_mode_covariance_integrands(request, which):
    # the integrands of covariance.mode_accumulated, at seeded (s, t)
    model = request.getfixturevalue(which)
    gen = np.random.default_rng(7)
    for idx, mode in enumerate(model.modes):
        cum = mode.drift_antideriv
        for pair, (s, t) in enumerate(np.sort(gen.uniform(-4.0, 2.0, (10, 2)), axis=1)):
            at = cum(t)
            f = lambda u: math.exp(2.0 * (at - cum(u))) * float(mode.diffusion(u)) ** 2
            if (which, idx, pair) not in BISECTED_IN_QAGS_ORDER:
                ref = integrate.quad(f, s, t, epsabs=MODE_TOL, epsrel=MODE_TOL, limit=400)
                assert integrators.quad(f, s, t, MODE_TOL, MODE_TOL, 400) == ref
                continue
            ref_calls, calls = [], []
            ref = integrate.quad(lambda u: ref_calls.append(u) or f(u), s, t,
                                 epsabs=MODE_TOL, epsrel=MODE_TOL, limit=400)
            got = integrators.quad(lambda u: calls.append(u) or f(u), s, t, MODE_TOL, MODE_TOL, 400)
            assert calls != ref_calls and sorted(calls) == sorted(ref_calls)
            assert got[0] == ref[0] and got[1] == pytest.approx(ref[1], rel=1e-11, abs=0.0)


def test_dop853_backward_matrix_flow_is_bitwise_solve_ivp():
    gen = np.random.default_rng(11)
    drift = -np.eye(4) + 0.3 * gen.standard_normal((4, 4))
    rhs = lambda t, y: -(y.reshape(4, 4) @ (drift * (1.0 + 0.5 * math.sin(3.0 * t)))).ravel()
    y0 = np.eye(4).ravel()
    for s, t in [(1.0, 0.0), (0.25, -2.5), (-1.0, -1.001)]:
        first = min(abs(t - s), 1e-3)
        ref = integrate.solve_ivp(rhs, (s, t), y0, method="DOP853", first_step=first,
                                  rtol=1e-12, atol=1e-14)
        y = integrators.dop853(rhs, s, t, y0, 1e-12, 1e-14, first_step=first)
        assert np.array_equal(y, ref.y[:, -1])


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
