import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

import oulab
from oulab import integrators
from oulab.covariance import MODE_TOL


def _guarded(ok, g):
    """x -> g(x) where ok(x), else 0, elementwise: quad passes arrays of
    abscissae, SciPy floats."""
    def f(x):
        x = np.asarray(x, dtype=float)
        good = ok(x)
        return np.where(good, g(np.where(good, x, 1.0)), 0.0)[()]
    return f


# (integrand, a, b, exact integral or None where it diverges), from smooth to
# singular; QUADPACK's QAGS meets the singular ones with Wynn's epsilon
# extrapolation, which quad does not have
INTEGRANDS = {
    "poly": (lambda x: x**3 - 2.0 * x, 0.0, 2.0, 0.0),
    "gauss": (lambda x: np.exp(-x * x), -3.0, 5.0,
              0.5 * math.sqrt(math.pi) * (math.erf(5.0) + math.erf(3.0))),
    "inv-sqrt": (_guarded(lambda x: x > 0, lambda x: 1.0 / np.sqrt(x)), 0.0, 1.0, 2.0),
    "log": (_guarded(lambda x: x > 0, np.log), 0.0, 1.0, -1.0),
    "log-interior": (_guarded(lambda x: x != 0.3, lambda x: np.log(np.abs(x - 0.3))), 0.0, 1.0,
                     0.3 * math.log(0.3) + 0.7 * math.log(0.7) - 1.0),
    "power-0.9": (_guarded(lambda x: x > 0, lambda x: x**-0.9), 0.0, 1.0, 10.0),
    "inverse": (_guarded(lambda x: x > 0, lambda x: 1.0 / x), 0.0, 1.0, None),
    "power-1.5": (_guarded(lambda x: x > 0, lambda x: x**-1.5), 0.0, 1.0, None),
    "pole": (_guarded(lambda x: x != 1.0 / 3.0, lambda x: 1.0 / np.abs(x - 1.0 / 3.0)),
             0.0, 1.0, None),
    "oscillating": (lambda x: np.sin(50.0 * x), 0.0, 3.0, (1.0 - math.cos(150.0)) / 50.0),
    "noisy": (lambda x: np.sin(1e4 * x) + 1e-9 * np.sin(1e7 * x), 0.0, 1.0,
              (1.0 - math.cos(1e4)) / 1e4 + 1e-9 * (1.0 - math.cos(1e7)) / 1e7),
    "peak": (lambda x: 1.0 / (1e-4 + (x - 0.3) ** 2), 0.0, 1.0,
             100.0 * (math.atan(70.0) + math.atan(30.0))),
    "kink": (lambda x: np.abs(x - 0.123), -1.0, 2.0, 0.5 * (1.123**2 + 1.877**2)),
    "reversed": (np.cos, 2.0, -1.0, math.sin(-1.0) - math.sin(2.0)),
    "empty": (np.cos, 0.5, 0.5, 0.0),
}
SMOOTH = ("poly", "gauss", "oscillating", "reversed", "empty")
TOLERANCES = [(1.49e-8, 50), (1e-14, 50), (1e-11, 400), (1e-10, 10)]
# quad sums each rule as dot products, not in QUADPACK's order, so it
# agrees with SciPy to roundoff: this far, relative to the size of f on the
# interval (``_size``), or to the integral where it is positive
AGREE = 1e-12


def _agrees(got, ref, scale):
    return abs(got - ref) <= AGREE * scale


def _size(f, a, b):
    """|b - a| times the largest |f| at the rule's abscissae on [a, b]: a
    bound on the integral of |f| as the rule sees it."""
    return abs(b - a) * np.max(np.abs(f(0.5 * (a + b) + 0.5 * (b - a) * integrators.XK)))


def _recorded(f, calls):
    """f, appending each abscissa it is called at to ``calls``."""
    def g(x):
        calls.extend(np.ravel(x).tolist())
        return f(x)
    return g


def _quad_and_scipy(name, tol, limit):
    """quad's and SciPy's run on one integrand: (f, quad's value, None where
    it raises, and abscissae, or None where QAGS's extrapolation takes another
    course than quad's bisection, and SciPy's value, abscissae and final parts)."""
    f, a, b, _ = INTEGRANDS[name]
    ref_calls = []
    value, _, info = integrate.quad(_recorded(f, ref_calls), a, b, epsabs=tol, epsrel=tol,
                                    limit=limit, full_output=1)[:3]
    parts = list(zip(*(info[key][:info["last"]] for key in ("alist", "blist", "rlist"))))
    ours = None
    if name in SMOOTH and tol > 1e-14:
        calls = []
        try:
            got = integrators.quad(_recorded(f, calls), a, b, tol, tol, limit)
        except integrators.IntegratorDivergedError:  # oscillating at limit 10
            got = None
        ours = (got, calls)
    return f, ours, (value, ref_calls, parts)


@pytest.mark.parametrize("name", sorted(INTEGRANDS))
@pytest.mark.parametrize("tol, limit", TOLERANCES)
def test_quad_is_bitwise_scipy_quad(name, tol, limit):
    # what quad keeps of QUADPACK bit for bit: its abscissae.  On the smooth
    # integrands above roundoff quad calls f at exactly SciPy's abscissae;
    # elsewhere the 21-point rule on each part SciPy ends with calls f at
    # exactly SciPy's abscissae on that part
    f, ours, (_, ref_calls, parts) = _quad_and_scipy(name, tol, limit)
    if ours is not None:
        assert sorted(ours[1]) == sorted(ref_calls)
        return
    seen = set(ref_calls)
    for lo, hi, _ in parts:
        calls = []
        integrators._qk21(_recorded(f, calls), lo, hi)
        assert len(calls) == 21 and seen.issuperset(calls), (lo, hi)


@pytest.mark.parametrize("name", sorted(INTEGRANDS))
@pytest.mark.parametrize("tol, limit", TOLERANCES)
def test_quad_agrees_with_scipy_quad(name, tol, limit):
    # on the smooth integrands above roundoff: an IntegratorDivergedError
    # exactly where SciPy ends at its subinterval limit, SciPy's value
    # everywhere else.  Elsewhere the 21-point rule is compared instead: on
    # each part SciPy ends with, it gives SciPy's result
    f, ours, (value, _, parts) = _quad_and_scipy(name, tol, limit)
    if ours is not None:
        assert (ours[0] is None) == (len(parts) == limit)
        assert ours[0] is None or _agrees(ours[0], value, _size(f, *INTEGRANDS[name][1:3]))
        return
    for lo, hi, result in parts:
        assert _agrees(integrators._qk21(f, lo, hi)[0], result, _size(f, lo, hi))


@pytest.mark.parametrize("name", sorted(INTEGRANDS))
@pytest.mark.parametrize("tol, limit", TOLERANCES)
def test_quad_warns_or_is_within_tolerance(name, tol, limit):
    # a divergent integral must raise IntegratorDivergedError (the name dates
    # from when quad warned there)
    f, a, b, exact = INTEGRANDS[name]
    try:
        got = integrators.quad(f, a, b, tol, tol, limit)
    except integrators.IntegratorDivergedError:
        return
    assert exact is not None and abs(got - exact) <= max(tol, tol * abs(exact))


def test_quad_raises_at_its_subinterval_limit():
    f, a, b, _ = INTEGRANDS["oscillating"]
    with pytest.raises(integrators.IntegratorDivergedError, match="10 subintervals"):
        integrators.quad(f, a, b, 1e-10, 1e-10, 10)


@pytest.mark.parametrize("which", ["rational4", "nonunique3"])
def test_quad_agrees_with_scipy_on_mode_covariance_integrands(request, which):
    # the integrand of covariance.mode_accumulated, every mode at once, at
    # seeded (s, t), against one SciPy quadrature per mode
    model = request.getfixturevalue(which)
    cum, diffusion = model.coeffs.drift_antideriv, model.coeffs.diffusion
    gen = np.random.default_rng(7)
    for s, t in np.sort(gen.uniform(-4.0, 2.0, (10, 2)), axis=1):
        f = lambda u: np.exp(2.0 * (cum(t) - cum(u))) * diffusion(u) ** 2
        got = integrators.quad(f, s, t, MODE_TOL, MODE_TOL, 400)
        assert got.shape == (model.dim,)
        for k in range(model.dim):
            ref, _ = integrate.quad(lambda u: f(u)[k], s, t, epsabs=MODE_TOL, epsrel=MODE_TOL,
                                    limit=400)
            assert _agrees(got[k], ref, ref)


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
