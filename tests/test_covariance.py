import math

import numpy as np
import pytest
from scipy import integrate

from oulab import covariance as cov
from oulab import evolution as evo
from oulab import measures as meas
from oulab.models import build_model, make_diagonal_constant, make_parabolic_1d
from oulab.rng import seed_stream

# closed form for the constant model with rate -1, unit diffusion:
# k(t, s) = (1 - exp(-2 (t-s))) / 2 per mode
DC_K10 = (1.0 - math.exp(-2.0)) / 2.0


def test_zero_at_equal_times(dc8, parabolic5):
    for model in (dc8, parabolic5):
        assert np.all(cov.accumulated(model, 0.3, 0.3).entries == 0.0)


def test_constant_model_closed_form(dc8):
    assert DC_K10 == pytest.approx(0.43233235838169365, abs=1e-16)
    k = cov.accumulated(dc8, 0.0, 1.0)
    assert k.entries[0, 0] == pytest.approx(DC_K10, abs=1e-10)
    assert np.trace(k.entries) == pytest.approx(8.0 * DC_K10, abs=1e-9)


def test_constant_model_square_root_of_kernel(dc8):
    from oulab.linalg import sqrt_psd

    root = sqrt_psd(cov.accumulated(dc8, 0.0, 1.0))
    assert root.entries[0, 0] == pytest.approx(math.sqrt(DC_K10), abs=1e-10)


def test_steady_state_constant_model(dc8):
    ss = cov.steady_state(dc8, 1.0, tol_tail=1e-10)
    np.testing.assert_allclose(ss.entries, 0.5 * np.eye(8), atol=1e-10)
    assert np.trace(ss.entries) == pytest.approx(4.0, abs=1e-9)
    s_star, tail_bound = cov.tail_cutoff(dc8, 1.0, 1e-10)
    assert s_star < 1.0
    assert tail_bound <= 1e-10


@pytest.mark.parametrize("which", ["dc8", "scalar4", "parabolic5"])
def test_steady_state_is_the_kernel_at_the_tail_cutoff(request, which):
    model = request.getfixturevalue(which)
    for t, tol in ((0.0, 1e-10), (1.0, 1e-12)):
        s_star = cov.tail_cutoff(model, t, tol)[0]
        assert cov.steady_state(model, t, tol) is cov.accumulated(model, s_star, t)


def _dense_scaled_noise(meta):
    # A = -I, B = 10 I: K(t, -inf) = 50 I, decay certificate (1, 1)
    from oulab.models import OperatorFamily

    return OperatorFamily(
        name="dense-noisy", dim=3, window=(-30.0, 5.0),
        drift_fn=lambda t: -np.eye(3), noise_fn=lambda t: 10.0 * np.eye(3),
        decay=(1.0, 1.0), meta=meta,
    )


def test_steady_state_without_noise_bound_raises():
    with pytest.raises(cov.NoDecayError):
        cov.steady_state(_dense_scaled_noise({}), 0.0)


def test_steady_state_tail_bound_covers_neglected_trace():
    model = _dense_scaled_noise({"noise_sup": 10.0})
    t = 0.0
    ss = cov.steady_state(model, t, tol_tail=1e-10)
    s_star, tail_bound = cov.tail_cutoff(model, t, 1e-10)
    # neglected trace: n b^2 / (2 |a|) e^{-2 (t - s*)}, exact for this model
    neglected = 3 * 100.0 / 2.0 * math.exp(-2.0 * (t - s_star))
    assert tail_bound >= neglected * (1.0 - 1e-12)
    np.testing.assert_allclose(ss.entries, 50.0 * np.eye(3), atol=1e-8)


@pytest.mark.parametrize("which", ["dc8", "scalar4"])
def test_one_mode_integral_call_per_distinct_span(request, monkeypatch, which):
    # every mode of a span comes from one vector quadrature, and the kernel
    # memo serves a repeated span
    model = request.getfixturevalue(which)
    calls = []
    original = cov.mode_accumulated

    def counted(model, s, t):
        calls.append((s, t))
        return original(model, s, t)

    monkeypatch.setattr(cov, "mode_accumulated", counted)
    spans = [(-0.8125, 0.4375), (-0.6875, 0.3125), (-0.8125, 0.4375)]  # pairs no other test uses
    kernels = [cov.accumulated(model, s, t) for s, t in spans]
    assert calls == spans[:2]
    for kern in kernels:  # identical modes, identical integrals
        np.testing.assert_array_equal(np.diag(kern.entries), np.full(model.dim, kern.entries[0, 0]))


def test_mode_integrals_of_the_constant_model_are_closed_form(dc8):
    # k(t, s) = b^2 (1 - e^{2 lam tau}) / (-2 lam), tau = t - s, with lam = -1, b = 1
    for s, t in np.sort(np.random.default_rng(17).uniform(-40.0, 10.0, (20, 2)), axis=1):
        expected = -math.expm1(-2.0 * (t - s)) / 2.0
        np.testing.assert_allclose(cov.mode_accumulated(dc8, s, t), np.full(8, expected),
                                   rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("which", ["rational4", "nonunique3", "scalar4"])
def test_every_mode_integral_matches_scipy_per_mode(request, which):
    # oracle: one SciPy quadrature per mode, at the same tolerances
    model = request.getfixturevalue(which)
    cum, diffusion = model.coeffs.drift_antideriv, model.coeffs.diffusion
    spans = np.sort(np.random.default_rng(19).uniform(-4.0, 2.0, (8, 2)), axis=1).tolist()
    if which == "nonunique3":
        spans.append([-200.0, 0.0])  # the anchored span of nonunique-demo's system
    for s, t in spans:
        got = cov.mode_accumulated(model, s, t)
        for k in range(model.dim):
            f = lambda u: math.exp(2.0 * (cum(t)[k] - cum(u)[k])) * diffusion(u)[k] ** 2
            ref, _ = integrate.quad(f, s, t, epsabs=cov.MODE_TOL, epsrel=cov.MODE_TOL, limit=400)
            assert got[k] == pytest.approx(ref, rel=1e-12, abs=0.0), (s, t, k)


def test_monotone_horizon_convergence(dc8):
    t = 0.0
    horizons = [1.0, 2.0, 4.0, 8.0, 12.0]
    traces = [np.trace(cov.accumulated(dc8, t - h, t).entries) for h in horizons]
    assert all(b >= a - 1e-12 for a, b in zip(traces, traces[1:]))
    # increments fall below the certified exponential tail
    m, zeta = dc8.decay
    k_sup = dc8.meta["noise_sup"]
    # the bound is exact for this model, so allow quadrature roundoff on top
    for h, tr in zip(horizons, traces):
        tail = 8 * m**2 * k_sup**2 * math.exp(-2 * zeta * h) / (2 * zeta)
        assert 4.0 - tr <= tail + 1e-12


def test_steady_state_requires_decay_or_cutoff(rational4, nonunique3):
    for model in (rational4, nonunique3):
        with pytest.raises(cov.NoDecayError):
            cov.steady_state(model, 0.0)
    # the integrable slow mode gets a system anchored far in the past
    ss = meas.gaussian_system(nonunique3, anchor=-200.0)(0.0).cov
    assert ss is cov.accumulated(nonunique3, -200.0, 0.0)
    assert np.all(np.isfinite(ss.entries))
    # fast modes have the closed-form limit 1/(2 k^2)
    assert ss.entries[1, 1] == pytest.approx(1.0 / 8.0, abs=1e-9)
    assert ss.entries[2, 2] == pytest.approx(1.0 / 18.0, abs=1e-9)


def test_flow_decomposition(dc8, rational4, parabolic5):
    gen = seed_stream(11, "flow")
    for model in (dc8, rational4, parabolic5):
        base = -1.0 + 2.0 * gen.random()
        d1, d2 = np.sort(gen.random(2)) * 1.5
        s, r, t = base, base + d1 + 1e-3, base + d2 + 2e-3
        u = evo.propagator_matrix(model, r, t)
        whole = cov.accumulated(model, s, t).entries
        split = (u @ cov.accumulated(model, s, r).entries @ u.T
                 + cov.accumulated(model, r, t).entries)
        assert np.abs(whole - split).max() <= 1e-8


def test_flow_decomposition_with_one_drift_integral(nonunique3):
    # mode 1 of nonunique3 has no antiderivative: U and K must both take
    # their exponents from the same cumulative drift for the flow
    # decomposition to close at roundoff
    gen = seed_stream(5, "one-integral")
    worst = 0.0
    for _ in range(60):
        s, r, t = np.sort(gen.uniform(-3.0, 3.0, 3))
        u = evo.propagator_matrix(nonunique3, r, t)
        whole = cov.accumulated(nonunique3, s, t).entries
        split = (u @ cov.accumulated(nonunique3, s, r).entries @ u.T
                 + cov.accumulated(nonunique3, r, t).entries)
        worst = max(worst, np.abs(whole - split).max() / np.abs(whole).max())
    assert worst <= 1e-13


def test_stationarity_identity(dc8):
    s, t = -0.5, 1.0
    u = evo.propagator_matrix(dc8, s, t)
    lhs = u @ cov.steady_state(dc8, s, 1e-12).entries @ u.T + cov.accumulated(dc8, s, t).entries
    rhs = cov.steady_state(dc8, t, 1e-12).entries
    assert np.abs(lhs - rhs).max() <= 1e-10


def test_psd_monotone_in_start_time(rational4):
    t = 1.0
    k_late = cov.accumulated(rational4, 0.0, t).entries
    k_early = cov.accumulated(rational4, -2.0, t).entries
    eigs = np.linalg.eigvalsh(k_early - k_late)
    assert eigs.min() >= -1e-10


def test_dense_quadrature_against_closed_form(monkeypatch):
    # wrap the constant model as an opaque dense family: same numbers must
    # come out of the joint (U, K) flow, solved on unit cells
    from oulab.models import OperatorFamily

    dense = OperatorFamily(
        name="dense-const", dim=3, window=(-5.0, 5.0),
        drift_fn=lambda t: -np.eye(3), noise_fn=lambda t: np.eye(3),
        meta={"noise_sup": 1.0},
    )
    cells = []
    original = evo._cell_flow

    def counted(model, s, t):
        cells.append((s, t))
        return original(model, s, t)

    monkeypatch.setattr(evo, "_cell_flow", counted)
    k = cov.accumulated(dense, 0.0, 1.0)
    np.testing.assert_allclose(k.entries, DC_K10 * np.eye(3), atol=1e-9)
    assert cells == [(0.0, 1.0)]


def test_dense_kernel_is_the_flow_store():
    # one store per span: a dense family's K is the clamped K that flow
    # keeps, composed spans included, and no second kernel memo is made
    model = make_parabolic_1d(3, a=lambda t, x: 1.0 + 0.5 * np.sin(t + x), a0=lambda t, x: -1.0)
    for s, t in [(0.25, 0.75), (-1.5, 1.25), (0.5, 0.5)]:
        assert cov.accumulated(model, s, t) is evo.flow(model, s, t)[1]
    assert "kernel" not in model.memo


@pytest.mark.parametrize("s, t", [(-0.2, 0.2), (-1.0, 0.4), (-8.0, 0.0)])
def test_dense_flow_against_lyapunov(monkeypatch, s, t):
    # constant drift: K(t, s) = X - e^{A h} X e^{A^T h} with A X + X A^T = -I
    from scipy.linalg import expm, solve_continuous_lyapunov

    def no_cells(*args):
        raise AssertionError("an autonomous family must not reach the DOP853 cell flow")

    # a fresh model: nothing is memoized, so every kernel below is computed
    model = build_model("parabolic-1d", {})
    monkeypatch.setattr(evo, "_cell_flow", no_cells)
    a = model.drift_matrix(0.0)
    x = solve_continuous_lyapunov(a, -np.eye(5))
    u = expm(a * (t - s))
    k = cov.accumulated(model, s, t)
    assert np.abs(k.entries - (x - u @ x @ u.T)).max() <= 1e-12
    # closed form from one eigendecomposition, the steady state included
    cov.steady_state(model, t)


def test_flow_is_independent_of_call_order():
    first, second = build_model("parabolic-1d", {}), build_model("parabolic-1d", {})
    long_first = cov.accumulated(first, -8.0, 0.0).entries
    short_after = cov.accumulated(first, -4.0, 0.0).entries
    short_first = cov.accumulated(second, -4.0, 0.0).entries
    long_after = cov.accumulated(second, -8.0, 0.0).entries
    assert np.array_equal(long_first, long_after)
    assert np.array_equal(short_after, short_first)


def test_flow_composition_pins_the_steady_state_floor(parabolic5):
    # K(0, -8) differs from K(0, -4) by a term of order ||U(0, -4)||^2, far
    # below roundoff; separate solves would differ by solver noise instead
    k8 = cov.accumulated(parabolic5, -8.0, 0.0).entries
    k4 = cov.accumulated(parabolic5, -4.0, 0.0).entries
    assert np.abs(k8 - k4).max() <= 1e-15


def test_forward_derivative_constant_model(dc8):
    # analytic: d/dt k(t, 0) at t=1 equals exp(-2) and equals 1 - 2 k(1,0)
    e1 = np.eye(8)[0]
    rep = cov.check_forward_derivative(dc8, 0.0, 1.0, e1, fd_step=1e-4)
    assert rep.formula_value == pytest.approx(math.exp(-2.0), abs=1e-10)
    assert rep.formula_value == pytest.approx(1.0 - 2.0 * DC_K10, abs=1e-12)
    assert rep.abs_discrepancy <= 1e-8
    assert rep.extrapolated <= 1e-10


def test_backward_derivative_constant_model(dc8):
    e1 = np.eye(8)[0]
    rep = cov.check_backward_derivative(dc8, 0.0, 1.0, e1, fd_step=1e-4)
    assert rep.formula_value == pytest.approx(-math.exp(-2.0), abs=1e-12)
    assert rep.abs_discrepancy <= 1e-8
    assert rep.extrapolated <= 1e-10


def test_derivatives_zero_probe(dc8):
    z = np.zeros(8)
    assert cov.check_forward_derivative(dc8, 0.0, 1.0, z).abs_discrepancy == 0.0
    assert cov.check_backward_derivative(dc8, 0.0, 1.0, z).abs_discrepancy == 0.0


def test_derivative_identities_rational(rational2):
    gen = seed_stream(3, "deriv")
    v = gen.standard_normal(2)
    v /= np.linalg.norm(v)
    fwd = cov.check_forward_derivative(rational2, 0.0, 1.0, v, fd_step=1e-4)
    bwd = cov.check_backward_derivative(rational2, 0.0, 1.0, v, fd_step=1e-4)
    assert fwd.abs_discrepancy <= 1e-6
    assert bwd.abs_discrepancy <= 1e-6
    assert max(fwd.extrapolated, bwd.extrapolated) <= 1e-10


def test_derivative_identities_dense(parabolic5):
    v = np.ones(5) / math.sqrt(5.0)
    fwd = cov.check_forward_derivative(parabolic5, 0.0, 0.5, v, fd_step=1e-4)
    bwd = cov.check_backward_derivative(parabolic5, 0.0, 0.5, v, fd_step=1e-4)
    assert fwd.abs_discrepancy <= 1e-6
    assert bwd.abs_discrepancy <= 1e-6
    assert max(fwd.extrapolated, bwd.extrapolated) <= 1e-10


def test_derivative_checks_are_second_order(dc8):
    e1 = np.eye(8)[0]
    d_coarse = cov.check_forward_derivative(dc8, 0.0, 1.0, e1, fd_step=2e-3).abs_discrepancy
    d_fine = cov.check_forward_derivative(dc8, 0.0, 1.0, e1, fd_step=1e-3).abs_discrepancy
    assert d_coarse / d_fine == pytest.approx(4.0, rel=0.2)


def test_window_guard(dc8):
    from oulab.models import WindowExceededError

    with pytest.raises(WindowExceededError):
        cov.accumulated(dc8, -60.0, 0.0)
