import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate
from scipy.linalg import expm

from oulab import models
from oulab.evolution import propagator_matrix
from oulab.models import (
    BadParameterError,
    WindowExceededError,
    build_model,
    make_diagonal_constant,
    make_diagonal_rational,
    make_nonunique_demo,
    make_parabolic_1d,
)


def test_rational_coefficients_at_zero(rational4):
    # a_1(0) = -(1 + c1), b_1(0) = c2
    assert rational4.coeffs.drift(0.0)[0] == pytest.approx(-2.0, abs=1e-15)
    assert rational4.coeffs.diffusion(0.0)[0] == pytest.approx(2.0, abs=1e-15)


def test_rational_noise_sup_is_one_plus_c2(rational4):
    # |sin(k t) + c2| <= 1 + c2, attained at t = pi/2
    assert rational4.meta["noise_sup"] == 3.0


def test_rational_rejects_bad_parameters():
    with pytest.raises(BadParameterError):
        make_diagonal_rational(2, -1.0, 2.0)
    with pytest.raises(BadParameterError):
        make_diagonal_rational(2, 1.0, 1.0)


def test_constant_model_decay_certificate_holds(dc8):
    m, zeta = dc8.decay
    for s, t in [(-3.0, -1.0), (0.0, 1.0), (0.5, 4.0)]:
        norm = np.linalg.norm(propagator_matrix(dc8, s, t), 2)
        assert norm <= m * math.exp(-zeta * (t - s)) * (1.0 + 1e-12)


def test_constant_model_rejects_nonnegative_drift():
    with pytest.raises(BadParameterError):
        make_diagonal_constant(4, 0.0, 1.0)


def test_zero_diffusion_gives_zero_covariance():
    from oulab.covariance import accumulated

    model = make_diagonal_constant(1, -2.0, 0.0)
    assert accumulated(model, -1.0, 2.0).entries[0, 0] == 0.0


def test_scalar_supremum_analytic():
    model = build_model("scalar-osc", {})
    # sup of -1 - 0.5 sin t is -0.5
    assert model.decay == (1.0, 0.5)


def test_scalar_osc_rejects_a_drift_without_decay():
    # sup of -0.5 + 0.5 sin t is 0
    with pytest.raises(BadParameterError):
        build_model("scalar-osc", {"offset": -0.5, "amp": 0.5})


def test_parabolic_stencil_matches_textbook():
    model = make_parabolic_1d(3, a=lambda t, x: 1.0, a0=lambda t, x: 0.0)
    h = 0.25
    expected = (np.diag([-2.0] * 3) + np.diag([1.0] * 2, 1) + np.diag([1.0] * 2, -1)) / h**2
    np.testing.assert_allclose(model.drift_matrix(0.0), expected, atol=1e-13)


def _loop_drift(m, a, a0, t):
    """Reference stencil: one scalar call per midpoint and per node."""
    h = 1.0 / (m + 1)
    am = np.array([a(t, x) for x in np.arange(0.5, m + 1) * h]) / h**2
    zero = np.array([a0(t, x) for x in np.arange(1, m + 1) * h])
    mat = np.diag(-(am[:-1] + am[1:]) + zero)
    off = am[1:-1]
    mat[np.arange(m - 1), np.arange(1, m)] = off
    mat[np.arange(1, m), np.arange(m - 1)] = off
    return mat


def test_parabolic_catalog_drift_is_bitwise_the_loop_stencil(parabolic5):
    for t in np.linspace(-50.0, 50.0, 1001):
        ref = _loop_drift(5, lambda t, x: 1.0, lambda t, x: -1.0, t)
        assert parabolic5.drift_matrix(t).tobytes() == ref.tobytes()


def test_parabolic_160_builds_in_linear_memory_as_the_loop_stencil():
    # the drift has 3m - 2 nonzero entries: no (m^2, m + 1) stencil is built
    tracemalloc.start()
    try:
        model = make_parabolic_1d(160, 1.0, -1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    ref = _loop_drift(160, lambda t, x: 1.0, lambda t, x: -1.0, 0.0)
    assert model.drift_matrix(0.0).tobytes() == ref.tobytes()


@pytest.mark.parametrize("m", [3, 5, 9])
def test_parabolic_varying_coefficients_match_the_loop_stencil(m):
    a = lambda t, x: 1.0 + x**2 + 0.5 * np.sin(t)
    a0 = lambda t, x: -(1.0 + x) * (1.2 + np.cos(3.0 * t))
    model = make_parabolic_1d(m, a=a, a0=a0)
    for t in np.linspace(-50.0, 50.0, 101):
        ref = _loop_drift(m, a, a0, t)
        assert np.abs(model.drift_matrix(t) - ref).max() <= 1e-15 * np.abs(ref).max()


def test_parabolic_rejects_coefficients_without_array_points():
    with pytest.raises(BadParameterError, match="array of points"):
        make_parabolic_1d(3, a=lambda t, x: math.sin(x) + 2.0, a0=lambda t, x: 0.0)
    with pytest.raises(BadParameterError, match="array of points"):
        make_parabolic_1d(3, a=lambda t, x: 1.0, a0=lambda t, x: np.zeros(2))


def test_default_identity_noise_is_one_read_only_array(parabolic5):
    b = parabolic5.noise_matrix(0.3)
    assert b is parabolic5.noise_matrix(-1.7)
    np.testing.assert_array_equal(b, np.eye(parabolic5.dim))
    with pytest.raises(ValueError):
        b[0, 0] = 2.0


def test_parabolic_constant_coefficients_match_matrix_exponential():
    model = build_model("parabolic-1d", {"m": 5})
    a = model.drift_matrix(0.0)
    u = propagator_matrix(model, 0.0, 0.8)
    assert np.abs(u - expm(0.8 * a)).max() <= 1e-9


def test_parabolic_zero_order_shifts_spectrum():
    model = make_parabolic_1d(5, a=lambda t, x: 1.0, a0=lambda t, x: -1.0)
    eigs = np.linalg.eigvalsh(model.drift_matrix(0.0))
    assert eigs.max() <= -1.0 + 1e-12


def test_parabolic_decay_certificate(parabolic5):
    # symmetric drift: log-norm bound with the sampled top eigenvalue;
    # the integrator's absolute error floor (~1e-10) is allowed on top
    m, zeta = parabolic5.decay
    assert m == 1.0 and zeta > 1.0
    for s, t in [(0.0, 0.25), (0.0, 0.5), (-0.5, 0.5)]:
        norm = np.linalg.norm(propagator_matrix(parabolic5, s, t), 2)
        assert norm <= math.exp(-zeta * (t - s)) + 1e-9


def test_parabolic_validation():
    with pytest.raises(BadParameterError):
        make_parabolic_1d(4, a=lambda t, x: -1.0, a0=lambda t, x: 0.0)
    with pytest.raises(BadParameterError):
        make_parabolic_1d(4, a=lambda t, x: 1.0, a0=lambda t, x: 0.5)
    # number coefficients are held to the same contract
    for a, a0 in [(-1.0, 0.0), (0.0, 0.0), (1.0, 0.5), (math.nan, 0.0), (1.0, math.nan),
                  ("stiff", 0.0), (1.0, lambda t, x: 0.5), (lambda t, x: 0.0, -1.0)]:
        with pytest.raises(BadParameterError):
            make_parabolic_1d(4, a=a, a0=a0)


@pytest.mark.parametrize("name, key", [("diag-constant", "n"), ("parabolic-1d", "m")])
def test_counts_must_be_integral(name, key):
    # a config's "3.0" parses as a float and builds the model with the int 3
    assert build_model(name, {key: 3.0}).dim == 3
    with pytest.raises(BadParameterError, match="must be an integer"):
        build_model(name, {key: 2.5})


def test_parabolic_number_coefficients_mark_an_autonomous_family():
    exact = make_parabolic_1d(5, a=1.0, a0=-1.0)
    cells = make_parabolic_1d(5, a=lambda t, x: 1.0, a0=lambda t, x: -1.0)
    assert exact.autonomous and not cells.autonomous
    assert not make_parabolic_1d(5, a=1.0, a0=lambda t, x: -1.0).autonomous
    assert not make_parabolic_1d(5, a=1.0, a0=-1.0, noise=lambda t: np.eye(5)).autonomous
    # bounds from the one constant matrix equal the 101-time samples bit for bit
    assert exact.decay == cells.decay and exact.meta == cells.meta
    a = exact.drift_matrix(0.3)
    assert a is exact.drift_matrix(-1.7) and a.tobytes() == cells.drift_matrix(0.3).tobytes()
    with pytest.raises(ValueError):
        a[0, 0] = 0.0


def test_nonunique_noise_sup_over_its_window(nonunique3):
    assert nonunique3.window == (-250.0, 50.0)
    assert nonunique3.meta["noise_sup"] == 1.0


def test_nonunique_slow_mode_peaks_at_zero(nonunique3):
    a = nonunique3.coeffs.drift
    assert a(0.0)[0] == 0.0
    assert a(1.0)[0] < 0.0


def test_nonunique_mean_scale_against_quadrature_oracle(nonunique3):
    # oracle: direct adaptive quadrature of the (integrable) slow drift
    tail, _ = integrate.quad(lambda u: -u * u / (1 + u**4), -np.inf, 0.0)
    expected = math.exp(tail)
    assert expected == pytest.approx(0.3293215221246151, abs=1e-12)
    scale = nonunique3.meta["mean_scale"]
    assert scale(0.0) == pytest.approx(expected, abs=1e-10)
    # m stays in (0, 1]
    for t in (-200.0, -5.0, 0.0, 3.0, 40.0):
        assert 0.0 < scale(t) <= 1.0


@pytest.mark.parametrize("which", ["rational4", "nonunique3"])
def test_drift_antiderivatives_match_quadrature(request, which):
    # oracle: SciPy's adaptive quadrature of the drift itself, at 1e-13
    model = request.getfixturevalue(which)
    pairs = np.sort(np.random.default_rng(13).uniform(*model.window, (50, 2)), axis=1)
    a, c = model.coeffs.drift, model.coeffs.drift_antideriv
    for k in range(model.dim):
        for s, t in pairs.tolist():
            ref, _ = integrate.quad(lambda u: a(u)[k], s, t,
                                    epsabs=1e-13, epsrel=1e-13, limit=400)
            assert abs(c(t)[k] - c(s)[k] - ref) <= 1e-13 * max(1.0, abs(ref))
    if "mean_scale" in model.meta:
        for t in pairs[:, 1].tolist():
            tail, _ = integrate.quad(lambda u: a(u)[0], -np.inf, t,
                                     epsabs=1e-13, epsrel=1e-13, limit=400)
            assert model.meta["mean_scale"](t) == pytest.approx(math.exp(tail), rel=1e-13)


def test_nonunique_requires_two_modes():
    with pytest.raises(BadParameterError):
        make_nonunique_demo(1)


_COEFFS = models.constant_modes([-1.0, -2.0], [1.0, 1.0])
_MAPS = {"drift_fn": lambda t: -np.eye(2), "noise_fn": lambda t: np.eye(2)}


@pytest.mark.parametrize("parts", [
    {"coeffs": _COEFFS, **_MAPS},  # both kinds at once
    {},  # neither kind
    {"coeffs": _COEFFS, "drift_fn": _MAPS["drift_fn"]},
    {"drift_fn": _MAPS["drift_fn"]},
    {"noise_fn": _MAPS["noise_fn"]},
], ids=["both", "neither", "coeffs-and-drift", "drift-only", "noise-only"])
def test_a_family_carries_exactly_one_kind_of_coefficients(parts):
    with pytest.raises(BadParameterError, match="either coeffs"):
        models.OperatorFamily(name="mixed", dim=2, window=(-1.0, 1.0), **parts)


def test_kind_follows_the_coefficients_a_family_carries():
    assert models.OperatorFamily(name="d", dim=2, window=(-1.0, 1.0),
                                 coeffs=_COEFFS).kind == "diagonal"
    assert models.OperatorFamily(name="m", dim=2, window=(-1.0, 1.0), **_MAPS).kind == "dense"


@pytest.mark.parametrize("name", sorted(models.CATALOG))
def test_catalog_kind_is_dense_for_the_parabolic_family_only(name):
    assert build_model(name).kind == ("dense" if name == "parabolic-1d" else "diagonal")


@pytest.mark.parametrize("fixture, kind", [
    ("dc8", "diagonal"), ("dc4", "diagonal"), ("rational4", "diagonal"),
    ("rational2", "diagonal"), ("scalar4", "diagonal"), ("nonunique3", "diagonal"),
    ("parabolic5", "dense"), ("parabolic5_varying", "dense"),
])
def test_fixture_kind(request, fixture, kind):
    assert request.getfixturevalue(fixture).kind == kind


def test_window_is_enforced(dc8):
    with pytest.raises(WindowExceededError):
        dc8.drift_matrix(1000.0)
    with pytest.raises(WindowExceededError):
        propagator_matrix(dc8, -60.0, 0.0)


def test_catalog_construction_is_deterministic():
    m1 = build_model("diag-rational", {"n": 3})
    m2 = build_model("diag-rational", {"n": 3})
    np.testing.assert_array_equal(m1.drift_matrix(0.7), m2.drift_matrix(0.7))


def test_catalog_rejects_unknown_model():
    with pytest.raises(BadParameterError):
        build_model("no-such-model")


@pytest.mark.parametrize("name, params", [
    ("diag-constant", {"lam": math.nan}),  # NaN passes lam < 0
    ("diag-constant", {"b": math.inf}),
    ("scalar-osc", {"offset": math.nan}),
    ("parabolic-1d", {"nu": math.inf}),
    ("nonunique-demo", {"window": (math.nan, 50.0)}),  # NaN passes the empty-window check
])
def test_catalog_rejects_non_finite_parameters(name, params):
    with pytest.raises(BadParameterError, match="finite"):
        build_model(name, params)
