import cmath
import math

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss

from oulab import measures as meas
from oulab.covariance import accumulated, steady_state
from oulab.linalg import SymOperator
from oulab.measures import GaussianMeasure, characteristic, mean_functional, sample
from oulab.mehler import TrigPolynomial, apply_exact
from oulab.rng import CHUNK


def test_characteristic_at_zero_is_one():
    mu = GaussianMeasure(np.array([0.3, -1.0]), SymOperator(np.diag([2.0, 0.5])))
    assert characteristic(mu, np.zeros(2)) == pytest.approx(1.0 + 0.0j)


def test_characteristic_steady_state_constant_model(dc8):
    gamma = meas.gaussian_system(dc8, tol_tail=1e-12)(0.0)
    val = characteristic(gamma, np.eye(8)[0])
    assert val == pytest.approx(math.exp(-0.25), abs=1e-11)
    assert math.exp(-0.25) == pytest.approx(0.7788007830714049, abs=1e-16)


def test_shifted_characteristic_is_product():
    # convolving with a point mass multiplies the characteristic function
    # by a pure phase; the mean-shift construction must agree
    cov = SymOperator(np.diag([0.5, 0.25]))
    base = GaussianMeasure(np.zeros(2), cov)
    v = np.array([0.7, -0.2])
    shifted = GaussianMeasure(v, cov)
    for h in (np.array([1.0, 0.0]), np.array([0.3, -1.2])):
        expected = characteristic(base, h) * cmath.exp(1j * float(v @ h))
        assert characteristic(shifted, h) == pytest.approx(expected, abs=1e-14)


def test_sample_degenerate_covariance_is_constant():
    mu = GaussianMeasure(np.array([2.0, -1.0]), SymOperator.zero(2))
    draws = sample(mu, 100, seed=1)
    assert np.all(draws == mu.mean)


def test_sample_moments_constant_model(dc8):
    gamma = meas.gaussian_system(dc8)(0.0)
    draws = sample(gamma, 100_000, seed=7)
    var = draws.var(axis=0, ddof=1)
    assert np.abs(var - 0.5).max() <= 0.02
    # empirical mean within 4 sigma / sqrt(n) per coordinate
    assert np.abs(draws.mean(axis=0)).max() <= 4.0 * math.sqrt(0.5 / 100_000)
    # covariance entries within 5 sqrt((Qii Qjj + Qij^2)/n)
    emp = np.cov(draws.T, ddof=1)
    q = gamma.cov.entries
    se = np.sqrt((np.outer(np.diag(q), np.diag(q)) + q**2) / 100_000)
    assert np.all(np.abs(emp - q) <= 5.0 * se)


def test_sample_deterministic(dc8):
    gamma = meas.gaussian_system(dc8)(0.0)
    a = sample(gamma, 257, seed=42)
    b = sample(gamma, 257, seed=42)
    np.testing.assert_array_equal(a, b)


def test_invariance_constant_model_closed_form(dc8):
    system = meas.gaussian_system(dc8, tol_tail=1e-13)
    probes = meas.default_probes(8, seed=3)[:20]
    pairs = [(s, t) for s in (-1.0, 0.0, 1.0) for t in (0.5, 1.5, 2.5) if s <= t]
    rep = meas.verify_invariance(system, dc8, pairs, probes, tol=1e-12)
    assert rep.passed, rep.max_discrepancy


def test_invariance_includes_equal_times(dc8):
    system = meas.gaussian_system(dc8)
    rep = meas.verify_invariance(system, dc8, [(1.0, 1.0)], [np.eye(8)[0]], tol=1e-12)
    assert rep.max_discrepancy == 0.0


def test_invariance_anchored_rational(rational4):
    # no infinite-horizon covariance exists here; a window-anchored family
    # is an exact system on [anchor, inf)
    system = meas.gaussian_system(rational4, anchor=-6.0)
    probes = meas.default_probes(4, seed=5)[:12]
    pairs = [(s, t) for s in (-2.0, -1.0, 0.0) for t in (0.5, 1.5) ]
    rep = meas.verify_invariance(system, rational4, pairs, probes, tol=1e-6)
    assert rep.passed, rep.max_discrepancy


def test_default_probes_returns_the_count_asked_for():
    assert len(meas.default_probes(8, seed=3)) == 20
    for dim in (1, 3, 8):
        full = meas.default_probes(dim, seed=3, count=30)
        for count in (1, 5, 12, 20):
            probes = meas.default_probes(dim, seed=3, count=count)
            assert len(probes) == count
            np.testing.assert_array_equal(probes, full[:count])


@pytest.mark.parametrize("dim, count", [(1, 1), (2, 5), (3, 9)])
def test_default_probes_are_not_parallel(dim, count):
    # in one dimension every direction is parallel to e_1, so one probe
    probes = np.array(meas.default_probes(dim, seed=3, count=count))
    units = probes / np.linalg.norm(probes, axis=1)[:, None]
    cosines = np.abs(units @ units.T)[np.triu_indices(count, k=1)]
    assert np.all(cosines < 1.0 - 1e-9)
    assert np.allclose(np.linalg.norm(meas.default_probes(1, seed=3, count=3), axis=1), 1.0)


def test_marginal_law_is_the_projected_gaussian(dc8):
    mean = np.linspace(-1.0, 1.0, 8)
    mu = GaussianMeasure(mean, meas.gaussian_system(dc8)(0.0).cov)
    gen = np.random.default_rng(4)
    full = gen.standard_normal((2, 8))
    rank1 = np.stack([full[0], -2.0 * full[0]])  # dependent rows: rank 1
    for h in (full, rank1):
        law = meas.marginal(mu, h)
        np.testing.assert_allclose(law.mean, h @ mean, rtol=0, atol=1e-14)
        np.testing.assert_allclose(law.cov.entries, h @ mu.cov.entries @ h.T, rtol=1e-14)
        draws = sample(law, 100_000, seed=5)
        emp = np.cov(draws.T, ddof=1)
        q = law.cov.entries
        se = np.sqrt((np.outer(np.diag(q), np.diag(q)) + q**2) / 100_000)
        assert np.all(np.abs(emp - q) <= 5.0 * se)
        assert np.all(np.abs(draws.mean(axis=0) - law.mean)
                      <= 4.0 * np.sqrt(np.diag(q) / 100_000))
    # the rank-1 law stays on its line: the second coordinate is -2 x the first
    centred = sample(meas.marginal(mu, rank1), 1000, seed=6) - rank1 @ mean
    np.testing.assert_allclose(centred[:, 1], -2.0 * centred[:, 0], atol=1e-12)


_GEN = np.random.default_rng(11)
_H = _GEN.standard_normal((2, 4))
_A = _GEN.standard_normal((4, 4))
# rows of H for the law N(Hm, H S H^T) and its rank
RULE_ROWS = {
    "zero-row": (np.zeros((1, 4)), 0),
    "one-row": (_H[:1], 1),
    "zero-h-2h": (np.vstack([np.zeros(4), _H[0], 2.0 * _H[0]]), 1),
    "two-rows": (_H, 2),
    "zero-h1-h2": (np.vstack([np.zeros(4), _H]), 2),
    "h1-h2-sum": (np.vstack([_H, _H[0] + _H[1]]), 2),
}


def _base_law():
    return GaussianMeasure(np.array([0.5, -1.0, 0.25, 2.0]), SymOperator(_A @ _A.T / 4.0))


@pytest.mark.parametrize("name", RULE_ROWS)
def test_gauss_hermite_reproduces_the_marginal_moments(name):
    rows, rank = RULE_ROWS[name]
    mu = _base_law()
    u, w = meas.gauss_hermite(meas.marginal(mu, rows), *hermgauss(8))
    assert u.shape == (8 ** rank, len(rows)) and w.shape == (8 ** rank,)
    mean = rows @ mu.mean
    np.testing.assert_allclose(w @ u, mean, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose((u - mean).T @ ((u - mean) * w[:, None]),
                               rows @ mu.cov.entries @ rows.T, rtol=0.0, atol=1e-12)
    if name == "zero-h-2h":  # a rank-1 law lies on its line
        np.testing.assert_allclose(u[:, 2] - mean[2], 2.0 * (u[:, 1] - mean[1]), atol=1e-12)


@pytest.mark.parametrize("name", RULE_ROWS)
def test_gauss_hermite_integrates_exponentials(name):
    rows, _ = RULE_ROWS[name]
    mu = _base_law()
    a = np.linspace(0.5, -0.3, len(rows))
    law = meas.marginal(mu, rows)
    u, w = meas.gauss_hermite(law, *hermgauss(64))
    exact = math.exp(a @ law.mean + 0.5 * law.cov.quadratic_form(a))
    assert float(w @ np.exp(u @ a)) == pytest.approx(exact, rel=1e-12, abs=0.0)


def test_gauss_hermite_of_a_point_mass_is_its_mean():
    u, w = meas.gauss_hermite(GaussianMeasure(np.array([2.0, -1.0]), SymOperator.zero(2)),
                              *hermgauss(8))
    assert u.tolist() == [[2.0, -1.0]] and w.tolist() == [1.0]


def test_gauss_hermite_rejects_rank_three():
    with pytest.raises(ValueError, match="rank at most 2, got 3"):
        meas.gauss_hermite(GaussianMeasure(np.zeros(3), SymOperator(np.eye(3))), *hermgauss(8))


def test_invariance_rejects_pre_anchor_times(rational4):
    system = meas.gaussian_system(rational4, anchor=0.0)
    with pytest.raises(ValueError):
        system(-1.0)


def test_nonunique_two_systems_pass(nonunique3):
    base = meas.gaussian_system(nonunique3, anchor=-200.0)
    scale = nonunique3.meta["mean_scale"]
    e1 = np.eye(3)[0]
    shifted = meas.point_shifted_system(base, lambda t: scale(t) * e1)
    probes = meas.default_probes(3, seed=11)[:12]
    pairs = [(s, t) for s in (-2.0, -1.0, 0.0) for t in (0.5, 1.5)]
    rep1 = meas.verify_invariance(base, nonunique3, pairs, probes, tol=1e-6)
    rep2 = meas.verify_invariance(shifted, nonunique3, pairs, probes, tol=1e-6)
    assert rep1.passed and rep2.passed
    # and they are genuinely different measures
    assert abs(characteristic(base(0.0), e1) - characteristic(shifted(0.0), e1)) > 0.01


def test_mean_functional_constant_is_one(dc8):
    gamma = meas.gaussian_system(dc8)(0.0)
    one = TrigPolynomial.constant(8, 1.0)
    assert mean_functional(gamma, one) == pytest.approx(1.0 + 0.0j, abs=1e-15)


def test_mean_functional_cosine(dc8):
    gamma = meas.gaussian_system(dc8, tol_tail=1e-12)(0.0)
    poly = TrigPolynomial.cosine(np.eye(8)[0])
    assert mean_functional(gamma, poly).real == pytest.approx(math.exp(-0.25), abs=1e-11)


def test_mean_functional_point_mass_like():
    mu = GaussianMeasure(np.zeros(3), SymOperator.zero(3))
    wave = TrigPolynomial.plane_wave(np.array([1.0, 2.0, 0.0]))
    assert mean_functional(mu, wave) == pytest.approx(1.0 + 0.0j, abs=1e-15)


def test_long_time_limit_constant_model(dc8):
    poly = TrigPolynomial.plane_wave(np.eye(8)[0])
    x0 = np.eye(8)[0]
    rep = meas.verify_long_time_limit(dc8, 0.0, x0, (-1.0, -2.0, -4.0, -8.0), poly)
    assert rep.excess <= 0.0  # monotone, and the last difference within tol_final
    assert rep.differences[-1] <= 1e-3


def test_long_time_limit_zero_start_formula(dc8):
    # started at the origin the gap is exactly the difference of the two
    # Gaussian damping factors
    poly = TrigPolynomial.plane_wave(np.eye(8)[0])
    t, s = 0.0, -3.0
    val = apply_exact(dc8, s, t, poly, np.zeros(8))
    k_fin = accumulated(dc8, s, t).entries[0, 0]
    k_inf = steady_state(dc8, t, 1e-13).entries[0, 0]
    expected = abs(math.exp(-0.5 * k_fin) - math.exp(-0.5 * k_inf))
    gamma = meas.gaussian_system(dc8, tol_tail=1e-13)(t)
    diff = abs(val - mean_functional(gamma, poly))
    assert diff == pytest.approx(expected, abs=1e-12)


def test_constant_observable_exact_at_any_start(dc8):
    one = TrigPolynomial.constant(8, 1.0)
    gamma = meas.gaussian_system(dc8)(0.0)
    for s in (-1.0, -4.0):
        assert apply_exact(dc8, s, 0.0, one, np.eye(8)[0]) == pytest.approx(
            mean_functional(gamma, one), abs=1e-15)


def test_sample_leading_chunk_does_not_depend_on_count(dc8):
    gamma = meas.gaussian_system(dc8)(0.0)
    shifted = GaussianMeasure(np.linspace(-1.0, 1.0, 8), gamma.cov)
    for mu in (gamma, shifted):
        whole = sample(mu, 2 * CHUNK, seed=5)
        np.testing.assert_array_equal(whole[:CHUNK], sample(mu, CHUNK, seed=5))
