"""The closed forms that read ``propagate_trig`` against scalar reference
oracles: the characteristic-function identity of ``verify_invariance``, the
per-term formula of ``transition_of_generator`` and ``characteristic`` row by
row, each written term by term with ``cmath``, away from the vectorised code."""

import cmath
import math

import numpy as np
import pytest

from oulab import measures as meas
from oulab.covariance import accumulated
from oulab.evolution import propagator_matrix
from oulab.mehler import TrigPolynomial, transition_of_generator

# (fixture, anchor of the system): the certified system where the model has
# a decay certificate, an anchored one where it has none
SYSTEMS = [("dc8", -math.inf), ("rational4", -6.0), ("parabolic5", -math.inf),
           ("nonunique3", -200.0)]
PAIRS = [(-1.0, 0.5), (0.0, 1.5), (1.0, 1.0), (-2.0, 3.0)]


def characteristic_oracle(mu, h):
    return cmath.exp(1j * float(mu.mean @ h) - 0.5 * mu.cov.quadratic_form(h))


def invariance_rows_oracle(system, model, pairs, probes):
    """|nu_t^(h) - e^{-<K(t,s)h,h>/2} nu_s^(U(t,s)^T h)| probe by probe."""
    rows = []
    for s, t in pairs:
        u, k = propagator_matrix(model, s, t), accumulated(model, s, t)
        for j, h in enumerate(probes):
            lhs = characteristic_oracle(system(t), h)
            rhs = cmath.exp(-0.5 * k.quadratic_form(h)) * characteristic_oracle(system(s), u.T @ h)
            rows.append((s, t, j, abs(lhs - rhs)))
    return rows


def transition_oracle(model, s, t, phi, x, with_k_term=True):
    """P_{s,t}(L(t) phi)(x) term by term, and the sum of the terms' sizes:
    [i<x, U^T A^T h> - <K A^T h, h> - <Q h, h>/2] e^{-<K h, h>/2 + i<x, U^T h>}
    with A = A(t), Q = Q(t), U = U(t, s), K = K(t, s)."""
    u, k = propagator_matrix(model, s, t), accumulated(model, s, t).entries
    a_star, q_t = model.drift_matrix(t).T, model.diffusion_matrix(t)
    total, size = 0.0 + 0.0j, 0.0
    for c, h in zip(phi.coeffs, phi.freqs):
        ah = a_star @ h
        damp = cmath.exp(-0.5 * float(h @ k @ h) + 1j * float(x @ (u.T @ h)))
        drift, k_term, noise = float(x @ (u.T @ ah)), float(ah @ k @ h), 0.5 * float(h @ q_t @ h)
        total += c * (1j * drift - with_k_term * k_term - noise) * damp
        size += abs(c) * abs(damp) * (abs(drift) + abs(k_term) + noise)
    return total, size


def _system(request, fixture, anchor):
    model = request.getfixturevalue(fixture)
    return model, meas.gaussian_system(model, anchor=anchor)


@pytest.mark.parametrize("fixture, anchor", SYSTEMS, ids=[row[0] for row in SYSTEMS])
def test_invariance_rows_match_the_scalar_identity(request, fixture, anchor):
    model, system = _system(request, fixture, anchor)
    probes = meas.default_probes(model.dim, seed=7, count=12)
    rep = meas.verify_invariance(system, model, PAIRS, probes, tol=1e-6)
    expected = invariance_rows_oracle(system, model, PAIRS, probes)
    assert [row[:3] for row in rep.rows] == [row[:3] for row in expected]
    gaps = [abs(a[3] - b[3]) for a, b in zip(rep.rows, expected)]
    assert max(gaps) <= 1e-15, max(gaps)


def _random_polys(model, seed, count=6):
    gen = np.random.default_rng(seed)
    for _ in range(count):
        poly = TrigPolynomial(gen.standard_normal(3) + 1j * gen.standard_normal(3),
                              gen.standard_normal((3, model.dim)))
        yield poly, gen.standard_normal(model.dim)


@pytest.mark.parametrize("fixture", [row[0] for row in SYSTEMS])
def test_transition_of_generator_matches_the_term_loop(request, fixture):
    # relative to the terms' sizes, not to the value: on long parabolic5
    # spans K A^T + A K + Q nearly vanishes and the value cancels to rounding
    model = request.getfixturevalue(fixture)
    for s, t in PAIRS:
        for poly, x in _random_polys(model, seed=31):
            expected, size = transition_oracle(model, s, t, poly, x)
            assert abs(transition_of_generator(model, s, t, poly, x) - expected) <= 1e-13 * size


@pytest.mark.parametrize("fixture", [row[0] for row in SYSTEMS])
def test_the_transition_oracle_sees_a_missing_covariance_term(request, fixture):
    # dropping <K A^T h, h> moves the value far beyond the oracle's bound
    # wherever K(t, s) is not 0
    model = request.getfixturevalue(fixture)
    for s, t in [pair for pair in PAIRS if pair[0] < pair[1]]:
        for poly, x in _random_polys(model, seed=31, count=2):
            _, size = transition_oracle(model, s, t, poly, x)
            planted = transition_oracle(model, s, t, poly, x, with_k_term=False)[0]
            assert abs(transition_of_generator(model, s, t, poly, x) - planted) > 1e-13 * size


@pytest.mark.parametrize("fixture, anchor", SYSTEMS, ids=[row[0] for row in SYSTEMS])
def test_characteristic_on_rows_is_the_per_row_value(request, fixture, anchor):
    model, system = _system(request, fixture, anchor)
    mu = system(0.5)
    shifted = meas.GaussianMeasure(mu.mean + 0.3, mu.cov)  # a mean to phase the values
    freqs = np.random.default_rng(5).standard_normal((7, model.dim))
    for law in (mu, shifted):
        rows = meas.characteristic(law, freqs)
        singles = [meas.characteristic(law, h) for h in freqs]
        assert rows.shape == (7,) and all(type(v) is complex for v in singles)
        np.testing.assert_allclose(rows, singles, rtol=0, atol=1e-15)
        np.testing.assert_allclose(rows, [characteristic_oracle(law, h) for h in freqs],
                                   rtol=0, atol=1e-15)
