import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from oulab import mehler
from oulab.covariance import accumulated
from oulab.evolution import propagator_matrix
from oulab.mehler import (
    TrigPolynomial,
    apply_exact,
    apply_mc,
    check_differentiation,
    generator_apply,
    propagate_trig,
    transition_of_generator,
)
from oulab.rng import seed_stream

DC_HALF_K = (1.0 - math.exp(-2.0)) / 4.0  # half the mode kernel at gap 1


def test_equal_times_is_identity(dc8):
    poly = (2.0 - 1.0j) * TrigPolynomial.plane_wave(np.eye(8)[0])
    x = np.ones(8)
    assert apply_exact(dc8, 1.0, 1.0, poly, x) == poly.evaluate(x)


def test_constant_model_damping(dc8):
    poly = TrigPolynomial.plane_wave(np.eye(8)[0])
    val = apply_exact(dc8, 0.0, 1.0, poly, np.zeros(8))
    assert math.exp(-DC_HALF_K) == pytest.approx(0.8056014165577624, abs=1e-16)
    assert val.real == pytest.approx(math.exp(-DC_HALF_K), abs=1e-12)
    assert val.imag == pytest.approx(0.0, abs=1e-15)


def test_propagated_frequencies_follow_adjoint(rational4):
    gen = seed_stream(2, "freqs")
    freqs = gen.standard_normal((3, 4))
    poly = TrigPolynomial(gen.standard_normal(3) + 0j, freqs)
    s, t = -0.5, 1.0
    out = propagate_trig(rational4, s, t, poly)
    u = propagator_matrix(rational4, s, t)
    np.testing.assert_allclose(out.freqs, freqs @ u, atol=1e-12)
    damp = np.exp(-0.5 * np.einsum("ij,jk,ik->i", freqs,
                                   accumulated(rational4, s, t).matrix, freqs))
    np.testing.assert_allclose(out.coeffs, poly.coeffs * damp, atol=1e-12)


def test_composition_matches_single_step(dc8, rational4):
    gen = seed_stream(8, "compose")
    for model in (dc8, rational4):
        freqs = gen.standard_normal((3, model.dim))
        poly = TrigPolynomial(gen.standard_normal(3) + 1j * gen.standard_normal(3), freqs)
        s, r, t = -0.5, 0.4, 1.3
        direct = propagate_trig(model, s, t, poly).canonical()
        stepped = propagate_trig(model, s, r, propagate_trig(model, r, t, poly)).canonical()
        np.testing.assert_allclose(direct.coeffs, stepped.coeffs, atol=1e-10)
        np.testing.assert_allclose(direct.freqs, stepped.freqs, atol=1e-10)


def test_evaluate_folds_opposite_and_repeated_frequencies():
    gen = seed_stream(21, "fold")
    h = gen.normal(size=(3, 4))
    h[1, 0] = 0.0  # the sign is fixed by the first nonzero entry
    freqs = np.vstack([h, -h, h[:1], -h[2:], np.zeros((1, 4))])
    coeffs = gen.normal(size=len(freqs)) + 1j * gen.normal(size=len(freqs))
    poly = TrigPolynomial(coeffs, freqs)
    assert poly.n_terms == 9
    assert poly._folded[0].shape == (4, 4)  # three directions and the constant
    x = gen.normal(size=(500, 4))
    reference = np.exp(1j * (x @ freqs.T)) @ coeffs
    assert np.abs(poly.evaluate(x) - reference).max() <= 1e-14 * np.abs(coeffs).sum()
    point = poly.evaluate(x[7])
    assert isinstance(point, complex)
    assert point == pytest.approx(reference[7], abs=1e-14 * np.abs(coeffs).sum())


def test_apply_mc_constant_observable(dc8):
    est = apply_mc(dc8, 0.0, 1.0, lambda ys: np.full(len(ys), 3.25), np.zeros(8),
                   count=500, seed=3)
    assert est.value == pytest.approx(3.25)
    assert est.stderr == 0.0


def test_apply_mc_matches_exact_cosine(dc8):
    poly = TrigPolynomial.cosine(np.eye(8)[0])
    exact = apply_exact(dc8, 0.0, 1.0, poly, np.zeros(8)).real
    est = apply_mc(dc8, 0.0, 1.0, lambda ys: np.cos(ys[:, 0]), np.zeros(8),
                   count=100_000, seed=5)
    assert abs(est.value.real - exact) <= 4.0 * est.stderr


def test_apply_mc_second_moment_identity(dc8):
    x = np.ones(8)
    s, t = 0.0, 1.0
    expected = np.trace(accumulated(dc8, s, t).matrix) + \
        float(np.linalg.norm(propagator_matrix(dc8, s, t) @ x) ** 2)
    est = apply_mc(dc8, s, t, lambda ys: (ys**2).sum(axis=1), x, count=200_000, seed=9)
    assert abs(est.value.real - expected) <= 4.0 * est.stderr


def test_mc_exactness_sweep(dc4):
    gen = seed_stream(17, "sweep")
    for k in range(100):
        freq = gen.standard_normal(4)
        poly = TrigPolynomial.plane_wave(freq)
        x = gen.standard_normal(4)
        exact = apply_exact(dc4, 0.0, 1.0, poly, x)
        est = apply_mc(dc4, 0.0, 1.0, poly.evaluate, x, count=4000, seed=k)
        assert abs(est.value - exact) <= 4.0 * est.stderr + 1e-12


# a statistical bound on drawn inputs fails at some rate; derandomize pins
# the examples so the suite is reproducible
@settings(max_examples=10, deadline=None, derandomize=True)
@given(s=st.floats(-3.0, 2.0), gap=st.floats(0.05, 1.5), seed=st.integers(0, 2**16))
def test_propagate_trig_against_mc_for_every_model(dc8, rational4, scalar4, parabolic5,
                                                    nonunique3, s, gap, seed):
    t = s + gap
    for model in (dc8, rational4, scalar4, parabolic5, nonunique3):
        gen = seed_stream(seed, "trig-vs-mc", model.dim)
        poly = (TrigPolynomial.cosine(gen.standard_normal(model.dim))
                + 0.5 * TrigPolynomial.sine(gen.standard_normal(model.dim)))
        x = gen.standard_normal(model.dim)
        exact = apply_exact(model, s, t, poly, x)
        est = apply_mc(model, s, t, poly.evaluate, x, count=20_000, seed=seed)
        assert abs(est.value - exact) <= 5.0 * est.stderr + 1e-12, model.name


def test_generator_on_plane_wave(dc8):
    poly = TrigPolynomial.plane_wave(np.eye(8)[0])
    val = generator_apply(dc8, 0.0, poly, np.zeros(8))
    assert val == pytest.approx(-0.5 + 0.0j, abs=1e-14)


def test_generator_on_constant(dc8):
    one = TrigPolynomial.constant(8, 1.0)
    assert generator_apply(dc8, 0.3, one, np.ones(8)) == pytest.approx(0.0, abs=1e-15)


def test_transition_of_generator_against_mc(dc4):
    # independent route: average L(t) phi over the transition law directly
    s, t = 0.0, 1.0
    h = np.eye(4)[0]
    poly = TrigPolynomial.plane_wave(h)
    closed = transition_of_generator(dc4, s, t, poly, np.ones(4))
    a_h = dc4.drift_adjoint(t) @ h
    q_hh = float(h @ dc4.diffusion_matrix(t) @ h)

    def l_phi(ys):
        return (1j * (ys @ a_h) - 0.5 * q_hh) * np.exp(1j * (ys @ h))

    est = apply_mc(dc4, s, t, l_phi, np.ones(4), count=200_000, seed=21)
    assert abs(est.value - closed) <= 4.0 * est.stderr


def test_differentiation_formulas_constant_model(dc8):
    poly = TrigPolynomial.plane_wave(np.eye(8)[0])
    rep = check_differentiation(dc8, 0.0, 1.0, poly, np.eye(8)[0], fd_step=1e-4)
    assert rep.start_discrepancy <= 1e-7
    assert rep.end_discrepancy <= 1e-7
    assert 3.5 <= rep.start_order_ratio <= 4.5
    assert 3.5 <= rep.end_order_ratio <= 4.5


def test_differentiation_trivial_constant(dc8):
    one = TrigPolynomial.constant(8, 1.0)
    rep = check_differentiation(dc8, 0.0, 1.0, one, np.ones(8), fd_step=1e-4)
    assert rep.start_discrepancy <= 1e-14
    assert rep.end_discrepancy <= 1e-14


def test_differentiation_formulas_rational(rational2):
    gen = seed_stream(6, "diff-rational")
    worst = 0.0
    for _ in range(5):
        poly = TrigPolynomial.plane_wave(gen.standard_normal(2))
        x = gen.standard_normal(2)
        rep = check_differentiation(rational2, -0.3, 0.9, poly, x, fd_step=1e-4)
        worst = max(worst, rep.start_discrepancy, rep.end_discrepancy)
    assert worst <= 1e-6
