import math

import numpy as np
import pytest
from oulab import spde
from oulab.covariance import accumulated
from oulab.evolution import propagator_matrix
from oulab.linalg import sqrt_psd
from oulab.mehler import TrigPolynomial, apply_exact
from oulab.models import make_diagonal_constant
from oulab.rng import CHUNK, seed_stream


@pytest.mark.parametrize("fixture, step", [
    ("dc8", 0.01), ("rational4", 0.01), ("nonunique3", 0.01), ("scalar4", 0.01),
    ("parabolic5", 0.005),
])
def test_step_factors_compose_to_the_span_law(request, fixture, step):
    # chain U and the flow decomposition of K over the simulation's own step
    # grid: the steps' transition laws must compose to the law over [0, 1]
    model = request.getfixturevalue(fixture)
    u, k = np.eye(model.dim), np.zeros((model.dim, model.dim))
    taus = spde._step_grid(0.0, 1.0, step)
    for lo, hi in zip(taus[:-1], taus[1:]):
        u_step = propagator_matrix(model, lo, hi)
        u, k = u_step @ u, u_step @ k @ u_step.T + accumulated(model, lo, hi).entries
    for got, whole in ((u, propagator_matrix(model, 0.0, 1.0)),
                       (k, accumulated(model, 0.0, 1.0).entries)):
        assert np.abs(got - whole).max() <= 1e-12 * np.abs(whole).max()


def test_noiseless_paths_follow_propagator():
    model = make_diagonal_constant(4, -1.0, 0.0)
    x0 = np.array([1.0, -2.0, 0.5, 3.0])
    ens = spde.simulate(model, 0.0, 1.0, x0, step=0.01, count=3, seed=1)
    expected = propagator_matrix(model, 0.0, 1.0) @ x0
    np.testing.assert_allclose(ens.terminal, np.tile(expected, (3, 1)), atol=1e-12)


def test_snapshots_carry_initial_condition(dc8):
    x0 = np.eye(8)[0]
    ens = spde.simulate(dc8, 0.0, 1.0, x0, step=0.05, count=7, seed=2, snapshots=5)
    assert ens.times[0] == 0.0 and ens.times[-1] == 1.0
    np.testing.assert_array_equal(ens.states[:, :, 0], np.tile(x0, (7, 1)))


def test_fixed_seed_reproduces_ensemble(dc8):
    x0 = np.eye(8)[0]
    a = spde.simulate(dc8, 0.0, 1.0, x0, step=0.02, count=500, seed=11)
    b = spde.simulate(dc8, 0.0, 1.0, x0, step=0.02, count=500, seed=11)
    np.testing.assert_array_equal(a.states, b.states)


def test_terminal_law_constant_model(dc8):
    x0 = np.eye(8)[0]
    n = 10_000
    ens = spde.simulate(dc8, 0.0, 1.0, x0, step=0.001, count=n, seed=4)
    term = ens.terminal
    k_diag = (1.0 - math.exp(-2.0)) / 2.0
    assert abs(term[:, 0].mean() - math.exp(-1.0)) <= 5.0 * math.sqrt(k_diag / n)
    var = term.var(axis=0, ddof=1)
    assert np.abs(var - k_diag).max() <= 5.0 * k_diag * math.sqrt(2.0 / n)
    law = spde.law_check(ens, dc8, 0.0, 1.0, x0)
    assert law.passed


def test_law_check_dense_model_at_any_step(parabolic5):
    # every step is drawn from the exact transition law, so coarse steps
    # are as unbiased as fine ones
    x0 = np.ones(5)
    for step in (2e-3, 0.05, 0.25):
        ens = spde.simulate(parabolic5, 0.0, 0.5, x0, step=step, count=4000, seed=6)
        law = spde.law_check(ens, parabolic5, 0.0, 0.5, x0)
        assert law.passed, (step, law)


def test_diagonal_paths_are_the_elementwise_recursion(rational4, dc8, scalar4):
    # for diagonal models the exact step reduces bitwise to per-mode decay
    # plus a per-mode Gaussian kick
    for model in (rational4, dc8, scalar4):
        s, t, step, count, seed = 0.0, 1.0, 0.1, 300, 5
        assert count <= CHUNK  # one chunk, drawn from one substream
        x0 = np.linspace(-1.0, 1.0, model.dim)
        ens = spde.simulate(model, s, t, x0, step, count, seed, snapshots=2)
        taus = spde._step_grid(s, t, step)
        z = np.tile(x0, (count, 1))
        gen = seed_stream(seed, "paths", 0)
        for lo, hi in zip(taus[:-1], taus[1:]):
            xi = gen.standard_normal((count, model.dim))
            z = (z * np.diag(propagator_matrix(model, lo, hi))
                 + xi * np.sqrt(np.diag(accumulated(model, lo, hi).entries)))
        np.testing.assert_array_equal(ens.terminal, z)


def test_every_snapshot_is_the_recursion_of_chunk_zero(parabolic5, dc8):
    # the head paths are the first rows of chunk 0, stepped by the exact
    # factors; a second, partial chunk leaves them alone
    for model in (parabolic5, dc8):
        s, t, step, count, seed = 0.0, 1.0, 0.05, CHUNK + 7, 3
        x0 = np.linspace(-1.0, 1.0, model.dim)
        ens = spde.simulate(model, s, t, x0, step, count, seed, snapshots=5)
        taus = spde._step_grid(s, t, step)
        snap_idx = [0, 5, 10, 15, 20]
        np.testing.assert_array_equal(ens.times, taus[snap_idx])
        z = np.tile(x0, (CHUNK, 1))
        gen = seed_stream(seed, "paths", 0)
        kept = [z[:spde.HEAD]]
        for j, (lo, hi) in enumerate(zip(taus[:-1], taus[1:]), 1):
            root = sqrt_psd(accumulated(model, lo, hi)).entries
            z = (z @ propagator_matrix(model, lo, hi).T
                 + gen.standard_normal((CHUNK, model.dim)) @ root)
            if j in snap_idx:
                kept.append(z[:spde.HEAD])
        assert ens.states.shape == (spde.HEAD, model.dim, 5)
        for k, snap in enumerate(kept):
            np.testing.assert_array_equal(ens.states[:, :, k], snap)
        np.testing.assert_array_equal(ens.terminal[:CHUNK], z)


def test_noiseless_limit_covariance_zero():
    model = make_diagonal_constant(3, -1.0, 0.0)
    ens = spde.simulate(model, 0.0, 1.0, np.ones(3), step=0.01, count=50, seed=9)
    law = spde.law_check(ens, model, 0.0, 1.0, np.ones(3))
    assert law.passed
    assert np.ptp(ens.terminal, axis=0).max() == 0.0  # every path identical
    assert ens.terminal.var(axis=0).max() <= 1e-30


def test_observable_consistency_with_exact_action(dc8):
    x0 = np.eye(8)[0]
    s, t = 0.0, 1.0
    ens = spde.simulate(dc8, s, t, x0, step=0.01, count=50_000, seed=12)
    poly = TrigPolynomial.cosine(np.eye(8)[0])
    vals = np.asarray(poly.evaluate(ens.terminal)).real
    exact = apply_exact(dc8, s, t, poly, x0).real
    stderr = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean() - exact) <= 4.0 * stderr


def test_scheme_law_matches_continuous_for_exact_integrator(dc8):
    # the diagonal integrator reproduces the transition law step by step
    x0 = np.eye(8)[0]
    ens = spde.simulate(dc8, 0.0, 1.0, x0, step=0.25, count=20_000, seed=14)
    law = spde.law_check(ens, dc8, 0.0, 1.0, x0)
    assert law.passed  # few, coarse steps: still unbiased


def test_terminal_does_not_depend_on_snapshots(dc8):
    x0 = np.eye(8)[0]
    count = CHUNK + 25  # a full chunk and a partial one
    ens = {k: spde.simulate(dc8, 0.0, 1.0, x0, step=0.05, count=count, seed=8, snapshots=k)
           for k in (2, 5, 21)}
    for k, e in ens.items():
        assert e.count == count and e.terminal.shape == (count, 8)
        assert e.states.shape == (spde.HEAD, 8, k)
        np.testing.assert_array_equal(e.terminal, ens[2].terminal)
        np.testing.assert_array_equal(e.states[:, :, -1], e.terminal[:spde.HEAD])
        np.testing.assert_array_equal(e.states[:, :, 0], np.tile(x0, (spde.HEAD, 1)))
