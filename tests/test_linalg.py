import math

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from oulab import linalg
from oulab.linalg import (
    CameronMartinMetric,
    NonSymmetricError,
    NotPSDError,
    SymOperator,
    cm_norm,
    pseudo_inverse_apply,
    spectral,
    sqrt_psd,
)


def random_symmetric(seed, dim):
    a = np.random.default_rng(seed).standard_normal((dim, dim))
    return SymOperator(a + a.T)


def random_psd(seed, dim):
    a = np.random.default_rng(seed).standard_normal((dim, dim))
    return SymOperator(a @ a.T)


def test_spectral_identity():
    dec = spectral(SymOperator.identity(3))
    np.testing.assert_allclose(dec.eigenvalues, [1.0, 1.0, 1.0])


def test_spectral_diagonal_sorted_descending():
    dec = spectral(SymOperator.diagonal([4.0, 1.0]))
    np.testing.assert_allclose(dec.eigenvalues, [4.0, 1.0])
    # eigenvectors are the axes up to sign
    np.testing.assert_allclose(np.abs(dec.eigenvectors), np.eye(2), atol=1e-14)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_spectral_roundtrip(seed):
    s = random_symmetric(seed, 5)
    dec = spectral(s)
    scale = max(1.0, np.abs(s.entries).max())
    assert np.abs(dec.reconstruct() - s.entries).max() <= 1e-10 * scale
    gram = dec.eigenvectors.T @ dec.eigenvectors
    assert np.abs(gram - np.eye(5)).max() <= 1e-10


def test_rejects_asymmetric():
    with pytest.raises(NonSymmetricError):
        SymOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_sqrt_diagonal():
    root = sqrt_psd(SymOperator.diagonal([4.0, 9.0]))
    np.testing.assert_allclose(root.entries, np.diag([2.0, 3.0]), atol=1e-12)


def test_sqrt_zero():
    root = sqrt_psd(SymOperator.zero(3))
    np.testing.assert_allclose(root.entries, np.zeros((3, 3)))


def test_sqrt_rejects_indefinite():
    with pytest.raises(NotPSDError):
        sqrt_psd(SymOperator.diagonal([1.0, -1e-6]))


def test_sqrt_clamps_roundoff_negatives():
    root = sqrt_psd(SymOperator.diagonal([1.0, -5e-11]))
    assert root.entries[1, 1] == 0.0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_sqrt_squares_back(seed):
    s = random_psd(seed, 6)
    root = sqrt_psd(s)
    err = np.abs(root.entries @ root.entries - s.entries).max()
    assert err <= 1e-9 * max(1.0, np.abs(s.entries).max())


def test_pseudo_inverse_drops_kernel():
    metric = CameronMartinMetric(SymOperator.diagonal([2.0, 0.0]))
    np.testing.assert_allclose(pseudo_inverse_apply(metric, [4.0, 7.0]), [2.0, 0.0])


def test_pseudo_inverse_identity():
    metric = CameronMartinMetric(SymOperator.identity(4))
    y = np.array([1.0, -2.0, 0.5, 3.0])
    np.testing.assert_allclose(pseudo_inverse_apply(metric, y), y)


def test_range_norm_by_hand():
    # R = diag(2, 3), y = (2, 3): preimage (1, 1), norm sqrt(2)
    metric = CameronMartinMetric(SymOperator.diagonal([2.0, 3.0]))
    np.testing.assert_allclose(pseudo_inverse_apply(metric, [2.0, 3.0]), [1.0, 1.0])
    assert cm_norm(metric, [2.0, 3.0]) == pytest.approx(math.sqrt(2.0), abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
@example(seed=1652)  # cond 4.3e7: the formed pseudo-inverse misses by 1.4e-8
def test_left_identity_on_range(seed):
    s = random_psd(seed, 4)
    metric = CameronMartinMetric(s)
    x = np.random.default_rng(seed + 1).standard_normal(4)
    y = s.apply(x)  # guaranteed in the range
    back = s.apply(pseudo_inverse_apply(metric, y))
    assert np.abs(back - y).max() <= 1e-9 * max(1.0, np.abs(y).max())


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_ambient_norm_dominated_by_range_norm(seed):
    s = random_psd(seed, 4)
    metric = CameronMartinMetric(s)
    x = s.apply(np.random.default_rng(seed + 2).standard_normal(4))
    lhs = np.linalg.norm(x)
    rhs = linalg.operator_norm(s.entries) * cm_norm(metric, x)
    assert lhs <= rhs * (1.0 + 1e-9)


def test_spectral_factor_reproduces_covariance():
    s = random_psd(99, 5)
    factor = linalg.spectral_factor(s)
    assert np.abs(factor @ factor.T - s.entries).max() <= 1e-10


def test_spectral_factor_degenerate_modes_are_zero():
    factor = linalg.spectral_factor(SymOperator.diagonal([1.0, 0.0]))
    # the kernel direction contributes nothing to samples
    np.testing.assert_allclose((factor @ factor.T)[1], [0.0, 0.0], atol=1e-15)
