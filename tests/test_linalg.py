import math

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from oulab import linalg
from oulab.linalg import (
    NonSymmetricError,
    NotPSDError,
    SymOperator,
    clamp_psd,
    psd_eigh,
    range_inverse,
    sqrt_psd,
)


def random_psd(seed, dim):
    a = np.random.default_rng(seed).standard_normal((dim, dim))
    return SymOperator(a @ a.T)


def diagonal(values):
    return SymOperator(np.diag(values))


def inverse_apply(r, y):
    """R^-1 y from the factors of range_inverse, in the order they are meant
    to be applied."""
    v, inv = range_inverse(r)
    return v @ ((v.T @ np.asarray(y, dtype=float)).T * inv).T


def range_norm(r, x):
    return float(np.linalg.norm(inverse_apply(r, x)))


def test_spectral_identity():
    w, _ = psd_eigh(SymOperator(np.eye(3)))
    np.testing.assert_allclose(w, [1.0, 1.0, 1.0])


def test_spectral_diagonal_sorted_descending():
    w, v = psd_eigh(diagonal([1.0, 4.0, 0.0]))
    np.testing.assert_allclose(w, [4.0, 1.0, 0.0])
    # eigenvectors are the axes, permuted with the eigenvalues, up to sign
    np.testing.assert_allclose(np.abs(v), np.eye(3)[:, [1, 0, 2]], atol=1e-14)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_spectral_roundtrip(seed):
    s = random_psd(seed, 5)
    w, v = psd_eigh(s)
    assert np.all(np.diff(w) <= 0.0)
    scale = max(1.0, np.abs(s.entries).max())
    assert np.abs((v * w) @ v.T - s.entries).max() <= 1e-10 * scale
    assert np.abs(v.T @ v - np.eye(5)).max() <= 1e-10


def test_rejects_asymmetric():
    with pytest.raises(NonSymmetricError):
        SymOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("where", [(0, 1), (1, 1)])
def test_rejects_non_finite_entries(bad, where):
    # NaN fails every comparison, so no tolerance test alone rejects it
    a = np.eye(2)
    a[where] = bad
    with pytest.raises(NonSymmetricError):
        SymOperator(a)


def test_sqrt_diagonal():
    root = sqrt_psd(diagonal([4.0, 9.0]))
    np.testing.assert_allclose(root.entries, np.diag([2.0, 3.0]), atol=1e-12)


def test_sqrt_zero():
    root = sqrt_psd(SymOperator.zero(3))
    np.testing.assert_allclose(root.entries, np.zeros((3, 3)))


def test_sqrt_rejects_indefinite():
    with pytest.raises(NotPSDError):
        sqrt_psd(diagonal([1.0, -1e-6]))


def test_sqrt_clamps_roundoff_negatives():
    root = sqrt_psd(diagonal([1.0, -5e-11]))
    assert root.entries[1, 1] == 0.0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_sqrt_squares_back(seed):
    s = random_psd(seed, 6)
    root = sqrt_psd(s)
    err = np.abs(root.entries @ root.entries - s.entries).max()
    assert err <= 1e-9 * max(1.0, np.abs(s.entries).max())


def test_clamp_psd_clamps_roundoff_negatives():
    clamped = clamp_psd(np.diag([1.0, -5e-11]))
    assert clamped.entries[1, 1] == 0.0
    assert psd_eigh(clamped)[0][-1] == 0.0


def test_clamp_psd_rejects_indefinite():
    with pytest.raises(NotPSDError):
        clamp_psd(np.diag([1.0, -1e-6]))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_clamp_psd_keeps_positive_definite_input_bitwise(seed):
    a = random_psd(seed, 5).entries + 1e-3 * np.eye(5)
    assert np.array_equal(clamp_psd(a).entries, a)


def test_pseudo_inverse_drops_kernel():
    np.testing.assert_allclose(inverse_apply(diagonal([2.0, 0.0]), [4.0, 7.0]), [2.0, 0.0])
    _, inv = range_inverse(diagonal([2.0, 1e-13]))  # below RANK_CUT of the top
    np.testing.assert_array_equal(inv, [0.5, 0.0])


def test_pseudo_inverse_identity():
    y = np.array([1.0, -2.0, 0.5, 3.0])
    np.testing.assert_allclose(inverse_apply(SymOperator(np.eye(4)), y), y)


def test_range_norm_by_hand():
    # R = diag(2, 3), y = (2, 3): preimage (1, 1), norm sqrt(2)
    r = diagonal([2.0, 3.0])
    np.testing.assert_allclose(inverse_apply(r, [2.0, 3.0]), [1.0, 1.0])
    assert range_norm(r, [2.0, 3.0]) == pytest.approx(math.sqrt(2.0), abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
@example(seed=1652)  # cond 4.3e7: the formed pseudo-inverse misses by 1.4e-8
def test_left_identity_on_range(seed):
    s = random_psd(seed, 4)
    x = np.random.default_rng(seed + 1).standard_normal(4)
    y = s.entries @ x  # guaranteed in the range
    back = s.entries @ inverse_apply(s, y)
    assert np.abs(back - y).max() <= 1e-9 * max(1.0, np.abs(y).max())


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_ambient_norm_dominated_by_range_norm(seed):
    s = random_psd(seed, 4)
    x = s.entries @ np.random.default_rng(seed + 2).standard_normal(4)
    lhs = np.linalg.norm(x)
    rhs = linalg.operator_norm(s.entries) * range_norm(s, x)
    assert lhs <= rhs * (1.0 + 1e-9)


def test_spectral_factor_reproduces_covariance():
    s = random_psd(99, 5)
    factor = linalg.spectral_factor(s)
    assert np.abs(factor @ factor.T - s.entries).max() <= 1e-10


def test_spectral_factor_degenerate_modes_are_zero():
    factor = linalg.spectral_factor(diagonal([1.0, 0.0]))
    # the kernel direction contributes nothing to samples
    np.testing.assert_allclose((factor @ factor.T)[1], [0.0, 0.0], atol=1e-15)
