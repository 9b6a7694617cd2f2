import numpy as np
import pytest
from hypothesis import settings

from oulab import models

# ``--hypothesis-profile=ci`` draws the same examples on every run, so a red
# CI run can be reproduced; local runs keep the fresh random search
settings.register_profile("ci", derandomize=True)


@pytest.fixture(scope="session")
def dc8():
    return models.make_diagonal_constant(8, -1.0, 1.0)


@pytest.fixture(scope="session")
def dc4():
    return models.make_diagonal_constant(4, -1.0, 1.0)


@pytest.fixture(scope="session")
def rational4():
    return models.make_diagonal_rational(4, 1.0, 2.0)


@pytest.fixture(scope="session")
def rational2():
    return models.make_diagonal_rational(2, 1.0, 2.0)


@pytest.fixture(scope="session")
def scalar4():
    return models.build_model("scalar-osc", {})


@pytest.fixture(scope="session")
def parabolic5():
    return models.build_model("parabolic-1d", {})


@pytest.fixture(scope="session")
def parabolic5_varying():
    # time-dependent dense drift: served by the DOP853 cell flow
    return models.make_parabolic_1d(5, a=lambda t, x: 1.0 + 0.5 * np.sin(t + x),
                                    a0=lambda t, x: -1.0)


@pytest.fixture(scope="session")
def nonunique3():
    return models.make_nonunique_demo(3)


def _dense_view(model):
    """The diagonal family ``model`` as an opaque dense one, with the same
    window, decay and meta: its exact (U, K) are the diagonal closed forms,
    while ``evolution.flow`` solves it on DOP853 cells."""
    return models.OperatorFamily(name=model.name, dim=model.dim, window=model.window,
                                 drift_fn=model.drift_matrix, noise_fn=model.noise_matrix,
                                 decay=model.decay, meta=model.meta)


@pytest.fixture(scope="session")
def dense_view():
    return _dense_view


@pytest.fixture()
def rng():
    return np.random.default_rng(20260808)
