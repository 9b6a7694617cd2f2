"""Peak memory of the Monte Carlo layers, in units of one (count, dim)
float array.

Each layer keeps only what its checks read: a sample is one such array, an
SPDE ensemble one array of end states plus the snapshots of a few paths,
and the norm and entropy cross-checks drop a sample once its observable is
evaluated.  The peaks are measured with tracemalloc, which sees numpy's
allocations, after a warm-up call has filled the model's caches.
"""

import math
import tracemalloc

import numpy as np
import pytest

from oulab import inequalities as ineq
from oulab import measures as meas
from oulab import spde
from oulab.mehler import TrigPolynomial

COUNT = 20_000


def _peak_units(model, fn) -> float:
    fn(500)  # warm the caches
    tracemalloc.start()
    try:
        fn(COUNT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (COUNT * model.dim * 8)


@pytest.fixture(scope="module")
def system(dc8):
    return meas.gaussian_system(dc8)


def test_spde_ensemble_does_not_scale_with_snapshots(dc8):
    x0 = np.eye(8)[0]
    units = _peak_units(dc8, lambda n: spde.simulate(dc8, 0.0, 1.0, x0, step=0.05, count=n,
                                                     seed=3, snapshots=5))
    assert units <= 4.0


def test_sample_costs_one_array(dc8, system):
    units = _peak_units(dc8, lambda n: meas.sample(system(0.0), n, seed=3))
    assert units <= 2.0


def test_hyper_monte_carlo_holds_one_sample(dc8, system):
    phi = (TrigPolynomial.constant(8, 2.0) + 0.5 * TrigPolynomial.cosine(np.eye(8)[0])
           + 0.3 * TrigPolynomial.sine(np.eye(8)[1]))
    units = _peak_units(dc8, lambda n: ineq.hypercontractivity_check(
        dc8, -math.log(2.0), 0.0, 2.0, [2.0, 3.0], phi, 0.5, n, 3, system=system))
    assert units <= 2.5


def test_entropy_gap_mc_keeps_the_coordinates_only(dc8, system):
    phi = ineq.default_entropy_probes(8)[-1]  # two directions
    units = _peak_units(dc8, lambda n: ineq.entropy_gap(
        dc8, 0.0, phi, 2.0, 0.5, system=system, method="mc", count=n, seed=3))
    assert units <= 2.0
