import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from oulab import covariance as cov
from oulab import evolution as evo
from oulab import experiments
from oulab.config import ExperimentConfig
from oulab.models import (ModeCoefficients, OperatorFamily, build_model, make_diagonal_constant,
                          make_parabolic_1d)
from oulab.reporting import RunReport
from oulab.rng import seed_stream


def test_evolve_at_equal_times_is_identity(dc8, rational4, parabolic5, scalar4):
    for model in (dc8, rational4, parabolic5, scalar4):
        np.testing.assert_allclose(evo.propagator_matrix(model, 0.5, 0.5),
                                   np.eye(model.dim), atol=1e-14)


def test_constant_model_closed_form(dc8):
    u = evo.propagator_matrix(dc8, 0.0, 1.0)
    assert dc8.kind == "diagonal"
    np.testing.assert_allclose(u, math.exp(-1.0) * np.eye(8), atol=1e-14)
    assert u[0, 0] == pytest.approx(0.36787944117144233, abs=1e-15)


def test_rational_mode_one_arctangent(rational4):
    # integral of -2/(1+u^2) over [0, 1] is -2 arctan 1 = -pi/2
    expected = math.exp(-math.pi / 2.0)
    assert expected == pytest.approx(0.20787957635076193, abs=1e-15)
    assert evo.propagator_matrix(rational4, 0.0, 1.0)[0, 0] == pytest.approx(expected, abs=1e-12)


def test_chain_law_all_kinds(dc8, rational4, scalar4, parabolic5, nonunique3):
    gen = seed_stream(5, "chain-test")
    for model in (dc8, rational4, scalar4, parabolic5, nonunique3):
        for _ in range(5):
            base = -2.0 + 3.0 * gen.random()
            d1, d2 = np.sort(gen.random(2)) * 2.0
            s, r, t = base, base + d1, base + d2
            whole = evo.propagator_matrix(model, s, t)
            parts = evo.propagator_matrix(model, r, t) @ evo.propagator_matrix(model, s, r)
            denom = max(1.0, np.linalg.norm(whole, 2))
            assert np.linalg.norm(whole - parts, 2) <= 1e-8 * denom


@settings(max_examples=20, deadline=None)
@given(cell=st.integers(-3, 3), before=st.floats(0.05, 1.5), after=st.floats(0.05, 1.5),
       split=st.floats(0.05, 0.95))
# a single-cell parabolic span whose K was 2.2e-12 off with a forward solve
@example(cell=0, before=0.28125, after=0.8828125, split=0.28125)
def test_flow_laws_across_grid_cells(scalar4, rational4, parabolic5, parabolic5_varying,
                                     nonunique3, cell, before, after, split):
    # s < cell < t, so a dense span is composed from more than one cell;
    # diagonal models are read the way report-all reads them
    s, t = cell - before, cell + after
    r = s + split * (t - s)

    def u_k(model, lo, hi):
        if model.kind == "dense":
            return evo.flow(model, lo, hi)
        return evo.propagator_matrix(model, lo, hi), cov.accumulated(model, lo, hi).matrix

    for model in (parabolic5, parabolic5_varying, scalar4, rational4, nonunique3):
        u_ts, k_ts = u_k(model, s, t)
        u_tr, k_tr = u_k(model, r, t)
        u_rs, k_rs = u_k(model, s, r)
        assert np.abs(u_ts - u_tr @ u_rs).max() <= 1e-12
        split_k = u_tr @ k_rs @ u_tr.T + k_tr
        assert np.abs(k_ts - split_k).max() <= 1e-10 * np.abs(k_ts).max()


def test_finite_difference_generator_first_order(parabolic5):
    s, t = 0.0, 0.6
    u = evo.propagator_matrix(parabolic5, s, t)
    a = parabolic5.drift_matrix(t)
    errs = []
    for h in (1e-3, 1e-4):
        fd = (evo.propagator_matrix(parabolic5, s, t + h) - u) / h
        errs.append(np.abs(fd - a @ u).max())
    assert errs[1] < errs[0] / 5.0  # one-sided difference: O(h)


def test_adjoint_is_transpose_for_diagonal(dc8):
    u = evo.propagator_matrix(dc8, 0.0, 2.0)
    np.testing.assert_allclose(u.T, u, atol=1e-15)


def test_adjoint_against_dual_integration(parabolic5, parabolic5_varying):
    s, t = 0.1, 1.2
    for model in (parabolic5, parabolic5_varying):
        direct = evo.propagator_matrix(model, s, t).T
        dual = evo.adjoint_by_integration(model, s, t)
        assert np.abs(direct - dual).max() <= 1e-8


def test_adjoint_by_integration_bypasses_the_flow_memo():
    model = build_model("parabolic-1d", {})
    dual = evo.adjoint_by_integration(model, 0.1, 1.2)
    assert "flow" not in model.memo
    assert np.abs(evo.propagator_matrix(model, 0.1, 1.2).T - dual).max() <= 1e-12


@pytest.mark.parametrize("s, t", [(-0.2, 0.2), (-1.0, 0.4), (-8.0, 0.0)])
def test_dense_propagator_against_expm(parabolic5, s, t):
    # the oracle's formulas: U = e^{A h}, K = X - U X U^T with A X + X A^T = -I
    from scipy.linalg import expm, solve_continuous_lyapunov

    a = parabolic5.drift_matrix(0.0)
    ref = expm(a * (t - s))
    x = solve_continuous_lyapunov(a, -np.eye(5))
    u, k = evo.flow(parabolic5, s, t)
    assert evo.propagator_matrix(parabolic5, s, t) is u
    assert np.abs(u - ref).max() <= 1e-12
    assert np.abs(k - (x - ref @ x @ ref.T)).max() <= 1e-12 * np.abs(k).max()


def test_spectral_flow_against_cell_flow():
    # the catalog drift given as numbers takes the closed form, given as
    # callables the DOP853 cells; U is a contraction whose error DOP853
    # controls in absolute terms, so it is compared on the scale of I
    exact = make_parabolic_1d(5, a=1.0, a0=-1.0)
    cells = make_parabolic_1d(5, a=lambda t, x: 1.0, a0=lambda t, x: -1.0)
    assert exact.autonomous and not cells.autonomous
    gen = seed_stream(9, "spectral-vs-cells")
    spans = [(-8.0, 0.0)] + [tuple(np.sort(gen.uniform(-3.0, 3.0, 2))) for _ in range(12)]
    assert sum(math.ceil(t) - math.floor(s) > 1 for s, t in spans) >= 6
    for s, t in spans:
        u_exact, k_exact = evo.flow(exact, s, t)
        u_cells, k_cells = evo.flow(cells, s, t)
        assert np.abs(u_exact - u_cells).max() <= 1e-12 * max(1.0, np.abs(u_cells).max())
        assert np.abs(k_exact - k_cells).max() <= 1e-12 * np.abs(k_cells).max()
    assert "spectral" in exact.memo and "spectral" not in cells.memo


def test_spectral_flow_at_equal_times_and_symmetry_guard():
    model = make_parabolic_1d(4, a=2.0, a0=0.0)
    u, k = evo.flow(model, 0.3, 0.3)
    assert np.array_equal(u, np.eye(4)) and np.array_equal(k, np.zeros((4, 4)))
    skew = OperatorFamily(
        name="skew", dim=2, window=(-5.0, 5.0), kind="dense", autonomous=True,
        drift_fn=lambda t: np.array([[-1.0, 1.0], [0.0, -1.0]]), noise_fn=lambda t: np.eye(2),
    )
    with pytest.raises(ValueError, match="non-symmetric"):
        evo.flow(skew, 0.0, 1.0)


def test_flow_memo_is_read_only(parabolic5):
    u, k = evo.flow(parabolic5, -0.5, 0.5)
    assert evo.propagator_matrix(parabolic5, -0.5, 0.5) is u
    for arr in (u, k):
        with pytest.raises(ValueError):
            arr[0, 0] = 0.0


def test_non_finite_drift_raises_diverged():
    broken = OperatorFamily(
        name="broken", dim=2, window=(-5.0, 5.0), kind="dense",
        drift_fn=lambda t: -np.eye(2) if t < 0.3 else np.full((2, 2), np.nan),
        noise_fn=lambda t: np.eye(2),
    )
    with pytest.raises(evo.IntegratorDivergedError, match="step size"):
        evo.propagator_matrix(broken, 0.0, 0.6)
    with pytest.raises(evo.IntegratorDivergedError, match="step size"):
        evo.adjoint_by_integration(broken, 0.0, 0.6)


def test_adjoint_identity_at_equal_times(parabolic5):
    np.testing.assert_allclose(evo.propagator_matrix(parabolic5, 0.3, 0.3).T,
                               np.eye(5), atol=1e-15)


def _grid_pairs():
    return [(s, t) for s in np.linspace(-2.0, 2.0, 5) for t in np.linspace(-1.5, 3.0, 5)
            if t > s + 0.05]


def test_fit_decay_constant_model_exact(dc8):
    cert = evo.fit_decay(dc8, _grid_pairs(), mode="cameron-martin")
    assert cert.scale == pytest.approx(1.0, abs=1e-6)
    assert cert.rate == pytest.approx(1.0, abs=1e-6)
    assert cert.power == 0.0
    assert cert.residual < 1e-6


def test_fit_decay_operator_mode(dc8):
    cert = evo.fit_decay(dc8, _grid_pairs(), mode="operator")
    assert cert.mode == "operator"
    assert cert.rate == pytest.approx(1.0, abs=1e-6)
    d = cert.as_dict()
    assert "M" in d and "zeta" in d and "alpha" not in d


def test_fit_decay_single_pair_interpolates(dc8):
    cert = evo.fit_decay(dc8, [(0.0, 1.0)], mode="operator")
    assert cert.residual == 0.0
    assert cert.bound(0.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)


@pytest.mark.parametrize("pairs", [[(0.0, 1.0), (1.0, 2.0)], [(0.1, 0.4), (0.2, 0.5)]])
def test_fit_decay_one_distinct_gap(pairs):
    # one gap fixes no slope (the second grid's gaps differ by rounding):
    # a line fit warned and returned rate 0.5 where the exact rate is 1
    model = make_diagonal_constant(2, -1.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = evo.fit_decay(model, pairs, mode="operator")
    assert cert.rate == pytest.approx(1.0, rel=1e-12)
    assert cert.scale == pytest.approx(1.0, rel=1e-12)
    for s, t in pairs:
        assert evo.measured_norm(model, s, t, "operator") <= cert.bound(s, t)


def test_certificate_majorizes_every_sample(rational4):
    pairs = _grid_pairs()
    cert = evo.fit_decay(rational4, pairs, mode="operator")
    for s, t in pairs:
        measured = evo.measured_norm(rational4, s, t, "operator")
        assert measured <= cert.bound(s, t) * (1.0 + cert.slack)


def test_fit_decay_rejects_zero_norms():
    silent = make_diagonal_constant(2, -1.0, 0.0)  # zero diffusion: zero range norm
    with pytest.raises(evo.FitFailedError):
        evo.fit_decay(silent, [(0.0, 1.0), (0.0, 2.0)], mode="cameron-martin")


def test_fit_decay_rejects_degenerate_pairs(dc8):
    with pytest.raises(ValueError):
        evo.fit_decay(dc8, [(0.0, 0.0)], mode="operator")


def _counting_norms(monkeypatch):
    calls = []
    real = evo.measured_norm

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(evo, "measured_norm", counted)
    return calls


def test_fit_decay_keeps_a_fitted_certificate(monkeypatch):
    model = make_diagonal_constant(3, -1.0, 1.0)
    pairs = [(0.0, 1.0), (0.0, 2.0), (1.0, 2.5)]
    first = evo.fit_decay(model, pairs, mode="cameron-martin")
    calls = _counting_norms(monkeypatch)
    assert evo.fit_decay(model, [list(p) for p in pairs], mode="cameron-martin") is first
    assert calls == []
    assert evo.fit_decay(model, pairs, mode="operator").mode == "operator"
    assert len(calls) == len(pairs)  # another mode is another certificate


def test_fit_decay_keeps_no_failed_fit(monkeypatch):
    silent = make_diagonal_constant(2, -1.0, 0.0)
    pairs = [(0.0, 1.0), (0.0, 2.0)]
    with pytest.raises(evo.FitFailedError):
        evo.fit_decay(silent, pairs, mode="cameron-martin")
    calls = _counting_norms(monkeypatch)
    with pytest.raises(evo.FitFailedError):
        evo.fit_decay(silent, pairs, mode="cameron-martin")
    assert len(calls) == len(pairs)


def test_range_norm_matches_operator_norm_for_identity_noise(parabolic5):
    # B = I makes the range metric the ambient one
    s, t = 0.0, 0.5
    assert evo.cm_operator_norm(parabolic5, s, t) == pytest.approx(
        evo.measured_norm(parabolic5, s, t, "operator"), rel=1e-9)


@pytest.mark.parametrize("s, t", [(-1.0, 0.5), (0.0, 1.25), (-2.0, 2.25)])
def test_range_norm_with_non_scalar_noise(rational4, s, t):
    # diagonal U and B: the range norm is max_k |U_kk| |b_k(s)| / |b_k(t)|
    b = lambda r: np.array([float(m.diffusion(r)) for m in rational4.modes])
    u = np.diag(evo.propagator_matrix(rational4, s, t))
    expected = float(np.max(np.abs(u) * np.abs(b(s)) / np.abs(b(t))))
    assert evo.cm_operator_norm(rational4, s, t) == pytest.approx(expected, rel=1e-12)


def test_range_norm_drops_the_noise_kernel():
    # the noiseless third mode decays slowest; on the kernel of R_t the range
    # inverse is 0, not 1/0, so the norm is the max over the two noisy modes
    coeffs = ((-1.0, 2.0), (-2.0, 0.5), (-0.1, 0.0))
    modes = tuple(ModeCoefficients(drift=lambda t, a=a: a, diffusion=lambda t, b=b: b,
                                   drift_antideriv=lambda t, a=a: a * t) for a, b in coeffs)
    model = OperatorFamily(name="singular-noise", dim=3, window=(-5.0, 5.0),
                           kind="diagonal", modes=modes)
    assert evo.cm_operator_norm(model, 0.0, 1.5) == pytest.approx(math.exp(-1.5), rel=1e-12)


def test_range_norm_rejects_a_drift_that_leaves_the_noise_range():
    # noise on the first node only: the Laplacian carries it to the second
    # node, outside the range of R_t
    noise = np.diag([1.0, 0.0, 0.0, 0.0, 0.0])
    model = make_parabolic_1d(5, a=1.0, a0=-1.0, window=(-2.0, 2.0), noise=lambda t: noise)
    with pytest.raises(evo.RangeIncompatibleError):
        evo.cm_operator_norm(model, 0.0, 0.5)


def _run_evolve_with_range_fit(monkeypatch, tmp_path, model, exc):
    real_fit = evo.fit_decay

    def fit(model, pairs, mode="operator"):
        if mode == "cameron-martin":
            raise exc
        return real_fit(model, pairs, mode)

    monkeypatch.setattr(evo, "fit_decay", fit)
    cfg = ExperimentConfig(triple_count=5, s_values=(-1.0, 0.0), t_values=(0.5, 1.0))
    report = RunReport(cfg.to_text(), "test")
    experiments.run_evolve(model, cfg, report, tmp_path)
    return report


@pytest.mark.parametrize("exc", [evo.FitFailedError("zero norm"),
                                 evo.RangeIncompatibleError("range not carried")])
def test_run_evolve_records_a_missing_range_certificate(monkeypatch, tmp_path, dc4, exc):
    report = _run_evolve_with_range_fit(monkeypatch, tmp_path, dc4, exc)
    status = {c["name"]: c["status"] for c in report.checks}
    assert status["evolve.decay-certificates"] == "PASS"
    assert str(exc) in (tmp_path / "decay_certificates.json").read_text()


def test_run_evolve_does_not_swallow_unrelated_errors(monkeypatch, tmp_path, dc4):
    with pytest.raises(ZeroDivisionError):
        _run_evolve_with_range_fit(monkeypatch, tmp_path, dc4, ZeroDivisionError("bug"))
