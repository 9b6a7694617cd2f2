import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from oulab import experiments
from oulab import inequalities as ineq
from oulab import measures as meas
from oulab.config import ExperimentConfig
from oulab.evolution import DecayCertificate, fit_decay
from oulab.mehler import CylindricalFunction, TrigPolynomial, propagate_trig
from oulab.models import build_model, make_parabolic_1d
from oulab.reporting import RunReport


def _cert(scale, rate):
    return DecayCertificate("cameron-martin", scale, rate, 0.0, ((0.0, 1.0),))


def _grid_pairs():
    return [(s, t) for s in np.linspace(-2.0, 2.0, 5) for t in np.linspace(-1.5, 3.0, 5)
            if t > s + 0.05]


@pytest.fixture(scope="module")
def dc_kappa(dc8):
    return ineq.log_sobolev_constant(fit_decay(dc8, _grid_pairs(), mode="cameron-martin"))


@pytest.fixture(scope="module")
def dc_system(dc8):
    return meas.gaussian_system(dc8, tol_tail=1e-12)


def test_constant_no_power_case():
    assert ineq.log_sobolev_constant(_cert(1.0, 1.0)) == pytest.approx(0.5, abs=1e-15)


def test_constant_rejects_bad_certificates():
    with pytest.raises(ineq.BadCertificateError):
        ineq.log_sobolev_constant(_cert(1.0, 0.0))
    with pytest.raises(ineq.BadCertificateError):
        ineq.log_sobolev_constant(
            DecayCertificate("operator", 1.0, 1.0, 0.0, ((0.0, 1.0),)))


def test_constant_model_certificate_value(dc_kappa):
    assert abs(dc_kappa - 0.5) <= 1e-4


def test_exponent_curve_arithmetic(dc_kappa):
    # q=2 over a gap of ln 2 with constant 1/2: (2-1) e^{ln 2} + 1 = 3
    assert ineq.exponent_curve(2.0, math.log(2.0), dc_kappa) == pytest.approx(3.0, abs=1e-3)
    assert ineq.exponent_curve(2.0, math.log(2.0), 0.5) == pytest.approx(3.0, abs=1e-12)


def test_exponent_curve_monotonicity():
    gaps = np.linspace(0.1, 3.0, 8)
    curve = [ineq.exponent_curve(2.0, g, 0.5) for g in gaps]
    assert all(b > a for a, b in zip(curve, curve[1:]))
    kappas = np.linspace(0.3, 2.0, 8)
    curve_k = [ineq.exponent_curve(2.0, 1.0, k) for k in kappas]
    assert all(b < a for a, b in zip(curve_k, curve_k[1:]))


def _cos_probe(dim):
    return CylindricalFunction(
        profile=lambda u: 2.0 + np.cos(u[..., 0]),
        gradient=lambda u: np.stack([-np.sin(u[..., 0])], axis=-1),
        directions=np.eye(dim)[:1], label="2+cos")


def test_entropy_gap_constant_observable(dc8, dc_kappa, dc_system):
    phi = CylindricalFunction(
        profile=lambda u: np.full(u.shape[:-1], 3.0),
        gradient=lambda u: np.zeros_like(u),
        directions=np.eye(8)[:1], label="const")
    rep = ineq.entropy_gap(dc8, 0.0, phi, 2.0, dc_kappa, system=dc_system)
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)
    assert rep.rhs == pytest.approx(0.0, abs=1e-15)
    assert rep.passed


def test_entropy_gap_cosine_quadrature(dc8, dc_kappa, dc_system):
    rep = ineq.entropy_gap(dc8, 0.0, _cos_probe(8), 2.0, dc_kappa, system=dc_system)
    assert rep.passed
    assert rep.slack >= 0.0


def test_entropy_gap_gaussian_bump_low_exponent(dc8, dc_kappa, dc_system):
    phi = CylindricalFunction(
        profile=lambda u: np.exp(-u[..., 0] ** 2 / 4),
        gradient=lambda u: np.stack([-(u[..., 0] / 2) * np.exp(-u[..., 0] ** 2 / 4)], axis=-1),
        directions=np.eye(8)[:1], label="bump")
    rep = ineq.entropy_gap(dc8, 0.0, phi, 1.5, dc_kappa, system=dc_system)
    assert rep.passed
    assert rep.slack >= 0.0


def test_entropy_gap_full_suite(dc8, dc_kappa, dc_system):
    for phi in ineq.default_entropy_probes(8):
        for p in (1.5, 2.0, 3.0):
            rep = ineq.entropy_gap(dc8, 0.0, phi, p, dc_kappa, system=dc_system)
            assert rep.passed, (phi.label, p, rep.slack)


def test_entropy_quadrature_matches_mc(dc8, dc_kappa, dc_system):
    phi = _cos_probe(8)
    quad = ineq.entropy_gap(dc8, 0.0, phi, 2.0, dc_kappa, system=dc_system)
    mc = ineq.entropy_gap(dc8, 0.0, phi, 2.0, dc_kappa, system=dc_system,
                          method="mc", count=100_000, seed=31)
    assert abs(quad.lhs - mc.lhs) <= 4.0 * max(mc.lhs_err, 1e-12)
    assert abs(quad.rhs - mc.rhs) <= 4.0 * max(mc.rhs_err, 1e-12)


@pytest.mark.parametrize("which", ["dc8", "parabolic5"])
def test_mc_entropy_error_is_the_spread_of_its_estimate(request, which):
    # the stated lhs error is the standard error of one summand, so it
    # matches the spread of lhs over independent draws
    model = request.getfixturevalue(which)
    system = meas.gaussian_system(model)
    for phi in ineq.default_entropy_probes(model.dim)[:3]:
        reps = [ineq.entropy_gap(model, 0.0, phi, 2.0, 0.5, system=system, method="mc",
                                 count=4000, seed=seed) for seed in range(40)]
        spread = np.std([r.lhs for r in reps], ddof=1) / np.mean([r.lhs_err for r in reps])
        assert 0.7 <= spread <= 1.4, (phi.label, spread)


def test_entropy_quadrature_matches_mc_under_a_mean(dc8, dc_kappa, dc_system):
    # the quadrature nodes must follow the measure's mean, as the samples do
    shifted = meas.point_shifted_system(dc_system, lambda t: 1.5 * np.eye(8)[0])
    phi = _cos_probe(8)
    quad = ineq.entropy_gap(dc8, 0.0, phi, 2.0, dc_kappa, system=shifted)
    mc = ineq.entropy_gap(dc8, 0.0, phi, 2.0, dc_kappa, system=shifted,
                          method="mc", count=100_000, seed=31)
    assert abs(quad.lhs - mc.lhs) <= 4.0 * (quad.lhs_err + mc.lhs_err)
    assert abs(quad.rhs - mc.rhs) <= 4.0 * (quad.rhs_err + mc.rhs_err)


def test_entropy_rejects_bad_exponent(dc8, dc_kappa, dc_system):
    with pytest.raises(ValueError):
        ineq.entropy_gap(dc8, 0.0, _cos_probe(8), 1.0, dc_kappa, system=dc_system)


def test_hyper_constant_observable_is_equality(dc8, dc_kappa, dc_system):
    one = TrigPolynomial.constant(8, 1.0)
    rep = ineq.hypercontractivity_check(dc8, 0.0, math.log(2.0), 2.0, 3.0, one,
                                        dc_kappa, count=2000, seed=3, system=dc_system)
    assert rep.lhs == pytest.approx(1.0, abs=1e-12)
    assert rep.rhs == pytest.approx(1.0, abs=1e-12)
    assert rep.passed


def test_hyper_at_curve_boundary(dc8, dc_kappa, dc_system):
    phi = TrigPolynomial.constant(8, 2.0) + TrigPolynomial.cosine(np.eye(8)[0])
    rep = ineq.hypercontractivity_check(dc8, 0.0, math.log(2.0), 2.0, 3.0, phi,
                                        dc_kappa, count=100_000, seed=5, system=dc_system)
    assert rep.p_max == pytest.approx(3.0, abs=1e-3)
    assert rep.passed


def test_hyper_fails_beyond_curve_precondition(dc8, dc_kappa, dc_system):
    phi = TrigPolynomial.constant(8, 2.0) + TrigPolynomial.cosine(np.eye(8)[0])
    rep = ineq.hypercontractivity_check(dc8, 0.0, math.log(2.0), 2.0, 3.5, phi,
                                        dc_kappa, count=2000, seed=5, system=dc_system)
    assert not rep.passed  # p beyond the certified curve is never asserted


def test_contraction_at_equal_exponents(dc8, dc_kappa, dc_system):
    gen = np.random.default_rng(7)
    for k in range(20):
        h = gen.standard_normal(8)
        phi = TrigPolynomial.constant(8, 2.0) + \
            float(gen.uniform(-1, 1)) * TrigPolynomial.cosine(h)
        rep = ineq.hypercontractivity_check(dc8, 0.0, math.log(2.0), 2.0, 2.0, phi,
                                            dc_kappa, count=20_000, seed=50 + k,
                                            system=dc_system)
        assert rep.passed, (k, rep.lhs, rep.rhs)


def test_hyper_lattice_both_models(dc8, dc_kappa, dc_system, rational4):
    # q in {1.5, 2, 3} with p placed at 0.5 / 0.9 / 1.0 of the certified
    # curve, on the closed-form model and on the anchored quadrature model
    rat_kappa = ineq.log_sobolev_constant(
        fit_decay(rational4, _grid_pairs(), mode="cameron-martin"))
    rat_system = meas.gaussian_system(rational4, anchor=-6.0)
    gap = math.log(2.0)
    cases = [(dc8, dc_kappa, dc_system, 8), (rational4, rat_kappa, rat_system, 4)]
    for model, kappa, system, dim in cases:
        phi = TrigPolynomial.constant(dim, 2.0) + TrigPolynomial.cosine(np.eye(dim)[0])
        for q in (1.5, 2.0, 3.0):
            p_max = ineq.exponent_curve(q, gap, kappa)
            for frac in (0.5, 0.9, 1.0):
                p = 1.0 + frac * (p_max - 1.0)
                rep = ineq.hypercontractivity_check(
                    model, -gap + 1.0, 1.0, q, p, phi, kappa,
                    count=20_000, seed=int(100 * q + 10 * frac), system=system)
                assert rep.passed, (model.name, q, frac, rep.lhs, rep.rhs)


def test_sharpness_at_curve_no_violation(dc8, dc_system):
    fam = ineq.capped_exponential_family(8)
    rows = ineq.sharpness_probe(dc8, 0.0, math.log(2.0), 2.0, (3.0,), fam, system=dc_system)
    assert all(r.ratio <= 1.0 + 3.0 * r.ratio_err for r in rows)


def test_sharpness_constant_probe_ratio_one(dc8, dc_system):
    const = CylindricalFunction(profile=lambda u: np.full(u.shape[:-1], 1.5),
                                directions=np.eye(8)[:1], label="const")
    rows = ineq.sharpness_probe(dc8, 0.0, math.log(2.0), 2.0, (2.0, 4.5), [const],
                                system=dc_system)
    for r in rows:
        assert r.ratio == pytest.approx(1.0, abs=1e-12)


def test_sharpness_beyond_true_threshold(dc8, dc_system):
    # the model's genuine contraction threshold at q=2, gap ln 2 sits at
    # p = 1 + e^{2 ln 2} = 5: probes below it stay under 1, probes past it
    # must exhibit violations
    fam = ineq.capped_exponential_family(8)
    rows = ineq.sharpness_probe(dc8, 0.0, math.log(2.0), 2.0, (4.5, 6.0), fam,
                                system=dc_system)
    below = [r for r in rows if r.p == 4.5]
    beyond = [r for r in rows if r.p == 6.0]
    assert all(not r.violates for r in below)
    assert any(r.violates for r in beyond)
    assert max(r.ratio for r in beyond) > 1.4


@pytest.mark.parametrize("which", ["dc8", "parabolic5"])
def test_sharpness_exponent_grid_equals_one_call_per_exponent(request, which):
    model = request.getfixturevalue(which)
    fam, system = ineq.capped_exponential_family(model.dim), meas.gaussian_system(model)
    args = (model, 0.0, math.log(2.0), 2.0)
    batched = ineq.sharpness_probe(*args, (4.5, 6.0), fam, system=system)
    single = [row for p in (4.5, 6.0)
              for row in ineq.sharpness_probe(*args, (p,), fam, system=system)]
    assert [dataclasses.astuple(r) for r in batched] == [dataclasses.astuple(r) for r in single]


@pytest.mark.parametrize("p_grid", [(3.0,), (4.5, 6.0), (2.0, 2.5, 3.0, 4.5, 6.0, 8.0)])
def test_sharpness_probe_takes_two_quadratures_per_observable(dc8, dc_system, monkeypatch,
                                                              p_grid):
    # one per node count, whatever the number of exponents
    original, calls = ineq._ratio_1d, []

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(ineq, "_ratio_1d", counted)
    fam = ineq.capped_exponential_family(8)
    rows = ineq.sharpness_probe(dc8, 0.0, math.log(2.0), 2.0, p_grid, fam, system=dc_system)
    assert len(rows) == len(p_grid) * len(fam)
    assert len(calls) == 2 * len(fam)


def test_sharpness_exponential_under_a_mean_is_lognormal(dc8, dc_system):
    # exp(u_1) under N(c e_1, 1/2): the propagated observable is
    # exp(e^{-tau} u_1 + v_in / 2), so both norms are lognormal moments
    c, tau, p, q = 1.0, math.log(2.0), 3.0, 2.0
    shifted = meas.point_shifted_system(dc_system, lambda t: c * np.eye(8)[0])
    phi = CylindricalFunction(profile=lambda u: np.exp(u[..., 0]),
                              directions=np.eye(8)[:1], label="exp")
    (row,) = ineq.sharpness_probe(dc8, 0.0, tau, q, (p,), [phi], system=shifted)
    v_in, v_out, v_end = (1.0 - math.exp(-2.0 * tau)) / 2.0, math.exp(-2.0 * tau) / 2.0, 0.5
    expected = math.exp(c * (math.exp(-tau) - 1.0) + v_in / 2.0 + (p * v_out - q * v_end) / 2.0)
    assert row.ratio == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("method", ["mc", "quadrature"])
def test_hyper_exponent_sequence_matches_single_exponents(dc8, dc_kappa, dc_system, method):
    p_values = (2.0, 2.5, 3.0, 2.0)
    phi = TrigPolynomial.constant(8, 2.0) + 0.5 * TrigPolynomial.cosine(np.eye(8)[0])
    args = (dc8, 0.0, math.log(2.0), 2.0)
    batched = ineq.hypercontractivity_check(*args, p_values, phi, dc_kappa, count=5_000,
                                            seed=9, system=dc_system, method=method)
    single = [ineq.hypercontractivity_check(*args, p, phi, dc_kappa, count=5_000, seed=9,
                                            system=dc_system, method=method) for p in p_values]
    assert isinstance(batched, list) and len(batched) == len(p_values)
    assert [dataclasses.astuple(r) for r in batched] == \
        [dataclasses.astuple(r) for r in single]


@pytest.mark.parametrize("check", ["entropy_gap", "hypercontractivity_check"])
def test_an_unknown_method_is_rejected_before_any_draw(monkeypatch, dc8, dc_kappa, dc_system,
                                                      check):
    drawn = []
    monkeypatch.setattr(ineq, "sample", lambda *args, **kwargs: drawn.append(None))
    if check == "entropy_gap":
        args = (dc8, 0.0, _cos_probe(8), 2.0, dc_kappa)
    else:
        args = (dc8, 0.0, math.log(2.0), 2.0, 3.0, TrigPolynomial.cosine(np.eye(8)[0]), dc_kappa)
    with pytest.raises(ValueError, match="unknown method 'simpson'"):
        getattr(ineq, check)(*args, system=dc_system, method="simpson", count=100, seed=1)
    assert drawn == []


def test_run_hyper_draws_once_per_probe(monkeypatch, tmp_path):
    cfg = ExperimentConfig(mc_samples=500, s_values=(-1.0, 0.0), t_values=(0.5, 1.0),
                           sharpness_p_values=(4.5,))
    model = build_model(cfg.model_name, None)
    calls = []
    real_sample = meas.sample

    def counting_sample(*args, **kwargs):
        calls.append(kwargs.get("label"))
        return real_sample(*args, **kwargs)

    monkeypatch.setattr(meas, "sample", counting_sample)
    monkeypatch.setattr(ineq, "sample", counting_sample)
    report = RunReport(cfg.to_text(), "test")
    experiments.run_hyper(model, cfg, report, tmp_path)
    assert sorted(set(calls)) == ["hyper-outer", "hyper-rhs"]
    assert len(calls) == 2 * 3  # the Monte Carlo cross-check probes
    # rows stay p-major, probe-minor
    rows = [line.split(",") for line in (tmp_path / "hyper.csv").read_text().splitlines()[2:]]
    p_values = list(cfg.hyper_p_values) + [experiments.HYPER_Q]
    assert [(float(r[3]), int(r[5])) for r in rows] == [(p, i) for p in p_values
                                                        for i in range(10)]


@pytest.mark.parametrize("which", ["dc8", "parabolic40"])
def test_monte_carlo_draws_count_times_k_normals(monkeypatch, dc8, which):
    # each sampled check draws the marginal law of its observable's k
    # coordinates, whatever the dimension of the model
    model = dc8 if which == "dc8" else make_parabolic_1d(40, 1.0, -1.0)
    system = meas.gaussian_system(model, anchor=-1.0)
    drawn, normals = [], []
    real_sample, real_normals = ineq.sample, meas.chunked_normals

    def counting_sample(mu, count, seed, label):
        drawn.append((label, mu.dim))
        return real_sample(mu, count, seed, label=label)

    def counting_normals(seed, label, count, dim):
        normals.append(count * dim)
        return real_normals(seed, label, count, dim)

    monkeypatch.setattr(ineq, "sample", counting_sample)
    monkeypatch.setattr(meas, "chunked_normals", counting_normals)
    e = np.eye(model.dim)
    phi = (TrigPolynomial.constant(model.dim, 2.0) + 0.5 * TrigPolynomial.cosine(e[0] + e[2])
           + 0.3 * TrigPolynomial.sine(e[0] + e[2]) + 0.2 * TrigPolynomial.cosine(e[1]))
    ineq.hypercontractivity_check(model, -0.5, 0.0, 2.0, [2.0, 3.0], phi, 0.5, count=700,
                                  seed=3, system=system)
    probes = ineq.default_entropy_probes(model.dim)
    for probe in (probes[0], probes[-1]):  # one and two directions
        ineq.entropy_gap(model, 0.0, probe, 2.0, 0.5, system=system, method="mc",
                         count=700, seed=3)
    # the constant term is a third, pinned direction of each polynomial
    assert drawn == [("hyper-outer", 3), ("hyper-rhs", 3), ("entropy-gap", 1),
                     ("entropy-gap", 2)]
    assert normals == [700 * k for _, k in drawn]


def test_run_logsob_reuses_the_loop_reports(monkeypatch, tmp_path):
    cfg = ExperimentConfig(mc_samples=500, s_values=(-1.0, 0.0), t_values=(0.5, 1.0))
    model = build_model(cfg.model_name, None)
    methods, drawn = [], []
    real_gap, real_sample = ineq.entropy_gap, ineq.sample

    def counting_gap(*args, **kwargs):
        methods.append(kwargs.get("method", "quadrature"))
        return real_gap(*args, **kwargs)

    def counting_sample(mu, count, seed, label):
        drawn.append((label, mu.dim))
        return real_sample(mu, count, seed, label=label)

    monkeypatch.setattr(ineq, "entropy_gap", counting_gap)
    monkeypatch.setattr(ineq, "sample", counting_sample)
    report = RunReport(cfg.to_text(), "test")
    experiments.run_logsob(model, cfg, report, tmp_path)
    cells = len(ineq.default_entropy_probes(model.dim)) * len(experiments.LOGSOB_P_VALUES)
    # the p = 2 quadrature reports of the cross-check come from the loop
    assert methods == ["quadrature"] * cells + ["mc"] * 3
    assert drawn == [("entropy-gap", 1)] * 3  # the first three probes read e_1
    assert [c["status"] for c in report.checks] == ["PASS", "PASS"]


CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))


def _exact_norm(phi, mu, p):
    """(E|phi|^p)^(1/p) for an even p under the zero-mean N(0, S): |phi|^2 is
    sum_jk c_j conj(c_k) e^{i<x, d>} with d = h_j - h_k, its power p/2 a sum
    of products of such terms, and each term's mean exp(-<S d, d>/2)."""
    pair = np.outer(phi.coeffs, phi.coeffs.conj()).ravel()
    diff = (phi.freqs[:, None, :] - phi.freqs[None, :, :]).reshape(-1, phi.dim)
    coeffs, d = pair, diff
    for _ in range(p // 2 - 1):
        coeffs = np.outer(coeffs, pair).ravel()
        d = (d[:, None, :] + diff[None, :, :]).reshape(-1, phi.dim)
    forms = np.einsum("ji,il,jl->j", d, mu.cov.entries, d)
    return float(np.sum(coeffs * np.exp(-0.5 * forms)).real) ** (1.0 / p)


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_hyper_check_quadrature_l2_norm_is_exact(path):
    # E|phi|^2 of every probe, propagated or not, and E|phi|^4 of the
    # propagated one, the only polynomial the battery takes a p > 2 norm of
    # (the raw probes' fourth powers oscillate faster than 64 nodes resolve:
    # on diag-constant their gap to the coarse rule reads 3.6e-5); at p = 4
    # the closed-form sum cancels to about 1e-13 on some probes
    cfg = ExperimentConfig.from_file(path)
    window = {} if cfg.window is None else {"window": cfg.window}
    model = build_model(cfg.model_name, {**cfg.model_params, **window})
    system = experiments._system(model, cfg)
    t = experiments.REF_T
    s = t - experiments.HYPER_GAP
    for phi in experiments._hyper_probes(model, cfg):
        for poly, exponents in ((phi, (2,)), (propagate_trig(model, s, t, phi), (2, 4))):
            for tau in (s, t):
                mu = system(tau)
                norms, _ = ineq._p_norms(poly, mu, exponents, "quadrature", 0, 0, "")
                for p, norm in zip(exponents, norms):
                    rel = 1e-12 if p == 2 else 1e-11
                    assert norm == pytest.approx(_exact_norm(poly, mu, p), rel=rel, abs=0.0)


def test_hyper_check_quadrature_direction_count(dc8, dc_kappa, dc_system):
    t = math.log(2.0)
    const = TrigPolynomial.constant(8, 1.5)
    (rep,) = ineq.hypercontractivity_check(dc8, 0.0, t, 2.0, [3.0], const, dc_kappa,
                                           system=dc_system, method="quadrature")
    assert (rep.lhs, rep.rhs, rep.lhs_err, rep.rhs_err) == (1.5, 1.5, 0.0, 0.0)
    three = const + TrigPolynomial.cosine(np.eye(8)[0]) + TrigPolynomial.sine(np.eye(8)[1]) \
        + TrigPolynomial.cosine(np.eye(8)[0] + np.eye(8)[2])
    with pytest.raises(ValueError, match="rank at most 2, got 3"):
        ineq.hypercontractivity_check(dc8, 0.0, t, 2.0, [3.0], three, dc_kappa,
                                      system=dc_system, method="quadrature")


def test_hyper_check_quadrature_vs_mc_can_fail(monkeypatch, tmp_path):
    cfg = ExperimentConfig(mc_samples=100_000, sharpness_p_values=(4.5,))
    model = build_model(cfg.model_name, None)
    real = ineq.hypercontractivity_check

    def inflated(*args, **kwargs):  # the quadrature side only
        reports = real(*args, **kwargs)
        if kwargs.get("method") != "quadrature":
            return reports
        return [dataclasses.replace(r, lhs=r.lhs * (1.0 + 1e-2)) for r in reports]

    checks = {}
    for patch in (False, True):
        if patch:
            monkeypatch.setattr(ineq, "hypercontractivity_check", inflated)
        report = RunReport(cfg.to_text(), "test")
        experiments.run_hyper(model, cfg, report, tmp_path)
        checks[patch] = {c["name"]: c["status"] for c in report.checks}
    assert checks[False]["hyper.quadrature-vs-mc"] == "PASS"
    assert checks[True]["hyper.quadrature-vs-mc"] == "FAIL"
