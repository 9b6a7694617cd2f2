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
from oulab.models import build_model
from oulab.reporting import RunReport


def _cert(scale, rate, power):
    return DecayCertificate("cameron-martin", scale, rate, power, 0.0, ((0.0, 1.0),))


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
    assert ineq.log_sobolev_constant(_cert(1.0, 1.0, 0.0)) == pytest.approx(0.5, abs=1e-15)


def test_constant_quarter_power_case():
    # (2 eta)^{2a-1} Gamma(1-2a) at a=1/4: 2^{-1/2} Gamma(1/2) = sqrt(pi/2)
    expected = math.sqrt(math.pi / 2.0)
    assert expected == pytest.approx(1.2533141373155003, abs=1e-15)
    assert ineq.log_sobolev_constant(_cert(1.0, 1.0, 0.25)) == pytest.approx(expected, abs=1e-12)


def test_constant_near_half_power_finite():
    val = ineq.log_sobolev_constant(_cert(1.0, 1.0, 0.49))
    assert val == pytest.approx((2.0) ** (-0.02) * math.gamma(0.02), abs=1e-10)
    assert math.isfinite(val)


def test_constant_rejects_bad_certificates():
    with pytest.raises(ineq.BadCertificateError):
        ineq.log_sobolev_constant(_cert(1.0, 1.0, 0.5))
    with pytest.raises(ineq.BadCertificateError):
        ineq.log_sobolev_constant(_cert(1.0, 0.0, 0.0))
    with pytest.raises(ineq.BadCertificateError):
        ineq.log_sobolev_constant(
            DecayCertificate("operator", 1.0, 1.0, 0.0, 0.0, ((0.0, 1.0),)))


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


def test_sharpness_at_curve_no_violation(dc8, dc_kappa, dc_system):
    fam = ineq.capped_exponential_family(8)
    rows = ineq.sharpness_probe(dc8, 0.0, math.log(2.0), 2.0, (3.0,), fam,
                                dc_kappa, system=dc_system)
    assert all(r.ratio <= 1.0 + 3.0 * r.ratio_err for r in rows)


def test_sharpness_constant_probe_ratio_one(dc8, dc_kappa, dc_system):
    const = CylindricalFunction(profile=lambda u: np.full(u.shape[:-1], 1.5),
                                directions=np.eye(8)[:1], label="const")
    rows = ineq.sharpness_probe(dc8, 0.0, math.log(2.0), 2.0, (2.0, 4.5), [const],
                                dc_kappa, system=dc_system)
    for r in rows:
        assert r.ratio == pytest.approx(1.0, abs=1e-12)


def test_sharpness_beyond_true_threshold(dc8, dc_kappa, dc_system):
    # the model's genuine contraction threshold at q=2, gap ln 2 sits at
    # p = 1 + e^{2 ln 2} = 5: probes below it stay under 1, probes past it
    # must exhibit violations
    fam = ineq.capped_exponential_family(8)
    rows = ineq.sharpness_probe(dc8, 0.0, math.log(2.0), 2.0, (4.5, 6.0), fam,
                                dc_kappa, system=dc_system)
    below = [r for r in rows if r.p == 4.5]
    beyond = [r for r in rows if r.p == 6.0]
    assert all(not r.violates for r in below)
    assert any(r.violates for r in beyond)
    assert max(r.ratio for r in beyond) > 1.4


def test_sharpness_exponential_under_a_mean_is_lognormal(dc8, dc_kappa, dc_system):
    # exp(u_1) under N(c e_1, 1/2): the propagated observable is
    # exp(e^{-tau} u_1 + v_in / 2), so both norms are lognormal moments
    c, tau, p, q = 1.0, math.log(2.0), 3.0, 2.0
    shifted = meas.point_shifted_system(dc_system, lambda t: c * np.eye(8)[0])
    phi = CylindricalFunction(profile=lambda u: np.exp(u[..., 0]),
                              directions=np.eye(8)[:1], label="exp")
    (row,) = ineq.sharpness_probe(dc8, 0.0, tau, q, (p,), [phi], dc_kappa, system=shifted)
    v_in, v_out, v_end = (1.0 - math.exp(-2.0 * tau)) / 2.0, math.exp(-2.0 * tau) / 2.0, 0.5
    expected = math.exp(c * (math.exp(-tau) - 1.0) + v_in / 2.0 + (p * v_out - q * v_end) / 2.0)
    assert row.ratio == pytest.approx(expected, rel=1e-12)


# norm checks take trig polynomials only, so "trig" is the one observable kind
@pytest.mark.parametrize("kind", ["trig"])
def test_hyper_exponent_sequence_matches_single_exponents(dc8, dc_kappa, dc_system, kind):
    p_values = (2.0, 2.5, 3.0, 2.0)
    phi = TrigPolynomial.constant(8, 2.0) + 0.5 * TrigPolynomial.cosine(np.eye(8)[0])
    args = (dc8, 0.0, math.log(2.0), 2.0)
    batched = ineq.hypercontractivity_check(*args, p_values, phi, dc_kappa, count=5_000,
                                            seed=9, system=dc_system)
    single = [ineq.hypercontractivity_check(*args, p, phi, dc_kappa, count=5_000, seed=9,
                                            system=dc_system) for p in p_values]
    assert isinstance(batched, list) and len(batched) == len(p_values)
    assert [dataclasses.astuple(r) for r in batched] == \
        [dataclasses.astuple(r) for r in single]


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


CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))


def _exact_l2(phi, mu):
    """sqrt(sum_jk c_j conj(c_k) exp(-<S(h_j - h_k), h_j - h_k>/2)) under the
    zero-mean N(0, S)."""
    d = phi.freqs[:, None, :] - phi.freqs[None, :, :]
    forms = np.einsum("jki,il,jkl->jk", d, mu.cov.entries, d)
    return math.sqrt(float(np.sum(np.outer(phi.coeffs, phi.coeffs.conj())
                                  * np.exp(-0.5 * forms)).real))


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_hyper_quadrature_l2_norm_is_exact(path):
    cfg = ExperimentConfig.from_file(path)
    window = {} if cfg.window is None else {"window": cfg.window}
    model = build_model(cfg.model_name, {**cfg.model_params, **window})
    system = experiments._system(model, cfg)
    t = experiments.REF_T
    s = t - experiments.HYPER_GAP
    for phi in experiments._hyper_probes(model, cfg):
        for poly in (phi, propagate_trig(model, s, t, phi)):
            for tau in (s, t):
                mu = system(tau)
                (norm,) = ineq._quad_p_norms(poly, mu, [2.0], ineq.GH_NODES)
                assert norm == pytest.approx(_exact_l2(poly, mu), rel=1e-12, abs=0.0)


def test_hyper_quadrature_direction_count(dc8, dc_kappa, dc_system):
    t = math.log(2.0)
    const = TrigPolynomial.constant(8, 1.5)
    (rep,) = ineq.hyper_quadrature(dc8, 0.0, t, 2.0, [3.0], const, dc_kappa, system=dc_system)
    assert (rep.lhs, rep.rhs, rep.lhs_err, rep.rhs_err) == (1.5, 1.5, 0.0, 0.0)
    three = const + TrigPolynomial.cosine(np.eye(8)[0]) + TrigPolynomial.sine(np.eye(8)[1]) \
        + TrigPolynomial.cosine(np.eye(8)[0] + np.eye(8)[2])
    with pytest.raises(ValueError, match="at most 2 frequency directions"):
        ineq.hyper_quadrature(dc8, 0.0, t, 2.0, [3.0], three, dc_kappa, system=dc_system)


def test_hyper_quadrature_vs_mc_can_fail(monkeypatch, tmp_path):
    cfg = ExperimentConfig(mc_samples=100_000, sharpness_p_values=(4.5,))
    model = build_model(cfg.model_name, None)
    real = ineq.hyper_quadrature

    def inflated(*args, **kwargs):
        return [dataclasses.replace(r, lhs=r.lhs * (1.0 + 1e-2)) for r in real(*args, **kwargs)]

    checks = {}
    for patch in (False, True):
        if patch:
            monkeypatch.setattr(ineq, "hyper_quadrature", inflated)
        report = RunReport(cfg.to_text(), "test")
        experiments.run_hyper(model, cfg, report, tmp_path)
        checks[patch] = {c["name"]: c["status"] for c in report.checks}
    assert checks[False]["hyper.quadrature-vs-mc"] == "PASS"
    assert checks[True]["hyper.quadrature-vs-mc"] == "FAIL"
