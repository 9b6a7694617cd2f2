import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import oulab
from oulab import cli, evolution, experiments, inequalities, measures, mehler, spde
from oulab import covariance as cov
from oulab.config import ConfigError, ExperimentConfig
from oulab.experiments import run_suite
from oulab.linalg import SymOperator
from oulab.models import OperatorFamily, build_model

NAN = float("nan")


def small_config(**over):
    base = ExperimentConfig(
        s_values=(-1.0, 0.0), t_values=(0.5, 1.0), triple_count=10,
        probe_count=8, mc_samples=4000, spde_step=0.02,
    )
    return dataclasses.replace(base, **over)


REPO = Path(__file__).resolve().parents[1]
SHIPPED = sorted(p.name for p in (REPO / "configs").glob("*.cfg"))


def test_config_roundtrip_lossless():
    cfg = small_config(model_params={"n": 4, "lam": -2.0}, window=(-30.0, 30.0))
    assert ExperimentConfig.from_text(cfg.to_text()) == cfg


def test_config_defaults_roundtrip():
    cfg = ExperimentConfig()
    assert ExperimentConfig.from_text(cfg.to_text()) == cfg


@pytest.mark.parametrize("name", sorted(p.name for p in (REPO / "configs").glob("*.cfg")))
def test_shipped_config_loads_and_roundtrips(name):
    cfg = ExperimentConfig.from_file(REPO / "configs" / name)
    assert ExperimentConfig.from_text(cfg.to_text()) == cfg


def test_config_rejects_empty_window():
    with pytest.raises(ConfigError):
        ExperimentConfig(window=(2.0, 1.0)).validate()


def test_config_rejects_garbage_numbers():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_text("[model]\nname = diag-constant\nn = lots\n")


def test_cli_invalid_config_exits_two(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[window]\nt_min = 5\nt_max = 1\n")
    assert cli.main(["evolve", str(path)]) == cli.EXIT_CONFIG_INVALID


def test_cli_window_with_one_bound_exits_two(tmp_path):
    # no fallback bound: the model's own t_min of -250 must not become -50
    path = tmp_path / "half.cfg"
    path.write_text("[model]\nname = nonunique-demo\n\n[window]\nt_max = 60\n")
    assert cli.main(["evolve", str(path)]) == cli.EXIT_CONFIG_INVALID


@pytest.mark.parametrize("model", [
    "name = diag-constant\nn = 0\n",      # a value the builder rejects
    "name = diag-constant\nbogus = 3\n",  # a parameter the model does not have
    "name = no-such-model\n",             # a model the catalog does not have
    "name = diag-constant\nlam = nan\n",  # NaN passes the builder's lam < 0 check
    "name = diag-constant\nn = 2.5\n",    # a count must be integral
    "name = parabolic-1d\nm = 2.5\n",
])
def test_cli_model_error_exits_two(tmp_path, capsys, model):
    path = tmp_path / "model.cfg"
    path.write_text(small_config().to_text().replace("name = diag-constant\n", model, 1))
    assert cli.main(["evolve", str(path), "--outdir", str(tmp_path / "o")]) \
        == cli.EXIT_CONFIG_INVALID
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_scalar_osc_without_decay_exits_two(tmp_path, capsys):
    path = tmp_path / "scalar.cfg"
    model = "name = scalar-osc\namp = 0.5\nn = 2\noffset = -0.5\n"
    path.write_text(small_config().to_text().replace("name = diag-constant\n", model, 1))
    assert cli.main(["report-all", str(path), "--outdir", str(tmp_path / "o")]) \
        == cli.EXIT_CONFIG_INVALID
    assert "offset + |amp|" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("old, new", [
    ("[mc]\n", "[mc]\nworkers = 4\n"),           # a removed knob
    ("[hyper]\n", "[hyper]\ngap = 0.5\n"),       # a knob now fixed in experiments
    ("s_values =", "s_value ="),                  # a misspelled key
    ("[run]\n", "[extra]\nseed = 1\n\n[run]\n"),  # an unknown section
    ("[mc]\n", "[mc]\nspde_paths = 2000\n"),   # merged into samples
    ("[probes]\n", "[probes]\nanchor = -6.0\n"),  # derived by experiments._system
    ("[run]\n", "[tolerances]\nfd = 1e-06\n\n[run]\n"),  # bounds are battery constants
])
def test_cli_unknown_key_exits_two(tmp_path, capsys, old, new):
    text = small_config().to_text()
    assert old in text
    path = tmp_path / "stale.cfg"
    path.write_text(text.replace(old, new, 1))
    assert cli.main(["evolve", str(path)]) == cli.EXIT_CONFIG_INVALID
    assert "unknown" in capsys.readouterr().err


@pytest.mark.parametrize("old, new", [
    ("sharpness_p = 4.5, 6.0", "sharpness_p ="),  # no sharpness exponent
    ("triple_span = 1.5", "triple_span = -1.0"),   # triples with t < s
    ("t_values = -0.8, -0.4, 0.0, 0.4", "t_values = -5.0"),  # no pair s < t
    # NaN fails every comparison, so each range check would let it through
    ("[grids]\n", "[window]\nt_min = nan\nt_max = 10.0\n\n[grids]\n"),
    ("s_values = -1.0,", "s_values = nan,"),
    ("spde_step = 0.005", "spde_step = inf"),
    ("samples = 20000", "samples = 1"),  # no standard error from one draw
    ("p_values = 2.0, 2.5, 3.0", "p_values = 0.0, 2.0"),  # no p-norm below p = 1
    ("sharpness_p = 4.5, 6.0", "sharpness_p = 0.5, -1.0"),
])
def test_cli_unusable_grid_exits_two_without_report(tmp_path, capsys, old, new):
    text = (REPO / "configs" / "parabolic_1d.cfg").read_text()
    assert old in text
    path = tmp_path / "bad.cfg"
    path.write_text(text.replace(old, new, 1))
    out = tmp_path / "o"
    assert cli.main(["report-all", str(path), "--outdir", str(out)]) == cli.EXIT_CONFIG_INVALID
    assert "config error:" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.fixture(scope="module")
def shipped_checks(tmp_path_factory):
    """The checks in report.json of report-all on a shipped config with
    small samples, run once per config and module."""
    runs = {}

    def checks(name):
        if name not in runs:
            cfg = dataclasses.replace(ExperimentConfig.from_file(REPO / "configs" / name),
                                      mc_samples=5000)
            out = tmp_path_factory.mktemp(name)
            run_suite("report-all", cfg, out)
            runs[name] = json.loads((out / "report.json").read_text())["checks"]
        return runs[name]

    return checks


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_config_report_all_passes_with_small_samples(shipped_checks, name):
    checks = shipped_checks(name)
    assert {c["status"] for c in checks} <= {"PASS", "REPORT"}, \
        [c for c in checks if c["status"] not in ("PASS", "REPORT")]
    # an asserted row is a finite (value, bound) record; evidence has neither
    for c in checks:
        asserted = c["status"] == "PASS"
        assert asserted == ("value" in c) == ("bound" in c), c
        assert not asserted or (np.isfinite([c["value"], c["bound"]]).all()
                                and c["value"] <= c["bound"]), c


@pytest.mark.parametrize("seed", [1234, 9001])
@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_mode_integrals_stay_inside_the_quadrature_limit(tmp_path, name, seed):
    # all modes of a span share one subdivision, which must converge within
    # quad's 400 parts: at the limit quad raises, an ERROR row
    cfg = dataclasses.replace(ExperimentConfig.from_file(REPO / "configs" / name),
                              seed=seed, mc_samples=2000)
    with warnings.catch_warnings(record=True) as warned:
        warnings.simplefilter("always")
        report = run_suite("report-all", cfg, tmp_path)
    assert [str(w.message) for w in warned if issubclass(w.category, RuntimeWarning)] == []
    assert [c["detail"] for c in report.checks if c["status"] == "ERROR"] == []


@pytest.mark.parametrize("name, label", [
    ("diag_constant.cfg", "gaussian(-inf)"),
    ("scalar_osc.cfg", "gaussian(-inf)"),
    ("parabolic_1d.cfg", "gaussian(-inf)"),
    ("diag_rational.cfg", "gaussian(anchor=-4)"),
    ("nonunique_demo.cfg", "gaussian(anchor=-200)"),
])
def test_shipped_system_is_certified_or_anchored(name, label):
    cfg = ExperimentConfig.from_file(REPO / "configs" / name)
    window = {} if cfg.window is None else {"window": cfg.window}
    model = build_model(cfg.model_name, {**cfg.model_params, **window})
    system = experiments._system(model, cfg)
    assert system.label == label
    if model.name == "nonunique-demo":
        assert system(0.0).cov is cov.accumulated(model, -200.0, 0.0)


def test_config_accepts_every_optional_key():
    cfg = small_config(model_params={"n": 3}, window=(-20.0, 20.0))
    assert ExperimentConfig.from_text(cfg.to_text()) == cfg


def test_cli_missing_config_exits_two(tmp_path):
    assert cli.main(["evolve", str(tmp_path / "nope.cfg")]) == cli.EXIT_CONFIG_INVALID


def test_cli_non_utf8_config_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(small_config().to_text().encode() + b"# \xff\n")
    with pytest.raises(ConfigError, match="not UTF-8"):
        ExperimentConfig.from_file(path)
    out = tmp_path / "out"
    assert cli.main(["evolve", str(path), "--outdir", str(out)]) == cli.EXIT_CONFIG_INVALID
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


def test_report_all_on_the_dense_view_of_diag_rational(tmp_path, monkeypatch, dense_view):
    # the same battery with the model's coefficients handed over as matrices:
    # the DOP853 cell flow in place of the closed forms gives every status of
    # the diagonal run, plus the adjoint cross-check only a dense model gets
    cfg = small_config(model_name="diag-rational")
    statuses = lambda report: {c["name"]: c["status"] for c in report.checks}
    diagonal = statuses(run_suite("report-all", cfg, tmp_path / "diagonal"))
    monkeypatch.setattr(experiments, "build_model", lambda name, params: dense_view(
        build_model(name, params)))
    dense = statuses(run_suite("report-all", cfg, tmp_path / "dense"))
    assert dense.pop("evolve.adjoint") == "PASS"
    assert dense == diagonal


def test_cli_evolve_pass(tmp_path, capsys):
    path = tmp_path / "dc.cfg"
    path.write_text(small_config().to_text())
    out = tmp_path / "out"
    assert cli.main(["evolve", str(path), "--outdir", str(out)]) == cli.EXIT_OK
    assert (out / "evolution_chain.csv").exists()
    report = json.loads((out / "report.json").read_text())
    names = [c["name"] for c in report["checks"]]
    assert "evolve.chain-law" in names
    assert "PASS" in capsys.readouterr().out


def test_cli_hyper_beyond_curve_exits_one(tmp_path):
    path = tmp_path / "fail.cfg"
    path.write_text(small_config(hyper_p_values=(4.0,), mc_samples=2000).to_text())
    assert cli.main(["hyper", str(path), "--outdir", str(tmp_path / "o")]) == cli.EXIT_CHECK_FAILED


@pytest.mark.parametrize("where", ["--outdir", "config"])
def test_cli_uncreatable_outdir_exits_two(tmp_path, capsys, where):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "sub"  # below a regular file: mkdir fails
    path = tmp_path / "dc.cfg"
    path.write_text(small_config(outdir=str(out) if where == "config" else "out").to_text())
    argv = ["evolve", str(path)] + (["--outdir", str(out)] if where == "--outdir" else [])
    assert cli.main(argv) == cli.EXIT_CONFIG_INVALID
    err = capsys.readouterr().err
    assert err.splitlines() == [f"config error: cannot create output directory {out}: "
                                "Not a directory"]


def test_report_lists_every_check_once(tmp_path):
    path = tmp_path / "dc.cfg"
    path.write_text(small_config().to_text())
    out = tmp_path / "out"
    cli.main(["covariance", str(path), "--outdir", str(out)])
    report = json.loads((out / "report.json").read_text())
    names = [c["name"] for c in report["checks"]]
    assert len(names) == len(set(names))
    assert all(c["status"] in ("PASS", "FAIL", "REPORT") for c in report["checks"])


def test_run_meta_times_each_subcommand_that_ran(tmp_path):
    from oulab.experiments import SUBCOMMANDS

    path = tmp_path / "dc.cfg"
    path.write_text(small_config().to_text())
    out = tmp_path / "all"
    cli.main(["report-all", str(path), "--outdir", str(out)])
    meta = json.loads((out / "run_meta.json").read_text())
    assert sorted(meta["subcommand_seconds"]) == sorted(SUBCOMMANDS)
    assert all(v >= 0.0 for v in meta["subcommand_seconds"].values())
    assert "subcommand_seconds" not in (out / "report.json").read_text()
    single = tmp_path / "single"
    cli.main(["covariance", str(path), "--outdir", str(single)])
    meta = json.loads((single / "run_meta.json").read_text())
    assert list(meta["subcommand_seconds"]) == ["covariance"]


def test_run_meta_records_the_peak_resident_set(tmp_path):
    path = tmp_path / "dc.cfg"
    path.write_text(small_config().to_text())
    cli.main(["covariance", str(path), "--outdir", str(tmp_path)])
    meta = json.loads((tmp_path / "run_meta.json").read_text())
    assert 1.0 < meta["peak_rss_mb"] < 1e5
    assert "peak_rss_mb" not in (tmp_path / "report.json").read_text()


def test_run_meta_peak_is_not_the_spawning_process_peak(tmp_path):
    ballast = np.ones(100 * 2**20 // 8)  # 100 MB, every page touched
    path = tmp_path / "dc.cfg"
    path.write_text(small_config().to_text())
    env = dict(os.environ, PYTHONPATH=str(Path(oulab.__file__).parents[1]))
    subprocess.run([sys.executable, "-m", "oulab.cli", "evolve", str(path),
                    "--outdir", str(tmp_path / "o")], capture_output=True, check=True, env=env)
    assert ballast.sum() == ballast.size
    meta = json.loads((tmp_path / "o" / "run_meta.json").read_text())
    assert 1.0 < meta["peak_rss_mb"] < 100.0


def test_numerical_error_is_an_error_row_and_the_other_subcommands_run(tmp_path):
    # the window holds every grid pair but ends before the SPDE's span [0, 1]
    cfg = ExperimentConfig.from_file(REPO / "configs" / "diag_constant.cfg")
    path = tmp_path / "narrow.cfg"
    path.write_text(dataclasses.replace(cfg, s_values=(-2.0, -1.5), t_values=(-1.0, 0.5),
                                        window=(-2.0, 0.8), mc_samples=2000).to_text())
    out = tmp_path / "out"
    assert cli.main(["report-all", str(path), "--outdir", str(out)]) == cli.EXIT_NUMERICAL_ERROR
    checks = {c["name"]: c for c in json.loads((out / "report.json").read_text())["checks"]}
    assert checks["spde.error"]["status"] == "ERROR"
    assert checks["spde.error"]["detail"].startswith("WindowExceededError: time 1.0")
    assert [name for name, c in checks.items() if c["status"] == "ERROR"] == ["spde.error"]
    assert checks["evolve.chain-law"]["status"] == "PASS"
    # the steady-state cutoff falls before -2, so the system is anchored instead
    assert checks["invariance.gaussian-system"]["status"] == "PASS"
    assert "anchor" in checks["invariance.gaussian-system"]["detail"]
    assert any(name.startswith("ergodic.") for name in checks)


def test_stencils_at_the_window_edge_use_the_first_pairs_that_fit(tmp_path):
    # the window starts at the grid's earliest s and ends at its latest t, so
    # the +-1e-4 stencils of the first pairs (s = -2) step out of it
    cfg = dataclasses.replace(ExperimentConfig.from_file(REPO / "configs" / "diag_constant.cfg"),
                              window=(-2.0, 3.0), mc_samples=2000)
    checks = {c["name"]: c for c in run_suite("report-all", cfg, tmp_path).checks}
    assert [name for name, c in checks.items() if c["status"] == "ERROR"] == []
    for name in ("covariance.derivatives", "diffcheck.formulas", "diffcheck.fd-order"):
        assert checks[name]["status"] == "PASS", checks[name]
    rows = (tmp_path / "covariance_derivatives.csv").read_text().splitlines()[2:]
    assert {tuple(r.split(",")[:2]) for r in rows} == {("-1.5", "-1.25")}
    rows = (tmp_path / "diffcheck.csv").read_text().splitlines()[2:]
    assert {tuple(r.split(",")[1:3]) for r in rows} == {("-1.5", "-1.25"), ("-1.5", "-0.75")}


@pytest.mark.parametrize("grids, window", [
    ({"s_values": (-2.0,)}, (-2.0, 3.0)),  # s - 1e-4 leaves the window
    ({"s_values": (0.0,), "t_values": (5e-5, 1e-4)}, (-50.0, 50.0)),  # t - s below 2e-4
], ids=["window-edge", "short-pairs"])
def test_stencils_that_fit_no_pair_are_report_rows(tmp_path, grids, window):
    cfg = dataclasses.replace(ExperimentConfig.from_file(REPO / "configs" / "diag_constant.cfg"),
                              window=window, **grids)
    checks = {c["name"]: c for sub in ("covariance", "diffcheck")
              for c in run_suite(sub, cfg, tmp_path).checks}
    assert [name for name, c in checks.items() if not name.startswith("covariance.")] == \
        ["diffcheck.formulas"]
    for name in ("covariance.derivatives", "diffcheck.formulas"):
        assert checks[name]["status"] == "REPORT"
        assert f"window {window}" in checks[name]["detail"]
    assert checks["covariance.flow-decomposition"]["status"] == "PASS"


def test_times_before_the_window_stay_error_rows(tmp_path):
    # the battery asks the system for s = -2, before the window starts at -1
    cfg = ExperimentConfig.from_file(REPO / "configs" / "diag_constant.cfg")
    path = tmp_path / "late.cfg"
    path.write_text(dataclasses.replace(cfg, window=(-1.0, 5.0), mc_samples=2000).to_text())
    out = tmp_path / "out"
    assert cli.main(["report-all", str(path), "--outdir", str(out)]) == cli.EXIT_NUMERICAL_ERROR
    checks = {c["name"]: c for c in json.loads((out / "report.json").read_text())["checks"]}
    assert checks["invariance.error"]["detail"].startswith("WindowExceededError: time -2")
    assert any(name.startswith("spde.") for name in checks)
    assert any(name.startswith("ergodic.") for name in checks)


def test_grids_outside_the_window_are_an_evolve_error_row(tmp_path):
    # the window starts after every grid time, so no seeded triple fits in it
    cfg = ExperimentConfig.from_file(REPO / "configs" / "diag_constant.cfg")
    path = tmp_path / "beyond.cfg"
    path.write_text(dataclasses.replace(cfg, window=(10.0, 20.0)).to_text())
    out = tmp_path / "out"
    assert cli.main(["evolve", str(path), "--outdir", str(out)]) == cli.EXIT_NUMERICAL_ERROR
    checks = {c["name"]: c for c in json.loads((out / "report.json").read_text())["checks"]}
    assert checks["evolve.error"]["detail"].startswith("WindowExceededError:")


def test_short_window_keeps_the_horizon_and_ergodic_checks(tmp_path):
    # every grid pair fits in [-3, 5], but none of the monotone-horizon start
    # times and only two of the ergodic start times do: the horizon check
    # reports, the ergodic check runs on what fits, and neither is an ERROR row
    cfg = dataclasses.replace(ExperimentConfig.from_file(REPO / "configs" / "diag_constant.cfg"),
                              window=(-3.0, 5.0))
    checks = {c["name"]: c for sub in ("covariance", "ergodic")
              for c in run_suite(sub, cfg, tmp_path).checks}
    assert "covariance.error" not in checks and "ergodic.error" not in checks
    assert checks["covariance.monotone-horizon"]["status"] == "REPORT"
    assert "(-3.0, 5.0)" in checks["covariance.monotone-horizon"]["detail"]
    rows = (tmp_path / "ergodic.csv").read_text().splitlines()[2:]
    assert [float(r.split(",")[0]) for r in rows] == [-1.0, -2.0]
    # a window holding one ergodic start time reports instead
    late = dataclasses.replace(cfg, window=(-1.5, 5.0))
    report = run_suite("ergodic", late, tmp_path / "late")
    assert [(c["name"], c["status"]) for c in report.checks] == \
        [("ergodic.long-time-limit", "REPORT")]
    assert "(-1.5, 5.0)" in report.checks[0]["detail"]


def test_short_window_keeps_the_adjoint_spans_inside(tmp_path):
    # every grid pair fits in [-1.5, 1.0], but unshrunk adjoint spans from the
    # earliest start s = -1 reach up to 1.5
    cfg = ExperimentConfig.from_file(REPO / "configs" / "parabolic_1d.cfg")
    path = tmp_path / "short.cfg"
    path.write_text(dataclasses.replace(cfg, window=(-1.5, 1.0)).to_text())
    out = tmp_path / "out"
    assert cli.main(["evolve", str(path), "--outdir", str(out)]) == cli.EXIT_OK
    checks = {c["name"]: c for c in json.loads((out / "report.json").read_text())["checks"]}
    assert checks["evolve.adjoint"]["status"] == "PASS"
    assert checks["evolve.decay-certificates"]["status"] == "PASS"
    # a window that ends at the earliest start still holds the seeded triples
    # and their adjoint spans; the certificate fit then asks for t = -0.8
    path.write_text(dataclasses.replace(cfg, window=(-1.5, -1.0)).to_text())
    assert cli.main(["evolve", str(path), "--outdir", str(out)]) == cli.EXIT_NUMERICAL_ERROR
    checks = {c["name"]: c for c in json.loads((out / "report.json").read_text())["checks"]}
    assert checks["evolve.error"]["detail"].startswith("WindowExceededError: time -0.8")
    assert checks["evolve.adjoint"]["status"] == "PASS"


@pytest.mark.parametrize("triple_count", [10, 3])
def test_adjoint_check_runs_on_the_outer_spans_of_the_first_triples(tmp_path, monkeypatch,
                                                                    triple_count):
    cfg = small_config(model_name="parabolic-1d", triple_count=triple_count)
    model = build_model(cfg.model_name, cfg.model_params)
    original, spans = evolution.adjoint_by_integration, []

    def recorded(model, s, t):
        spans.append((s, t))
        return original(model, s, t)

    monkeypatch.setattr(evolution, "adjoint_by_integration", recorded)
    checks = {c["name"]: c for c in run_suite("evolve", cfg, tmp_path).checks}
    triples = list(experiments._seeded_triples(model, cfg))
    assert spans == [(s, t) for s, _, t in triples[:5]]
    assert checks["evolve.adjoint"]["status"] == "PASS"
    assert f"on {min(5, triple_count)} spans" in checks["evolve.adjoint"]["detail"]


def test_horizon_check_without_the_tail_cutoff_has_no_inf_row(tmp_path):
    # [-9, 5] holds the horizons 2 and 4 before t = -1.75, not the tail
    # cutoff -13.956 of K(t, -inf)
    cfg = dataclasses.replace(ExperimentConfig.from_file(REPO / "configs" / "diag_constant.cfg"),
                              window=(-9.0, 5.0))
    checks = {c["name"]: c for c in run_suite("covariance", cfg, tmp_path).checks}
    assert "covariance.error" not in checks
    assert checks["covariance.monotone-horizon"]["status"] == "PASS"
    assert "no inf row" in checks["covariance.monotone-horizon"]["detail"]
    rows = (tmp_path / "covariance_horizon.csv").read_text().splitlines()[2:]
    assert [r.split(",")[0] for r in rows] == ["2", "4"]


def test_contraction_curve_scan_script_writes_its_table(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(oulab.__file__).parents[1]))
    subprocess.run([sys.executable, str(REPO / "scripts" / "contraction_curve_scan.py"),
                    "--gaps", "0.693", "--outdir", str(tmp_path)],
                   capture_output=True, check=True, env=env)
    rows = (tmp_path / "contraction_scan.csv").read_text().splitlines()
    assert len(rows) > 2  # schema line, header, data


def test_digest_check_lists_moved_values(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("artifact_digests",
                                                  REPO / "scripts" / "artifact_digests.py")
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    run = {"exit": 0, "files": {"report.json": "a"},
           "statuses": {"x.moved": "PASS", "x.same": "PASS", "x.flipped": "PASS"},
           "values": {"x.moved": 1e-15, "x.same": 0.5, "x.flipped": 0.1}}
    new = {"exit": 0, "files": {"report.json": "b"},
           "statuses": {"x.moved": "PASS", "x.same": "PASS", "x.flipped": "FAIL"},
           "values": {"x.moved": 2e-15, "x.same": 0.5, "x.flipped": 2.0}}
    assert digests.differences({"runs": {"m@1": run}}, {"runs": {"m@1": new}}) == [
        (2, "m@1/report.json"), (1, "m@1: x.flipped PASS -> FAIL"),
        (2, "m@1: x.moved PASS, value 1e-15 -> 2e-15")]

    def check(current):
        """Exit code of --check with ``run`` in the manifest and ``current`` run."""
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"versions": {}, "runs": {"m@1": run}}))
        monkeypatch.setattr(digests, "MANIFEST", manifest)
        monkeypatch.setattr(digests, "collect", lambda: {"versions": {}, "runs": {"m@1": current}})
        return digests.main(["--check"])

    # a digest or a value alone moves with the BLAS build; a status, an exit
    # code or a file set does not
    only_bytes = {**new, "statuses": run["statuses"]}
    assert [check(run), check(only_bytes), check(new)] == [0, 2, 1]
    assert check({**only_bytes, "exit": 1}) == 1
    assert check({**run, "files": {"report.json": "a", "extra.csv": "c"}}) == 1


def test_cli_lists_failed_checks_beside_errors(tmp_path, monkeypatch, capsys):
    from oulab.reporting import RunReport

    path = tmp_path / "dc.cfg"
    path.write_text(small_config().to_text())
    report = RunReport(config_text="", version="")
    report.add("hyper.curve", "FAIL")
    report.add("covariance.error", "ERROR", "NotPSDError: K not PSD")
    monkeypatch.setattr(cli, "run_suite", lambda *args: report)
    assert cli.main(["report-all", str(path), "--outdir", str(tmp_path)]) == cli.EXIT_NUMERICAL_ERROR
    err = capsys.readouterr().err
    assert "FAILED: hyper.curve" in err and "ERROR: covariance.error" in err


def test_json_encodes_numpy_values_and_complex_numbers(tmp_path):
    from oulab.reporting import write_json

    write_json(tmp_path / "x.json", {"a": np.arange(2), "b": np.float64(0.5), "c": 1 + 2j,
                                     "d": (np.int64(3), np.bool_(True)), "e": np.array([1j])})
    assert json.loads((tmp_path / "x.json").read_text()) == {
        "a": [0, 1], "b": 0.5, "c": {"re": 1.0, "im": 2.0}, "d": [3, True],
        "e": [{"re": 0.0, "im": 1.0}]}
    with pytest.raises(TypeError, match="object is not JSON serializable"):
        write_json(tmp_path / "y.json", {"a": object()})


def test_check_rows_pass_exactly_when_the_value_is_within_the_bound():
    from oulab.reporting import RunReport

    report = RunReport(config_text="", version="")
    report.check("a.at-bound", 1.0, 1.0, "context")
    report.check("a.beyond", 1.5, 1.0, "context")
    report.check("a.nan", NAN, 1.0, "context")
    assert [c["status"] for c in report.checks] == ["PASS", "FAIL", "FAIL"]
    assert report.checks[1] == {"name": "a.beyond", "status": "FAIL", "value": 1.5, "bound": 1.0,
                                "detail": "context; value 1.5, bound 1, margin -0.5"}


def _spoil_call(monkeypatch, owner, attr, at, spoil):
    """Replace the result of call number ``at`` (from 0) of owner.attr, of
    every call when ``at`` is None, or of every call whose arguments the
    function ``at`` accepts, by spoil(result)."""
    original, calls = getattr(owner, attr), []

    def spoiled(*args, **kwargs):
        out = original(*args, **kwargs)
        calls.append(None)
        hit = at(*args, **kwargs) if callable(at) else at is None or len(calls) == at + 1
        return spoil(out) if hit else out

    monkeypatch.setattr(owner, attr, spoiled)


def _first_lhs_nan(reports):
    return [dataclasses.replace(reports[0], lhs=NAN)] + list(reports[1:])


def _bump(out, by=1e-6):
    """out with its first entry raised by ``by``."""
    bumped = np.array(out, dtype=float)
    bumped.flat[0] += by
    return bumped


def _scaled(factor):
    return lambda out: SymOperator(out.entries * factor)


def _long_span(model, s, t):
    """The calls of the relative plants: spans (s, t) longer than 1."""
    return t - s > 1.0


# The planted-defect table: at least one row per asserted check of the
# shipped configs, (check, subcommand, model, defect, NaN plant or None).  A
# defect or plant (owner, attribute, call, spoil) spoils the result of call
# number ``call`` of owner.attribute (every call if None, the calls it
# accepts if a function), as _spoil_call does.  The defect must flip the
# check from PASS to FAIL; the NaN plant, in a check that reduces its
# residuals to one worst value, must FAIL it too.
PLANTS = [
    ("evolve.chain-law", "evolve", "diag-constant",
     (evolution, "propagator_matrix", 0, _bump),
     (experiments, "operator_norm", 0, lambda out: NAN)),
    ("evolve.adjoint", "evolve", "parabolic-1d",
     (evolution, "adjoint_by_integration", 0, _bump),
     (experiments, "operator_norm", 30, lambda out: NAN)),  # after 10 chain-law triples of 3
    ("covariance.flow-decomposition", "covariance", "diag-constant",
     (evolution, "propagator_matrix", 0, _bump),
     (evolution, "propagator_matrix", 0, lambda out: out * NAN)),
    # K(t + h, s) of the first derivative probe, after 4 grid pairs and 10
    # flow-decomposition triples of 3
    ("covariance.derivatives", "covariance", "diag-constant",
     (cov, "accumulated", 34, _scaled(1.0 + 1e-6)),
     (cov, "check_forward_derivative", 1,
      lambda out: dataclasses.replace(out, extrapolated=NAN))),
    # K of the longest horizon, after 4 grid pairs, 10 flow-decomposition
    # triples of 3 and 3 derivative probes of 9
    ("covariance.monotone-horizon", "covariance", "diag-constant",
     (cov, "accumulated", 64, _scaled(0.5)), None),
    ("invariance.gaussian-system", "invariance", "diag-constant",  # the first pair's probes
     (measures, "propagate_trig", 0, lambda out: 1.001 * out), None),
    # the shifted system's first pair, after the base system's 4 probe pairs
    ("invariance.shifted-system", "invariance", "nonunique-demo",
     (measures, "propagate_trig", 4, lambda out: 1.001 * out), None),
    ("diffcheck.formulas", "diffcheck", "diag-constant",
     (mehler, "transition_of_generator", 0, lambda out: out + 1e-3),
     (mehler, "check_differentiation", 1,
      lambda out: dataclasses.replace(out, start_extrapolated=NAN))),
    ("diffcheck.fd-order", "diffcheck", "diag-constant",  # an O(1) error does not halve
     (mehler, "generator_apply", None, lambda out: out + 1e-3), None),
    ("logsob.entropy-bound", "logsob", "diag-constant",  # kappa below kappa* = 0.25
     (inequalities, "log_sobolev_constant", 0, lambda kappa: 0.1 * kappa), None),
    ("logsob.quadrature-vs-mc", "logsob", "diag-constant",  # a sampled law half as wide
     (inequalities, "sample", 0, lambda out: 0.5 * out), None),
    ("hyper.norm-inequality", "hyper", "diag-constant",  # p_max 3 -> 2 on the first probe
     (inequalities, "exponent_curve", 0, lambda p_max: 1.0 + 0.5 * (p_max - 1.0)), None),
    ("hyper.quadrature-vs-mc", "hyper", "diag-constant",  # NaN: the second sampled probe
     (inequalities, "sample", 0, lambda out: 1.5 * out),
     (inequalities, "hypercontractivity_check", 11, _first_lhs_nan)),
    ("spde.terminal-law", "spde", "diag-constant",  # every step's noise 10% too strong
     (spde, "sqrt_psd", None, _scaled(1.1)), None),
    ("spde.observable-consistency", "spde", "diag-constant",
     (mehler, "apply_exact", 0, lambda out: out + 0.1), None),
    ("ergodic.long-time-limit", "ergodic", "diag-constant",  # the last start time
     (measures, "apply_exact", 3, lambda out: out + 0.01), None),
    # relative plants: parabolic-1d's flows on spans longer than 1 are far
    # below 1 in norm, so only a relative bound sees a relative error there
    ("evolve.chain-law", "evolve", "parabolic-1d",
     (evolution, "propagator_matrix", _long_span, lambda out: out * (1.0 + 1e-9)), None),
    ("covariance.flow-decomposition", "covariance", "parabolic-1d",
     (cov, "accumulated", _long_span, _scaled(1.0 + 1e-9)), None),
    ("evolve.adjoint", "evolve", "parabolic-1d",
     (evolution, "adjoint_by_integration", _long_span, lambda out: out * (1.0 + 1e-7)), None),
]

# asserted checks no defect can flip yet, each with the ROADMAP item that fixes it
BLIND = {
    "evolve.decay-certificates": "item 3: it re-tests pairs its certificates were fitted to",
}


def _status(report, check):
    return {c["name"]: c["status"] for c in report.checks}[check]


@pytest.mark.parametrize("check, sub, model, defect", [row[:4] for row in PLANTS],
                         ids=[row[0] + ("-relative" if row[3][2] is _long_span else "")
                              for row in PLANTS])
def test_a_planted_defect_flips_its_check(tmp_path, monkeypatch, check, sub, model, defect):
    cfg = small_config(model_name=model)
    assert _status(run_suite(sub, cfg, tmp_path), check) == "PASS"
    _spoil_call(monkeypatch, *defect)
    assert _status(run_suite(sub, cfg, tmp_path), check) == "FAIL"


def test_every_asserted_check_has_a_planted_defect_or_is_blind(shipped_checks):
    asserted = {c["name"] for name in SHIPPED for c in shipped_checks(name) if "value" in c}
    planted = {row[0] for row in PLANTS}
    assert not planted & set(BLIND)
    assert asserted == planted | set(BLIND)


def test_a_slightly_wide_sampled_law_fails_the_entropy_cross_check(tmp_path, monkeypatch):
    # at the shipped 100,000 draws the Monte Carlo entropy error is tight
    # enough that a law 1.1x as wide stands out
    cfg = ExperimentConfig.from_file(REPO / "configs" / "diag_constant.cfg")
    assert _status(run_suite("logsob", cfg, tmp_path), "logsob.quadrature-vs-mc") == "PASS"
    _spoil_call(monkeypatch, inequalities, "sample", None, lambda out: 1.1 * out)
    assert _status(run_suite("logsob", cfg, tmp_path), "logsob.quadrature-vs-mc") == "FAIL"


def test_hyper_norm_inequality_shows_the_norm_margin_at_the_curve(shipped_checks):
    # diag-constant's p = 3 equals p_max; the row still reports the norm excess
    (row,) = [c for c in shipped_checks("diag_constant.cfg")
              if c["name"] == "hyper.norm-inequality"]
    assert row["value"] < -0.01


NAN_PLANTS = [(row[0], row[1], row[2], row[4]) for row in PLANTS if row[4] is not None]


@pytest.mark.parametrize("check, sub, model, plant", NAN_PLANTS,
                         ids=[row[0] for row in NAN_PLANTS])
def test_a_nan_residual_fails_its_check(tmp_path, monkeypatch, check, sub, model, plant):
    _spoil_call(monkeypatch, *plant)
    assert _status(run_suite(sub, small_config(model_name=model), tmp_path), check) == "FAIL"


def test_a_nan_covariance_is_an_error_row(tmp_path, monkeypatch, capsys):
    # the first mode's integral in the first covariance comes out NaN, the
    # other modes' integrals stay finite
    _spoil_call(monkeypatch, cov, "mode_accumulated", 0, lambda out: _bump(out, NAN))
    path = tmp_path / "dc.cfg"
    path.write_text(small_config().to_text())
    out = tmp_path / "o"
    assert cli.main(["report-all", str(path), "--outdir", str(out)]) == cli.EXIT_NUMERICAL_ERROR
    checks = {c["name"]: c for c in json.loads((out / "report.json").read_text())["checks"]}
    assert checks["covariance.error"]["status"] == "ERROR"
    assert checks["covariance.error"]["detail"].startswith("NonSymmetricError: the symmetry check needs finite")
    assert "ERROR: covariance.error" in capsys.readouterr().err
    assert sum(c["status"] == "ERROR" for c in checks.values()) == 1


def test_a_quadrature_at_its_subinterval_limit_is_an_error_row(tmp_path, monkeypatch):
    # with 6 parts in place of 400, diag-rational's mode integrals stop above
    # MODE_TOL; with warnings as errors, as CI runs, that is still an ERROR row
    quad = cov.quad
    monkeypatch.setattr(cov, "quad", lambda *args, **kwargs: quad(*args, **{**kwargs, "limit": 6}))
    path = REPO / "configs" / "diag_rational.cfg"
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["covariance", str(path), "--outdir", str(out)]) == cli.EXIT_NUMERICAL_ERROR
    assert (out / "report.json").exists()
    (check,) = json.loads((out / "report.json").read_text())["checks"]
    assert check["name"] == "covariance.error" and check["status"] == "ERROR"
    assert check["detail"].startswith("IntegratorDivergedError: quad on [")


@pytest.mark.parametrize("name", ["diag_constant.cfg", "diag_rational.cfg", "scalar_osc.cfg",
                                  "nonunique_demo.cfg"])
def test_a_small_error_in_the_noise_fails_the_covariance_derivatives(tmp_path, monkeypatch, name):
    # Q(t) + 1e-7 I in the closed forms only: a diagonal model's K comes from
    # its mode coefficients.  The plain differences' truncation hides 1e-7,
    # their Richardson value does not
    cfg = ExperimentConfig.from_file(REPO / "configs" / name)
    assert _status(run_suite("covariance", cfg, tmp_path), "covariance.derivatives") == "PASS"
    _spoil_call(monkeypatch, OperatorFamily, "diffusion_matrix", None,
                lambda out: out + 1e-7 * np.eye(len(out)))
    assert _status(run_suite("covariance", cfg, tmp_path), "covariance.derivatives") == "FAIL"


@pytest.mark.parametrize("seed", [48, 91, 95, 98, 108, 116])
def test_diffcheck_passes_nonunique_demo_where_truncation_exceeded_the_old_bound(tmp_path, seed):
    # the plain differences at step 1e-4 read 1.0e-6 to 1.5e-6 on these seeds;
    # the Richardson value cancels their O(h^2) truncation
    cfg = dataclasses.replace(ExperimentConfig.from_file(REPO / "configs" / "nonunique_demo.cfg"),
                              seed=seed)
    assert _status(run_suite("diffcheck", cfg, tmp_path), "diffcheck.formulas") == "PASS"


@pytest.mark.parametrize("name", ["diag_constant.cfg", "parabolic_1d.cfg", "nonunique_demo.cfg"])
def test_a_small_error_in_the_end_formula_fails_diffcheck(tmp_path, monkeypatch, name):
    # 1e-7 lies below the plain differences' truncation, not below their
    # Richardson value's
    cfg = ExperimentConfig.from_file(REPO / "configs" / name)
    assert _status(run_suite("diffcheck", cfg, tmp_path), "diffcheck.formulas") == "PASS"
    _spoil_call(monkeypatch, mehler, "transition_of_generator", None, lambda out: out + 1e-7)
    assert _status(run_suite("diffcheck", cfg, tmp_path), "diffcheck.formulas") == "FAIL"


def test_a_nan_discrepancy_fails_both_invariance_rows(tmp_path, monkeypatch):
    # the first characteristic value of each verify_invariance run is NaN
    verify, characteristic, fresh = measures.verify_invariance, measures.characteristic, []

    def marked(*args, **kwargs):
        fresh.append(None)
        return verify(*args, **kwargs)

    def spoiled(mu, h):
        if fresh:
            fresh.clear()
            return complex(NAN, NAN)
        return characteristic(mu, h)

    monkeypatch.setattr(measures, "verify_invariance", marked)
    monkeypatch.setattr(measures, "characteristic", spoiled)
    report = run_suite("invariance", small_config(model_name="nonunique-demo"), tmp_path)
    statuses = {c["name"]: c["status"] for c in report.checks}
    assert statuses == {"invariance.gaussian-system": "FAIL",
                        "invariance.shifted-system": "FAIL"}
