import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oulab
from oulab import cli
from oulab.config import ConfigError, ExperimentConfig


def small_config(**over):
    base = ExperimentConfig(
        s_values=(-1.0, 0.0), t_values=(0.5, 1.0), triple_count=10,
        probe_count=8, mc_samples=4000, spde_paths=2000, spde_step=0.02,
    )
    return dataclasses.replace(base, **over)


REPO = Path(__file__).resolve().parents[1]


def test_config_roundtrip_lossless():
    cfg = small_config(model_params={"n": 4, "lam": -2.0}, window=(-30.0, 30.0))
    assert ExperimentConfig.from_text(cfg.to_text()) == cfg


def test_config_defaults_roundtrip():
    cfg = ExperimentConfig()
    assert ExperimentConfig.from_text(cfg.to_text()) == cfg


def test_config_rejects_empty_window():
    with pytest.raises(ConfigError):
        ExperimentConfig(window=(2.0, 1.0)).validate()


def test_config_rejects_bad_tolerance():
    with pytest.raises(ConfigError):
        ExperimentConfig(tol_chain=0.0).validate()


def test_config_rejects_garbage_numbers():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_text("[model]\nname = diag-constant\nn = lots\n")


def test_cli_invalid_config_exits_two(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[window]\nt_min = 5\nt_max = 1\n")
    assert cli.main(["evolve", str(path)]) == cli.EXIT_CONFIG_INVALID


@pytest.mark.parametrize("old, new", [
    ("[mc]\n", "[mc]\nworkers = 4\n"),           # a removed knob
    ("s_values =", "s_value ="),                  # a misspelled key
    ("[run]\n", "[extra]\nseed = 1\n\n[run]\n"),  # an unknown section
])
def test_cli_unknown_key_exits_two(tmp_path, old, new):
    text = small_config().to_text()
    assert old in text
    path = tmp_path / "stale.cfg"
    path.write_text(text.replace(old, new, 1))
    assert cli.main(["evolve", str(path)]) == cli.EXIT_CONFIG_INVALID


def test_config_accepts_every_optional_key():
    cfg = small_config(model_params={"n": 3}, window=(-20.0, 20.0), anchor=-5.0)
    assert ExperimentConfig.from_text(cfg.to_text()) == cfg


def test_cli_missing_config_exits_two(tmp_path):
    assert cli.main(["evolve", str(tmp_path / "nope.cfg")]) == cli.EXIT_CONFIG_INVALID


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


def test_cli_outdir_env_override(tmp_path, monkeypatch):
    path = tmp_path / "dc.cfg"
    path.write_text(small_config().to_text())
    target = tmp_path / "env_out"
    monkeypatch.setenv("OULAB_OUTDIR", str(target))
    assert cli.main(["evolve", str(path)]) == cli.EXIT_OK
    assert (target / "evolution_chain.csv").exists()


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


def test_numerical_error_is_an_error_row_and_the_other_subcommands_run(tmp_path):
    # the window ends above the covariance grid's earliest s, so run_covariance
    # raises WindowExceededError partway through
    cfg = ExperimentConfig.from_file(REPO / "configs" / "diag_constant.cfg")
    path = tmp_path / "narrow.cfg"
    path.write_text(dataclasses.replace(cfg, window=(-3.0, 5.0), mc_samples=2000,
                                        spde_paths=2000).to_text())
    out = tmp_path / "out"
    assert cli.main(["report-all", str(path), "--outdir", str(out)]) == cli.EXIT_NUMERICAL_ERROR
    checks = {c["name"]: c for c in json.loads((out / "report.json").read_text())["checks"]}
    assert checks["covariance.error"]["status"] == "ERROR"
    assert checks["covariance.error"]["detail"].startswith("WindowExceededError: time -3.75")
    assert checks["evolve.chain-law"]["status"] == "PASS"


def test_contraction_curve_scan_script_writes_its_table(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(oulab.__file__).parents[1]))
    subprocess.run([sys.executable, str(REPO / "scripts" / "contraction_curve_scan.py"),
                    "--gaps", "0.693", "--outdir", str(tmp_path)],
                   capture_output=True, check=True, env=env)
    rows = (tmp_path / "contraction_scan.csv").read_text().splitlines()
    assert len(rows) > 2  # schema line, header, data


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
