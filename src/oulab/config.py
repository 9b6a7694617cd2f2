"""Experiment configuration: flat key-value text with typed sections.

The format is INI (configparser).  Numeric experiment knobs live in fixed
sections; everything under [model] except ``name`` is forwarded to the
catalog builder.  Any other section or key outside the layout ``to_text``
writes is rejected, so a stale or misspelled knob cannot be silently
ignored.  Configurations round-trip losslessly through ``to_text`` /
``from_text`` (floats serialize with repr).
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field, fields


class ConfigError(ValueError):
    """Configuration failed to parse or validate (CLI exit code 2)."""


def _num(text: str):
    """int when the literal is integral, float otherwise."""
    try:
        return int(text)
    except ValueError:
        try:
            return float(text)
        except ValueError as exc:
            raise ConfigError(f"not a number: {text!r}") from exc


def _num_list(text: str) -> tuple:
    items = [p.strip() for p in text.split(",") if p.strip()]
    return tuple(float(p) for p in items)


@dataclass(frozen=True)
class ExperimentConfig:
    model_name: str = "diag-constant"
    model_params: dict = field(default_factory=dict)
    window: tuple[float, float] | None = None  # None: keep the model default
    s_values: tuple = (-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5)
    t_values: tuple = (-1.75, -1.25, -0.75, -0.25, 0.25, 0.75, 1.25, 1.75, 2.25, 3.0)
    triple_count: int = 50
    triple_span: float = 3.0
    probe_count: int = 20
    anchor: float | None = None  # None: anchor the system at -inf via decay
    mc_samples: int = 100_000
    spde_paths: int = 100_000
    spde_step: float = 0.01
    tol_invariance: float = 1e-8
    tol_chain: float = 1e-8
    tol_tail: float = 1e-10
    tol_fd: float = 1e-6
    tol_ergodic: float = 1e-3
    fd_step: float = 1e-4
    hyper_q: float = 2.0
    hyper_gap: float = 0.6931471805599453
    hyper_p_values: tuple = (2.0, 2.5, 3.0)
    sharpness_p_values: tuple = (4.5, 6.0)
    logsob_p_values: tuple = (1.5, 2.0, 3.0)
    ergodic_s_values: tuple = (-1.0, -2.0, -4.0, -8.0)
    ergodic_t: float = 0.0
    seed: int = 1234
    outdir: str = "out"

    def validate(self) -> "ExperimentConfig":
        if self.window is not None and self.window[0] >= self.window[1]:
            raise ConfigError(f"window is empty: {self.window}")
        for name in ("tol_invariance", "tol_chain", "tol_tail", "tol_fd",
                     "tol_ergodic", "fd_step", "spde_step"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        for name in ("triple_count", "probe_count", "mc_samples",
                     "spde_paths"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.hyper_q <= 1.0:
            raise ConfigError("hyper_q must exceed 1")
        if not self.s_values or not self.t_values:
            raise ConfigError("grids must be nonempty")
        return self

    # -- serialization -----------------------------------------------------

    def to_text(self) -> str:
        cp = configparser.ConfigParser()
        cp["model"] = {"name": self.model_name,
                       **{k: repr(v) for k, v in sorted(self.model_params.items())}}
        if self.window is not None:
            cp["window"] = {"t_min": repr(self.window[0]), "t_max": repr(self.window[1])}
        cp["grids"] = {
            "s_values": ", ".join(repr(v) for v in self.s_values),
            "t_values": ", ".join(repr(v) for v in self.t_values),
            "triple_count": str(self.triple_count),
            "triple_span": repr(self.triple_span),
        }
        cp["probes"] = {"count": str(self.probe_count)}
        if self.anchor is not None:
            cp["probes"]["anchor"] = repr(self.anchor)
        cp["mc"] = {
            "samples": str(self.mc_samples),
            "spde_paths": str(self.spde_paths),
            "spde_step": repr(self.spde_step),
        }
        cp["tolerances"] = {
            "invariance": repr(self.tol_invariance),
            "chain": repr(self.tol_chain),
            "tail": repr(self.tol_tail),
            "fd": repr(self.tol_fd),
            "ergodic": repr(self.tol_ergodic),
            "fd_step": repr(self.fd_step),
        }
        cp["hyper"] = {
            "q": repr(self.hyper_q),
            "gap": repr(self.hyper_gap),
            "p_values": ", ".join(repr(v) for v in self.hyper_p_values),
            "sharpness_p": ", ".join(repr(v) for v in self.sharpness_p_values),
        }
        cp["logsob"] = {"p_values": ", ".join(repr(v) for v in self.logsob_p_values)}
        cp["ergodic"] = {
            "s_values": ", ".join(repr(v) for v in self.ergodic_s_values),
            "t": repr(self.ergodic_t),
        }
        cp["run"] = {"seed": str(self.seed), "outdir": self.outdir}
        buf = io.StringIO()
        cp.write(buf)
        return buf.getvalue()

    @staticmethod
    def from_text(text: str) -> "ExperimentConfig":
        cp = configparser.ConfigParser()
        try:
            cp.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"bad config syntax: {exc}") from exc
        if cp.defaults():
            raise ConfigError("unknown section [DEFAULT]")
        # the layout: every key to_text writes, optional ones included
        full = configparser.ConfigParser()
        full.read_string(ExperimentConfig(window=(0.0, 1.0), anchor=0.0).to_text())
        for section in cp.sections():
            if not full.has_section(section):
                raise ConfigError(f"unknown section [{section}]")
            if section != "model":
                unknown = sorted(set(cp.options(section)) - set(full.options(section)))
                if unknown:
                    raise ConfigError(f"unknown key(s) in [{section}]: {', '.join(unknown)}")

        def get(section, key, default, conv):
            if cp.has_option(section, key):
                return conv(cp.get(section, key))
            return default

        base = ExperimentConfig()
        model_params = {}
        if cp.has_section("model"):
            for key, val in cp.items("model"):
                if key != "name":
                    model_params[key] = _num(val)
        window = None
        if cp.has_section("window"):
            window = (get("window", "t_min", -50.0, float),
                      get("window", "t_max", 50.0, float))
        kwargs = dict(
            model_name=get("model", "name", base.model_name, str),
            model_params=model_params,
            window=window,
            s_values=get("grids", "s_values", base.s_values, _num_list),
            t_values=get("grids", "t_values", base.t_values, _num_list),
            triple_count=get("grids", "triple_count", base.triple_count, int),
            triple_span=get("grids", "triple_span", base.triple_span, float),
            probe_count=get("probes", "count", base.probe_count, int),
            anchor=get("probes", "anchor", None, float),
            mc_samples=get("mc", "samples", base.mc_samples, int),
            spde_paths=get("mc", "spde_paths", base.spde_paths, int),
            spde_step=get("mc", "spde_step", base.spde_step, float),
            tol_invariance=get("tolerances", "invariance", base.tol_invariance, float),
            tol_chain=get("tolerances", "chain", base.tol_chain, float),
            tol_tail=get("tolerances", "tail", base.tol_tail, float),
            tol_fd=get("tolerances", "fd", base.tol_fd, float),
            tol_ergodic=get("tolerances", "ergodic", base.tol_ergodic, float),
            fd_step=get("tolerances", "fd_step", base.fd_step, float),
            hyper_q=get("hyper", "q", base.hyper_q, float),
            hyper_gap=get("hyper", "gap", base.hyper_gap, float),
            hyper_p_values=get("hyper", "p_values", base.hyper_p_values, _num_list),
            sharpness_p_values=get("hyper", "sharpness_p", base.sharpness_p_values, _num_list),
            logsob_p_values=get("logsob", "p_values", base.logsob_p_values, _num_list),
            ergodic_s_values=get("ergodic", "s_values", base.ergodic_s_values, _num_list),
            ergodic_t=get("ergodic", "t", base.ergodic_t, float),
            seed=get("run", "seed", base.seed, int),
            outdir=get("run", "outdir", base.outdir, str),
        )
        return ExperimentConfig(**kwargs).validate()

    @staticmethod
    def from_file(path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return ExperimentConfig.from_text(fh.read())
