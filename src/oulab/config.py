"""Experiment configuration: flat key-value text with typed sections.

The format is INI (configparser).  Everything under [model] except
``name`` is forwarded to the catalog builder, and [window], when present,
holds both ``t_min`` and ``t_max``.  Every other knob is one row of
``LAYOUT``, the (section, key, field, kind) table that ``to_text`` writes
from, that ``from_text`` reads from, and that the unknown-key check compares
with: a section or key outside it is rejected, so a stale or misspelled knob
cannot be silently ignored, and a value its kind cannot parse is a
ConfigError.  What every model shares is a constant of ``experiments``.
Configurations round-trip losslessly through ``to_text`` / ``from_text``
(floats serialize with repr).
"""

from __future__ import annotations

import configparser
import io
import math
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
    mc_samples: int = 100_000  # draws of every Monte Carlo check, paths of spde
    spde_step: float = 0.01
    hyper_p_values: tuple = (2.0, 2.5, 3.0)
    sharpness_p_values: tuple = (4.5, 6.0)
    seed: int = 1234
    outdir: str = "out"

    def validate(self) -> "ExperimentConfig":
        # first: every comparison below is False on NaN
        for f in fields(self):
            value = getattr(self, f.name)
            items = value if isinstance(value, tuple) else (value,)
            if not all(math.isfinite(v) for v in items if isinstance(v, float)):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if self.window is not None and self.window[0] >= self.window[1]:
            raise ConfigError(f"window is empty: {self.window}")
        for name in ("spde_step", "triple_span"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        for name in ("triple_count", "probe_count"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.mc_samples < 2:  # a standard error needs two draws
            raise ConfigError("mc_samples must be >= 2")
        if not self.sharpness_p_values:
            raise ConfigError("sharpness_p_values must be nonempty")
        for name in ("hyper_p_values", "sharpness_p_values"):
            if any(p < 1.0 for p in getattr(self, name)):  # no norm below p = 1
                raise ConfigError(f"{name} must all be >= 1, got {getattr(self, name)}")
        if not any(s < t for s in self.s_values for t in self.t_values):
            raise ConfigError("grids need a pair s < t of s_values and t_values")
        return self

    # -- serialization -----------------------------------------------------

    def to_text(self) -> str:
        cp = configparser.ConfigParser()
        cp["model"] = {"name": self.model_name,
                       **{k: repr(v) for k, v in sorted(self.model_params.items())}}
        if self.window is not None:
            cp["window"] = {"t_min": repr(self.window[0]), "t_max": repr(self.window[1])}
        for section, key, name, kind in LAYOUT:
            value = getattr(self, name)
            if kind is _num_list:
                text = ", ".join(repr(v) for v in value)
            else:
                text = repr(value) if kind is float else str(value)
            if not cp.has_section(section):
                cp.add_section(section)
            cp[section][key] = text
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
        known = {"window": {"t_min", "t_max"}}
        for section, key, _, _ in LAYOUT:
            known.setdefault(section, set()).add(key)
        for section in cp.sections():
            if section == "model":
                continue
            if section not in known:
                raise ConfigError(f"unknown section [{section}]")
            unknown = sorted(set(cp.options(section)) - known[section])
            if unknown:
                raise ConfigError(f"unknown key(s) in [{section}]: {', '.join(unknown)}")

        params = dict(cp.items("model")) if cp.has_section("model") else {}
        kwargs = {"model_params": {k: _num(v) for k, v in params.items() if k != "name"}}
        if "name" in params:
            kwargs["model_name"] = params["name"]
        try:
            if cp.has_section("window"):
                kwargs["window"] = (cp.getfloat("window", "t_min"),
                                    cp.getfloat("window", "t_max"))
            for section, key, name, kind in LAYOUT:
                if cp.has_option(section, key):
                    kwargs[name] = kind(cp.get(section, key))
        except configparser.NoOptionError as exc:
            raise ConfigError(f"[window] needs both t_min and t_max: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"not a valid value: {exc}") from exc
        return ExperimentConfig(**kwargs).validate()

    @staticmethod
    def from_file(path) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return ExperimentConfig.from_text(fh.read())
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path} is not UTF-8 text: {exc}") from exc


# (section, key, field, kind): the layout of every section but [model] and
# [window], in the order to_text writes it.  ``kind`` parses the text.
LAYOUT = (
    ("grids", "s_values", "s_values", _num_list),
    ("grids", "t_values", "t_values", _num_list),
    ("grids", "triple_count", "triple_count", int),
    ("grids", "triple_span", "triple_span", float),
    ("probes", "count", "probe_count", int),
    ("mc", "samples", "mc_samples", int),
    ("mc", "spde_step", "spde_step", float),
    ("hyper", "p_values", "hyper_p_values", _num_list),
    ("hyper", "sharpness_p", "sharpness_p_values", _num_list),
    ("run", "seed", "seed", int),
    ("run", "outdir", "outdir", str),
)
