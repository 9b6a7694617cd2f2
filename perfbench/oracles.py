"""Reference covariances for ``covariance.csv``, computed without oulab.

Both oracles rebuild the model from the config and the catalog defaults,
compute K(t, s) in closed form, and compare every row of the CSV.  Each
tolerance is the accuracy the program targets for that model kind: 1e-11
for per-mode quadrature, 1e-9 for the dense Gauss-Legendre panels.
"""

from __future__ import annotations

import configparser
import csv
import math
from pathlib import Path

import numpy as np
from scipy.linalg import expm, solve_continuous_lyapunov


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


def _rows(cfg: configparser.ConfigParser, path: Path, dim: int) -> list[tuple]:
    """CSV rows as (s, t, i, j, value); raises ValueError unless they cover
    every pair s < t of the config grids and every entry i <= j."""
    with open(path, newline="", encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    rows = [(float(r["s"]), float(r["t"]), int(r["i"]), int(r["j"]), float(r["value"]))
            for r in csv.DictReader(lines)]
    pairs = [(s, t) for s in _floats(cfg["grids"]["s_values"])
             for t in _floats(cfg["grids"]["t_values"]) if s < t]
    want = {(s, t, i, j) for s, t in pairs for i in range(dim) for j in range(i, dim)}
    if {r[:4] for r in rows} != want or len(rows) != len(want):
        raise ValueError(f"covariance.csv has {len(rows)} rows, expected {len(want)}")
    return rows


def diag_constant(cfg: configparser.ConfigParser, path: Path) -> tuple[bool, str]:
    """K_ii = b^2 (1 - exp(2 lam (t - s))) / (-2 lam), off-diagonal zero."""
    model = cfg["model"]
    n, lam, b = int(model.get("n", 8)), float(model.get("lam", -1.0)), float(model.get("b", 1.0))
    worst = 0.0
    for s, t, i, j, value in _rows(cfg, path, n):
        ref = b * b * -math.expm1(2.0 * lam * (t - s)) / (-2.0 * lam) if i == j else 0.0
        worst = max(worst, abs(value - ref))
    return bool(worst <= 1e-11), f"closed form: max |K - K_ref| {worst:.3e} (tol 1e-11)"


def parabolic_1d(cfg: configparser.ConfigParser, path: Path) -> tuple[bool, str]:
    """K(t, s) = X - e^{A h} X e^{A^T h} with h = t - s and A X + X A^T = -I,
    for the constant finite-difference drift A = nu/dx^2 tridiag(1, -2, 1) -
    omega I and identity noise."""
    model = cfg["model"]
    m, nu, omega = int(model.get("m", 5)), float(model.get("nu", 1.0)), float(model.get("omega", 1.0))
    dx = 1.0 / (m + 1)
    a = (nu / dx**2) * (np.diag(np.full(m - 1, 1.0), -1) + np.diag(np.full(m, -2.0))
                        + np.diag(np.full(m - 1, 1.0), 1)) - omega * np.eye(m)
    x = solve_continuous_lyapunov(a, -np.eye(m))
    refs: dict[float, np.ndarray] = {}
    worst = 0.0
    for s, t, i, j, value in _rows(cfg, path, m):
        if t - s not in refs:
            u = expm(a * (t - s))
            refs[t - s] = x - u @ x @ u.T
        worst = max(worst, abs(value - refs[t - s][i, j]))
    return bool(worst <= 1e-9), f"expm/Lyapunov: max |K - K_ref| {worst:.3e} (tol 1e-9)"
