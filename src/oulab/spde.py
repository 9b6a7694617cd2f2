"""Path simulation of dZ = A(t) Z dt + B(t) dW on the truncation.

Diagonal models use an exact per-mode integrator: over each step a mode
decays by its diagonal entry of U and receives a Gaussian kick whose
variance is its diagonal entry of K over the step, so the terminal law is
exactly the Gaussian transition law up to roundoff.  Dense models use
Euler-Maruyama with a stability guard.

For Euler-Maruyama the mean and covariance of the simulated chain obey the
deterministic recursions

    m_{j+1} = (I + h A) m_j,
    S_{j+1} = (I + h A) S_j (I + h A)^T + h B B^T,

so the scheme's own law is computable exactly; its gap to the continuous
Gaussian law is the declared discretization bias used by ``law_check``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .covariance import accumulated
from .evolution import propagator_matrix
from .linalg import operator_norm
from .models import OperatorFamily
from .rng import CHUNK, seed_stream


class StepTooLargeError(ValueError):
    """Euler step fails the ||I + h A|| stability guard."""


@dataclass(frozen=True)
class PathEnsemble:
    """Simulated paths stored at snapshot times.

    ``states`` has shape (count, dim, n_snapshots) with states[..., 0] the
    initial condition; ``times`` are the matching snapshot times.
    """

    times: np.ndarray
    states: np.ndarray
    scheme: dict = field(default_factory=dict)

    @property
    def count(self) -> int:
        return self.states.shape[0]

    @property
    def terminal(self) -> np.ndarray:
        return self.states[:, :, -1]


def _step_grid(s: float, t: float, step: float) -> np.ndarray:
    n_steps = max(1, int(math.ceil((t - s) / step - 1e-12)))
    return np.linspace(s, t, n_steps + 1)


def scheme_law(model: OperatorFamily, s: float, t: float, x0: np.ndarray,
               step: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact mean and covariance of the Euler-Maruyama chain."""
    taus = _step_grid(s, t, step)
    mean = np.asarray(x0, dtype=float).copy()
    cov = np.zeros((model.dim, model.dim))
    for lo, hi in zip(taus[:-1], taus[1:]):
        h = hi - lo
        prop = np.eye(model.dim) + h * model.drift_matrix(lo)
        mean = prop @ mean
        cov = prop @ cov @ prop.T + h * model.diffusion_matrix(lo)
    return mean, cov


def simulate(model: OperatorFamily, s: float, t: float, x0: np.ndarray,
             step: float, count: int, seed: int,
             snapshots: int = 5) -> PathEnsemble:
    """Simulate ``count`` paths from s to t started at x0.

    Noise for path chunk c comes entirely from substream (seed, "paths", c),
    drawn step by step in a fixed order, so the ensemble is bit-identical
    however chunks are scheduled.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if not s < t:
        raise ValueError("need s < t")
    model.require_window(s, t)
    x0 = np.asarray(x0, dtype=float)
    taus = _step_grid(s, t, step)
    n_steps = len(taus) - 1
    snap_idx = np.unique(np.linspace(0, n_steps, max(2, snapshots)).round().astype(int))

    exact = model.kind == "diagonal"
    if exact:
        decays = np.empty((n_steps, model.dim))
        stds = np.empty((n_steps, model.dim))
        for j, (lo, hi) in enumerate(zip(taus[:-1], taus[1:])):
            decays[j] = np.diag(propagator_matrix(model, lo, hi))
            stds[j] = np.sqrt(np.diag(accumulated(model, lo, hi).matrix))
        scheme = {"name": "exact-mode", "step": step, "seed": seed, "mean_bias": 0.0,
                  "cov_bias": 0.0}
    else:
        guard = max(operator_norm(np.eye(model.dim) + (hi - lo) * model.drift_matrix(lo))
                    for lo, hi in zip(taus[:-1], taus[1:]))
        if guard > 1.5:
            raise StepTooLargeError(f"||I + h A|| reaches {guard:.3f} > 1.5; reduce the step")
        m_sch, s_sch = scheme_law(model, s, t, x0, step)
        m_cont = propagator_matrix(model, s, t) @ x0
        s_cont = accumulated(model, s, t).matrix
        scheme = {
            "name": "euler-maruyama", "step": step, "seed": seed,
            "mean_bias": np.abs(m_sch - m_cont),
            "cov_bias": np.abs(s_sch - s_cont),
            "scheme_mean": m_sch,
            "scheme_cov": s_sch,
        }
        drift_mats = [model.drift_matrix(lo) for lo in taus[:-1]]
        noise_mats = [model.noise_matrix(lo) for lo in taus[:-1]]

    states = np.empty((count, model.dim, len(snap_idx)))
    for c, lo_path in enumerate(range(0, count, CHUNK)):
        hi_path = min(lo_path + CHUNK, count)
        nc = hi_path - lo_path
        gen = seed_stream(seed, "paths", c)
        z = np.tile(x0, (nc, 1))
        cursor = 0
        if snap_idx[0] == 0:
            states[lo_path:hi_path, :, 0] = z
            cursor = 1
        for j in range(n_steps):
            xi = gen.standard_normal((nc, model.dim))
            if exact:
                z = z * decays[j] + xi * stds[j]
            else:
                h = taus[j + 1] - taus[j]
                z = z + h * (z @ drift_mats[j].T) + math.sqrt(h) * (xi @ noise_mats[j].T)
            if cursor < len(snap_idx) and snap_idx[cursor] == j + 1:
                states[lo_path:hi_path, :, cursor] = z
                cursor += 1
    return PathEnsemble(taus[snap_idx], states, scheme)


@dataclass(frozen=True)
class LawReport:
    """Terminal ensemble against the continuous Gaussian transition law.

    z-scores are computed after subtracting the declared scheme bias; the
    covariance standard errors use the Gaussian fourth-moment formula.
    """

    mean_z_max: float
    cov_z_max: float
    mean_bias_declared: float
    cov_bias_declared: float
    passed: bool


def law_check(ensemble: PathEnsemble, model: OperatorFamily, s: float, t: float,
              x0: np.ndarray, z_limit: float = 5.0) -> LawReport:
    x0 = np.asarray(x0, dtype=float)
    term = ensemble.terminal
    n = term.shape[0]
    m_cont = propagator_matrix(model, s, t) @ x0
    s_cont = accumulated(model, s, t).matrix

    bias_m = np.asarray(ensemble.scheme.get("mean_bias", 0.0))
    bias_s = np.asarray(ensemble.scheme.get("cov_bias", 0.0))
    bias_m = np.broadcast_to(bias_m, m_cont.shape)
    bias_s = np.broadcast_to(bias_s, s_cont.shape)

    # degenerate directions get an absolute roundoff floor instead of a
    # vanishing standard error
    emp_mean = term.mean(axis=0)
    se_mean = np.sqrt(np.clip(np.diag(s_cont), 0.0, None) / n)
    se_mean = np.maximum(se_mean, 1e-12 * (1.0 + np.abs(m_cont)))
    z_mean = np.clip(np.abs(emp_mean - m_cont) - bias_m, 0.0, None) / se_mean

    emp_cov = np.cov(term.T, ddof=1) if model.dim > 1 else np.atleast_2d(np.var(term, ddof=1))
    d = np.diag(s_cont)
    se_cov = np.sqrt(np.clip(np.outer(d, d) + s_cont**2, 0.0, None) / n)
    se_cov = np.maximum(se_cov, 1e-12 * (1.0 + np.abs(s_cont)))
    z_cov = np.clip(np.abs(emp_cov - s_cont) - bias_s, 0.0, None) / se_cov

    ok = bool(z_mean.max() <= z_limit and z_cov.max() <= z_limit)
    return LawReport(float(z_mean.max()), float(z_cov.max()),
                     float(np.max(bias_m)), float(np.max(bias_s)), ok)
