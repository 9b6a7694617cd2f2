"""Path simulation of dZ = A(t) Z dt + B(t) dW on the truncation.

The law of Z(t) started from x at time s is the Gaussian transition law
N(U(t, s) x, K(t, s)), and these laws compose: P_{s,r} P_{r,t} = P_{s,t}.
So each step [lo, hi] of the grid is drawn exactly from its own transition
law,

    z <- U(hi, lo) z + K(hi, lo)^{1/2} xi,    xi ~ N(0, I),

and the chain samples the transition law over [s, t] with no
discretization bias, for any step and any model kind.  The noise factor is
the symmetric PSD square root: it is diagonal for diagonal models and it
admits the singular K of a noiseless model.

The ensemble keeps what its checks read: the end state of every path, for
the terminal law, and the snapshots of the first HEAD paths (rows of chunk
0), which ``run_spde`` writes.  Memory is one (count, dim) array plus a
chunk's work, whatever the number of snapshots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import accumulated
from .evolution import propagator_matrix
from .linalg import sqrt_psd
from .models import OperatorFamily
from .rng import CHUNK, seed_stream

Z_LIMIT = 5.0  # largest z-score law_check accepts
HEAD = 10  # paths whose snapshots the ensemble keeps: the first rows of chunk 0


@dataclass(frozen=True)
class PathEnsemble:
    """Simulated paths: every end state, and the snapshots of the first few.

    ``terminal`` has shape (count, dim) and holds the state of every path at
    the end time.  ``states`` has shape (min(HEAD, count), dim, n_snapshots)
    and holds the first HEAD paths at the snapshot ``times``, with
    states[..., 0] the initial condition and states[..., -1] their rows of
    ``terminal``.
    """

    times: np.ndarray
    states: np.ndarray
    terminal: np.ndarray

    @property
    def count(self) -> int:
        return self.terminal.shape[0]


def _step_grid(s: float, t: float, step: float) -> np.ndarray:
    n_steps = max(1, int(math.ceil((t - s) / step - 1e-12)))
    return np.linspace(s, t, n_steps + 1)


def simulate(model: OperatorFamily, s: float, t: float, x0: np.ndarray,
             step: float, count: int, seed: int,
             snapshots: int = 5) -> PathEnsemble:
    """Simulate ``count`` paths from s to t started at x0.

    Noise for path chunk c comes entirely from substream (seed, "paths", c),
    drawn step by step in a fixed order, so the ensemble is bit-identical
    however chunks are scheduled; chunk 0 also records its first HEAD rows
    at the snapshot steps.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if not s < t:
        raise ValueError("need s < t")
    model.require_window(s, t)
    x0 = np.asarray(x0, dtype=float)
    taus = _step_grid(s, t, step)
    snap_idx = np.unique(np.linspace(0, len(taus) - 1, max(2, snapshots)).round().astype(int))
    column = {j: k for k, j in enumerate(snap_idx.tolist())}  # steps taken -> snapshot

    # row-vector form: z U^T + xi K^{1/2}, with K^{1/2} symmetric
    factors = [(propagator_matrix(model, lo, hi).T, sqrt_psd(accumulated(model, lo, hi)).entries)
               for lo, hi in zip(taus[:-1], taus[1:])]

    terminal = np.empty((count, model.dim))
    states = np.empty((min(HEAD, count), model.dim, len(snap_idx)))
    states[:, :, 0] = x0  # snap_idx[0] == 0
    for c, lo_path in enumerate(range(0, count, CHUNK)):
        gen = seed_stream(seed, "paths", c)
        z = np.tile(x0, (min(CHUNK, count - lo_path), 1))
        for j, (prop, root) in enumerate(factors, 1):
            z = z @ prop + gen.standard_normal(z.shape) @ root
            if c == 0 and j in column:  # chunk 0 holds every kept path
                states[:, :, column[j]] = z[:HEAD]
        terminal[lo_path:lo_path + len(z)] = z
    return PathEnsemble(taus[snap_idx], states, terminal)


@dataclass(frozen=True)
class LawReport:
    """Terminal ensemble against the Gaussian transition law; the covariance
    standard errors use the Gaussian fourth-moment formula, and every
    z-score must stay at most Z_LIMIT."""

    mean_z_max: float
    cov_z_max: float
    passed: bool


def law_check(ensemble: PathEnsemble, model: OperatorFamily, s: float, t: float,
              x0: np.ndarray) -> LawReport:
    x0 = np.asarray(x0, dtype=float)
    term = ensemble.terminal
    n = term.shape[0]
    m_cont = propagator_matrix(model, s, t) @ x0
    s_cont = accumulated(model, s, t).entries

    # degenerate directions get an absolute roundoff floor instead of a
    # vanishing standard error
    emp_mean = term.mean(axis=0)
    se_mean = np.sqrt(np.clip(np.diag(s_cont), 0.0, None) / n)
    se_mean = np.maximum(se_mean, 1e-12 * (1.0 + np.abs(m_cont)))
    z_mean = np.abs(emp_mean - m_cont) / se_mean

    emp_cov = np.cov(term.T, ddof=1) if model.dim > 1 else np.atleast_2d(np.var(term, ddof=1))
    d = np.diag(s_cont)
    se_cov = np.sqrt(np.clip(np.outer(d, d) + s_cont**2, 0.0, None) / n)
    se_cov = np.maximum(se_cov, 1e-12 * (1.0 + np.abs(s_cont)))
    z_cov = np.abs(emp_cov - s_cont) / se_cov

    ok = bool(z_mean.max() <= Z_LIMIT and z_cov.max() <= Z_LIMIT)
    return LawReport(float(z_mean.max()), float(z_cov.max()), ok)
