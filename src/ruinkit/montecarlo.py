"""Event-driven Monte Carlo oracle for ruin of the perturbed surplus path.

Paths are simulated claim to claim with no time discretization: diffusion
ruin between events is decided by the exact Brownian-bridge crossing
probability, so the only systematic error is the finite horizon, which can
only undercount ruin. Per-path counter-based RNG substreams make the result
a pure function of (seed, n_paths) no matter how paths are scheduled: in
batches, in threads (the kernel runs one share of the paths per CPU), or on
one CPU.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from ._kernels import mc_ruin_paths
from .model import PerturbedModel

__all__ = ["SimConfig", "SimEstimate", "simulate_ruin"]


@dataclass(frozen=True)
class SimConfig:
    model: PerturbedModel
    u: float
    n_paths: int
    seed: int
    horizon: float | None = None  # None: 50 mean-drift time constants

    def __post_init__(self):
        if not 0.0 <= self.u < np.inf:
            raise ValueError("initial surplus u must be finite and nonnegative")
        for name in ("n_paths", "seed"):
            value = getattr(self, name)
            # a float would be truncated silently, a bool counted as 0 or 1
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n_paths < 1:
            raise ValueError("n_paths must be at least 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be in [0, 2**64)")
        # an infinite (or NaN) horizon never ends a surviving path
        if self.horizon is not None and not 0.0 < self.horizon < np.inf:
            raise ValueError("horizon must be finite and positive")

    def resolved_horizon(self) -> float:
        if self.horizon is not None:
            return float(self.horizon)
        m = self.model
        return 50.0 / (m.c - m.lam * m.claims.mean)


@dataclass(frozen=True)
class SimEstimate:
    """Finite-horizon ruin frequency with binomial standard error.

    The estimate is biased low against the infinite-horizon probability
    (paths that would ruin after the horizon are counted as survivors).
    """

    ruin_freq: float
    std_err: float
    n_ruined_by_claim: int
    n_ruined_by_oscillation: int
    n_paths: int
    horizon: float
    seed: int


def simulate_ruin(config: SimConfig) -> SimEstimate:
    model = config.model
    horizon = config.resolved_horizon()
    n_osc, n_claim = mc_ruin_paths(config.seed, config.n_paths, config.u, model, horizon)
    n = int(config.n_paths)
    p_hat = (n_osc + n_claim) / n
    return SimEstimate(
        ruin_freq=p_hat,
        std_err=sqrt(p_hat * (1.0 - p_hat) / n),
        n_ruined_by_claim=int(n_claim),
        n_ruined_by_oscillation=int(n_osc),
        n_paths=n,
        horizon=horizon,
        seed=int(config.seed),
    )
