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

from ._kernels import _count, _positive, mc_ruin_paths
from .model import PerturbedModel

__all__ = ["SimConfig", "SimEstimate", "simulate_ruin"]


@dataclass(frozen=True)
class SimConfig:
    """One Monte Carlo run. u is a finite number of at least 0, horizon
    None or a finite positive number, n_paths an integer of at least 1 and
    seed an integer in 0..2^64 - 1 (_kernels._positive and _count): a bool,
    a string or an array is refused, and a float count or seed is not
    truncated. The fields hold the checked Python float or int."""

    model: PerturbedModel
    u: float
    n_paths: int
    seed: int
    horizon: float | None = None  # None: 50 mean-drift time constants

    def __post_init__(self):
        object.__setattr__(self, "u", _positive("initial surplus u", self.u, zero=True))
        object.__setattr__(self, "n_paths", _count("n_paths", self.n_paths))
        object.__setattr__(self, "seed", _count("seed", self.seed, 0, 2**64 - 1))
        # an infinite (or NaN) horizon never ends a surviving path
        if self.horizon is not None:
            object.__setattr__(self, "horizon", _positive("horizon", self.horizon))

    def resolved_horizon(self) -> float:
        if self.horizon is not None:
            return self.horizon
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
    n = config.n_paths
    p_hat = (n_osc + n_claim) / n
    return SimEstimate(
        ruin_freq=p_hat,
        std_err=sqrt(p_hat * (1.0 - p_hat) / n),
        n_ruined_by_claim=int(n_claim),
        n_ruined_by_oscillation=int(n_osc),
        n_paths=n,
        horizon=horizon,
        seed=config.seed,
    )
