"""Reference ruin probabilities: transform inversion and the
oscillation/claim decomposition by Volterra marching.

exact_ruin inverts the Pollaczek-Khinchine transform numerically; it is the
"exact" column every approximation is judged against. decompose_ruin splits
the ruin probability into ruin caused by the diffusion oscillation crossing
zero and ruin caused by a claim jump, by solving the pair of renewal
(Volterra) equations

    psi1(u) = 1 - H1(u) + (1-q) int_0^u psi1(u-x) h3(x) dx
    psi2(u) = (1-q)(H1(u) - H3(u)) + (1-q) int_0^u psi2(u-x) h3(x) dx

with H1 the Exp(tau) record CDF and h3 the combined ladder density. The
second forcing is taken as (1-q)(Hbar3(u) - e^{-tau u}), the gap between the
ladder tail and the record tail, not as a difference of two CDFs near 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor

import numpy as np

from . import _inversion
from ._kernels import volterra_march
from ._inversion import InversionError
from .model import PerturbedModel

__all__ = ["RuinCurve", "DecompositionCurves", "exact_ruin", "decompose_ruin", "InversionError"]


@dataclass(frozen=True)
class RuinCurve:
    """A labeled (u, value) grid; u strictly increasing, values in [0, 1]."""

    method: str
    u: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if u.shape != v.shape or u.ndim != 1:
            raise ValueError("u and values must be 1-d arrays of equal length")
        if u.size > 1 and not np.all(np.diff(u) > 0.0):
            raise ValueError("u grid must be strictly increasing")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "values", v)

    def __iter__(self):
        return iter(zip(self.u.tolist(), self.values.tolist()))


@dataclass(frozen=True)
class DecompositionCurves:
    psi1: RuinCurve  # ruin by oscillation
    psi2: RuinCurve  # ruin by claim


def exact_ruin(
    model: PerturbedModel,
    u,
    method: str = "talbot",
    degree: int | None = None,
):
    """Ultimate ruin probability Psi(u) by inversion of pk_transform.

    u may be a scalar or 0-d array (returns a float) or an array (returns an
    array of its shape). u = 0 is filled without inversion: exactly 1 when
    sigma > 0, and 1 - q on the classical sigma = 0 pathway. With sigma > 0,
    every u with tau*q*u < 2**-54 is filled with 1 too, the value that
    psi(u) = 1 - tau*q*u + O(u^2) rounds to. Every other u goes through one
    inversion call on the whole grid, capped at the u = 0 value that its
    absolute noise would pass near 0. Absolute accuracy target is 1e-7 over
    u in [0, 100] (validated against the closed form available for
    exponential claims). Every call recomputes at a higher
    quadrature order and raises InversionError at the first u where the two
    disagree beyond 1e-6 or either is not finite.
    """
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))
    if not np.all(np.isfinite(u_arr) & (u_arr >= 0.0)):
        raise ValueError("u must be finite and nonnegative")
    top = 1.0 if model.sigma > 0.0 else 1.0 - model.q  # psi(0)
    out = np.full(u_arr.shape, top)
    by_inversion = u_arr > 0.0
    if model.sigma > 0.0:
        # psi(u) = 1 - tau*q*u + O(u^2), as s(s Psi*(s) - 1) -> -tau*q, so
        # psi rounds to 1 below tau*q*u = 2**-54; inverting there fails from
        # u near 1e-152, whose contour (|s| near 2M/(5u)) overflows the
        # transform's denominator
        with np.errstate(over="ignore"):
            by_inversion &= model.tau * model.q * u_arr >= 2.0**-54
    if np.any(by_inversion):
        values = _inversion.invert(
            model.pk_transform, u_arr[by_inversion], method=method, degree=degree, check_tol=1e-6
        )
        out[by_inversion] = np.minimum(values, top)  # psi is nonincreasing
    return float(out[0]) if np.ndim(u) == 0 else out


def decompose_ruin(
    model: PerturbedModel, u_max: float, step: float = 0.01, refine: int = 4
) -> DecompositionCurves:
    """Solve the two renewal equations on the grid 0, step, 2 step, ...,
    up to the largest multiple of step not above u_max (to 1e-12 relative).

    The march runs internally at step/refine and is subsampled back; the
    trapezoid error is O(h^2), so refine=4 buys a 16x accuracy factor. The
    two equations share their kernel and factor, so one volterra_march call
    solves both, with the same values as two separate marches.
    """
    if model.sigma == 0.0:
        raise ValueError("the cause split requires a diffusion term (sigma > 0)")
    for name, value in (("u_max", u_max), ("step", step)):
        if not 0.0 < value < np.inf:
            raise ValueError(f"{name} must be finite and positive, got {value!r}")
    if refine < 1:
        raise ValueError("refine must be at least 1")
    tau = model.tau
    h = step / refine
    if tau * h >= 1.0:
        raise ValueError("step too coarse: tau * step / refine must be < 1")
    q = model.q
    # a relative tolerance: the few ulp of rounding in u_max/step pass an
    # absolute 1e-12 beyond about 10^4 steps (218.64/0.01 = 21863.999999999996)
    n_out = floor(u_max / step * (1.0 + 1e-12)) + 1
    n = (n_out - 1) * refine + 1
    grid = np.arange(n) * h
    h1_tail = np.exp(-tau * grid)  # 1 - H1
    h3_tail, h3_pdf = model.claims._ladder(grid, tau)
    forcing = np.stack((h1_tail, (1.0 - q) * (h3_tail - h1_tail)))
    psi1, psi2 = volterra_march(forcing, h3_pdf, 1.0 - q, h)
    out = grid[::refine]
    return DecompositionCurves(
        psi1=RuinCurve("oscillation_ruin", out, psi1[::refine]),
        psi2=RuinCurve("claim_ruin", out, psi2[::refine]),
    )
