"""Adjustment coefficient, the Lundberg exponential bound, and the
two-moment exponential decay coefficient.

The adjustment coefficient R is the positive root of the Lundberg equation

    g(r) = model.levy_exponent(-r) = lam * (M_X(r) - 1) - c*r + sigma^2 r^2 / 2 = 0,

which exists inside (0, mgf_sup) under the net-profit condition because
g(0) = 0 with g'(0) = lam*mu1 - c < 0 and M_X blows up at mgf_sup. R comes
from the bisection that also finds the lattice tilt (_kernels._bisect).
Each claim family forms M_X(r) - 1 without subtracting 1 (_mgf_minus_one),
so R comes out within a few ulp of the root and the residual is |g| there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import _bisect
from .model import PerturbedModel

__all__ = [
    "AdjustmentResult",
    "NoRootError",
    "adjustment_coefficient",
    "lundberg_bound",
    "renyi_coefficient",
]


class NoRootError(RuntimeError):
    """No sign change found inside the admissible bracket."""


@dataclass(frozen=True)
class AdjustmentResult:
    R: float
    bracket: tuple[float, float]
    residual: float
    iterations: int


def adjustment_coefficient(model: PerturbedModel) -> AdjustmentResult:
    """Find R by bisection on g(r) = model.levy_exponent(-r) down to adjacent floats.

    The lower end is fixed at 1e-12 (g must be negative there); the upper end
    starts at 0.999 * mgf_sup and moves geometrically closer to mgf_sup until
    g is positive, since the MGF divergence guarantees a sign change. R is
    the end of the final bracket with the smaller |g|.
    """
    sup = model.claims.mgf_sup
    lo = 1e-12
    if not lo < sup:
        raise NoRootError("claim MGF has empty positive domain")

    def g(r: float) -> float:
        return model.levy_exponent(-r)

    g_lo = g(lo)
    if not g_lo < 0.0:
        raise NoRootError(f"g({lo}) = {g_lo}, expected negative under net profit")
    hi = None
    for k in range(3, 16):
        cand = sup * (1.0 - 10.0**-k)
        g_cand = g(cand)
        if g_cand > 0.0:
            hi = cand
            break
    if hi is None:
        raise NoRootError(
            f"no sign change in ({lo}, {sup}): g(lo) = {g_lo}, g(near sup) = {g_cand}"
        )
    a, b, iterations = _bisect(g, lo, hi, 0.0)
    residual, root = min((abs(g(r)), r) for r in (a, b))
    return AdjustmentResult(R=float(root), bracket=(lo, hi), residual=residual, iterations=iterations)


def lundberg_bound(model: PerturbedModel, u, R: float | None = None):
    """Exponential upper bound e^{-R u} on the ultimate ruin probability."""
    if R is None:
        R = adjustment_coefficient(model).R
    scalar = np.isscalar(u)
    val = np.exp(-R * np.asarray(u, dtype=float))
    return float(val) if scalar else val


def renyi_coefficient(model: PerturbedModel) -> float:
    """Classical two-moment decay coefficient 2 q mu1 / mu2.

    Note this is not the decay rate of the published exponential
    approximation tables; approx.renyi_approx uses a third-moment rate.
    """
    mu1 = model.claims.raw_moment(1)
    mu2 = model.claims.raw_moment(2)
    return 2.0 * model.q * mu1 / mu2
