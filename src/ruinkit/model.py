"""The diffusion-perturbed compound Poisson surplus model.

V(t) = u + c*t - S(t) + sigma*W(t), where S is a compound Poisson sum of
claims with intensity lam and W a standard Wiener process. The premium rate
c and the safety loading theta determine each other through c = (1+theta) *
lam * mu1; exactly one of them is given at construction.

Derived quantities used throughout:
    q   = 1 - lam*mu1/c = theta/(1+theta), the ladder-success deficit
    tau = 2c/sigma^2, the rate of the exponential oscillation record
    rho = c*q, the profit parameter

The module also exposes the transforms every solver consumes: the central
moments of V(t), the Levy exponent of the net-drift process (whose root at
-R defines the adjustment coefficient R), the Laplace transform Psi* of the
ultimate ruin probability (Pollaczek-Khinchine form), and the MGF of the
maximal aggregate loss L, 1 + r Psi*(-r) for every sigma >= 0, taken as the
equal quotient -rho r / levy_exponent(-r).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._kernels import _positive
from .claims import ClaimDistribution

__all__ = ["PerturbedModel", "CentralMoments"]


class CentralMoments(NamedTuple):
    nu1: float
    nu2: float
    nu3: float
    nu4: float
    nu5: float


@dataclass(frozen=True)
class PerturbedModel:
    """Immutable model object; all operations are pure."""

    claims: ClaimDistribution
    lam: float
    sigma: float
    loading: float = field(default=None)  # type: ignore[assignment]
    premium_rate: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        object.__setattr__(self, "lam", _positive("claim intensity lam", self.lam))
        object.__setattr__(self, "sigma", _positive("sigma", self.sigma, zero=True))
        mu1 = self.claims.raw_moment(1)
        if (self.loading is None) == (self.premium_rate is None):
            raise ValueError("give exactly one of loading or premium_rate")
        if self.loading is not None:
            object.__setattr__(self, "loading", _positive("loading", self.loading))
            object.__setattr__(self, "premium_rate", (1.0 + self.loading) * self.lam * mu1)
        else:
            object.__setattr__(self, "premium_rate", _positive("premium_rate", self.premium_rate))
            object.__setattr__(self, "loading", self.premium_rate / (self.lam * mu1) - 1.0)
        if not self.premium_rate - self.lam * mu1 > 0.0:
            raise ValueError("net profit condition violated: c <= lam * mu1")
        # sigma^2 and tau = 2c/sigma^2 must be finite floats. sigma * sigma,
        # unlike sigma**2, cannot raise on overflow, and the quotient is taken
        # only once the square is known not to have underflowed to 0
        if self.sigma > 0.0:
            square = self.sigma * self.sigma
            if not square < np.inf:
                raise ValueError(f"sigma = {self.sigma!r} is too large: sigma^2 is not a finite float")
            if not (square > 0.0 and 2.0 * self.premium_rate / square < np.inf):
                raise ValueError(
                    f"sigma = {self.sigma!r} is so small that tau = 2c/sigma^2 is not "
                    "a finite float; use sigma=0 for a model without diffusion"
                )

    # -- derived parameters --------------------------------------------------

    @property
    def c(self) -> float:
        return self.premium_rate

    @property
    def q(self) -> float:
        return 1.0 - self.lam * self.claims.raw_moment(1) / self.c

    @property
    def tau(self) -> float:
        if self.sigma == 0.0:
            raise ValueError("tau undefined for sigma = 0 (no diffusion)")
        return 2.0 * self.c / self.sigma**2

    @property
    def rho(self) -> float:
        return self.c * self.q

    # -- moments of the surplus at a fixed time -------------------------------

    def central_moments(self, u: float, t: float) -> CentralMoments:
        """Central moments nu1..nu5 of V(t) started from u.

        nu4 is the cumulant conversion lam*t*mu4 + 3*nu2^2; the variance term
        already contains the diffusion contribution, so no separate
        3*sigma^4*t^2 is added (adding it would double count: the fourth
        central moment of any Levy increment is kappa4 + 3*kappa2^2).
        """
        t = _positive("t", t)
        u = _positive("u", u, zero=True)
        m = [self.claims.raw_moment(k) for k in range(1, 6)]
        lt = self.lam * t
        nu2 = lt * m[1] + self.sigma**2 * t
        return CentralMoments(
            nu1=u + self.c * t - lt * m[0],
            nu2=nu2,
            nu3=-lt * m[2],
            nu4=lt * m[3] + 3.0 * nu2**2,
            nu5=-lt * m[4] - 10.0 * lt * m[2] * nu2,
        )

    # -- transforms ------------------------------------------------------------

    def levy_exponent(self, s: float) -> float:
        """Laplace exponent of the claims-minus-premium net process at real s.

        c*s + lam*(M_X(-s) - 1) + sigma^2 s^2 / 2; vanishes at 0 with slope
        c - lam*mu1 > 0, and at s = -R, R the adjustment coefficient. The
        claim family forms M_X(-s) - 1 without subtracting 1, so the value
        keeps its relative accuracy near s = 0 and its sign near -R.
        """
        if not -s < self.claims.mgf_sup:
            raise ValueError(
                f"levy_exponent argument {s!r} not above -mgf_sup = {-self.claims.mgf_sup!r}"
            )
        return self.c * s + self.lam * self.claims._mgf_minus_one(-s) + 0.5 * self.sigma**2 * s * s

    def pk_transform(self, s):
        """Laplace transform Psi*(s) of the ultimate ruin probability.

        Pollaczek-Khinchine form. For sigma > 0:
            Psi*(s) = [s + tau(1-q)(1 - h2*(s))] / [s (s + tau - tau(1-q) h2*(s))]
        where h2* is the equilibrium claim transform. For sigma = 0 the
        classical pathway applies: Psi*(s) = (1 - phi*(s)) / s with
        phi*(s) = q / (1 - (1-q) h2*(s)) the transform of the maximal
        aggregate loss distribution.

        Accepts complex s (inversion contour); s = 0 is a pole.
        """
        q = self.q
        h2 = self.claims.equilibrium_laplace(s)
        if self.sigma == 0.0:
            mgf_l = q / (1.0 - (1.0 - q) * h2)
            return (1.0 - mgf_l) / s
        tau = self.tau
        return (s + tau * (1.0 - q) * (1.0 - h2)) / (s * (s + tau - tau * (1.0 - q) * h2))

    def mgf_max_loss(self, r: float) -> float:
        """MGF E[e^{rL}] of the maximal aggregate loss L = sup_t (loss process).

        The Pollaczek-Khinchine quotient -rho r / levy_exponent(-r): equal to
        1 + r Psi*(-r) for every sigma >= 0, as psi(u) = P(L > u), but with
        no cancellation on either side of r = 0, where it is exactly 1.
        Finite exactly below the adjustment coefficient R, where
        r * levy_exponent(-r) < 0, and a ValueError at or beyond R.
        """
        from .coefficients import adjustment_coefficient  # coefficients imports this module

        if r == 0.0:
            return 1.0
        g = np.nan
        if r < 0.0 or 0.0 < r < adjustment_coefficient(self).R:
            g = self.levy_exponent(-r)
        # also rejects NaN, and the few ulp below R where the sign of g is rounding noise
        if not r * g < 0.0:
            raise ValueError(
                f"maximal-loss MGF diverges at r={r!r} (argument at or beyond "
                "the adjustment coefficient)"
            )
        return -self.rho * r / g

    def mean_max_loss(self) -> float:
        """E[L] = (sigma^2 + lam*mu2) / (2 c q), the integral of the ruin curve."""
        return (self.sigma**2 + self.lam * self.claims.raw_moment(2)) / (2.0 * self.c * self.q)
