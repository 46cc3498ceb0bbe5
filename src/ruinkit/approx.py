"""Closed-form ruin approximations for the perturbed model.

Every closed form here is a short exponential sum
psi(u) ~ sum_k amp_k * exp(-rate_k * u), evaluated by one function
(_exponential_sum). The families differ only in how they fit (amps, rates):

* four-moment exponential fit (moment-matched single-exponential claim
  model solved exactly as a one-component mixture),
* the exact exponential sum for mixed-exponential claims, whose rates are
  the roots of the Lundberg function, one in each gap between the claim
  rates (_mixture_modes, the one mode solver, bisected by the same
  _kernels._bisect that finds the adjustment coefficient),
* the two-moment exponential tail approximation,
* transform-series exponential approximants of orders 3, 4, 5 built from
  the small-s expansion of the ruin transform,
* a two-point rational (linear over quadratic) transform fit inverted in
  closed form.

All approximants return a float for scalar or 0-d u and an array of u's
shape otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, nextafter, prod, sqrt

import numpy as np

from ._kernels import _bisect
from .claims import Exponential, MixedExponential
from .model import PerturbedModel

__all__ = [
    "FitInfeasibleError",
    "DeVylderParams",
    "TwoPointPadeParams",
    "de_vylder_fit",
    "de_vylder_ruin",
    "mixture_exact_ruin",
    "renyi_approx",
    "pkdv_approx",
    "pkdv_coefficients",
    "two_point_pade_params",
    "two_point_pade",
    "relative_error",
]


class FitInfeasibleError(RuntimeError):
    """Moment fit produced parameters outside the model's domain."""


def _exponential_sum(amps, rates, u) -> float | np.ndarray:
    """sum_k amps[k] * exp(-rates[k] * u): a float for scalar or 0-d u, an
    array of u's shape otherwise. Raises ValueError unless every u is
    finite and nonnegative."""
    u_arr = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u_arr) & (u_arr >= 0.0)):
        raise ValueError("u must be finite and nonnegative")
    vals = sum(a * np.exp(-r * u_arr) for a, r in zip(amps, rates))
    return float(vals) if u_arr.ndim == 0 else vals


@dataclass(frozen=True)
class DeVylderParams:
    """Single-exponential claim model matched to four central moments,
    plus the two decay modes of its exact ruin formula."""

    lam: float
    premium_rate: float
    sigma_sq: float
    claim_rate: float
    rate1: float
    rate2: float
    amp1: float
    amp2: float


@dataclass(frozen=True)
class TwoPointPadeParams:
    a0: float
    a1: float
    b0: float
    b1: float
    b2: float
    k1: float
    k2: float
    zeta: float
    eta: float


def de_vylder_fit(model: PerturbedModel) -> DeVylderParams:
    """Fit the four-parameter exponential-claim surrogate whose first four
    central surplus moments match the given model's.

    For exponential claims the fit is the identity, so the surrogate's ruin
    probability is the model's own.
    """
    lam, sigma = model.lam, model.sigma
    m1 = model.claims.raw_moment(1)
    m2 = model.claims.raw_moment(2)
    m3 = model.claims.raw_moment(3)
    m4 = model.claims.raw_moment(4)
    lam_star = 32.0 * lam * m3**4 / (3.0 * m4**3)
    c_star = lam * (8.0 * m3**3 / (3.0 * m4**2) + model.loading * m1)
    sigma_star_sq = lam * (m2 - 4.0 * m3**2 / (3.0 * m4)) + sigma**2
    beta = 4.0 * m3 / m4
    if sigma_star_sq <= 0.0:
        raise FitInfeasibleError(
            f"fitted diffusion variance {sigma_star_sq:.6g} is not positive; "
            "the third/fourth claim moments absorb the full second moment"
        )
    (rate1, rate2), (amp1, amp2) = _mixture_modes(lam_star, c_star, sigma_star_sq, Exponential(beta))
    return DeVylderParams(
        lam=lam_star,
        premium_rate=c_star,
        sigma_sq=sigma_star_sq,
        claim_rate=beta,
        rate1=rate1,
        rate2=rate2,
        amp1=amp1,
        amp2=amp2,
    )


def de_vylder_ruin(model: PerturbedModel, u) -> float | np.ndarray:
    p = de_vylder_fit(model)
    return _exponential_sum((p.amp1, p.amp2), (p.rate1, p.rate2), u)


def _mixture_modes(lam: float, c: float, sigma_sq: float, claims: MixedExponential):
    """Rates and amplitudes of the exact ruin formula for mixed-exponential
    claims with diffusion variance sigma_sq: Psi(u) = sum_k amp_k * exp(-r_k u).

    The r_k are the roots of g(r) = lam*(M(r) - 1) - c*r + sigma_sq*r^2/2,
    M continued past the smallest claim rate. g starts below 0 in each gap
    (0, b_1), ..., (b_n, inf) between the n distinct rates b_j, ends at +inf,
    and has only n+1 roots, so each gap holds one, bisected to adjacent
    floats; amp_k = prod_j(1 - r_k/b_j) / prod_{i != k}(1 - r_k/r_i).
    """
    if sigma_sq <= 0.0:
        raise ValueError("the closed form requires a diffusion term (sigma > 0)")
    b = sorted(set(claims.rates))

    def g(r: float) -> float:
        return -c * r + lam * claims._mgf_minus_one(r) + 0.5 * sigma_sq * r * r

    # past 2*b_n each r/(b_j - r) is above -2, so g > -2*lam - c*r + sigma_sq*r^2/2,
    # positive past that quadratic's root; doubled as a margin for rounding
    top = 2.0 * max(2.0 * b[-1], (c + sqrt(c * c + 4.0 * sigma_sq * lam)) / sigma_sq)
    roots = []
    for lo, hi in zip([0.0] + [nextafter(bj, inf) for bj in b], [nextafter(bj, 0.0) for bj in b] + [top]):
        # g(0) = 0, so its slope there, lam*mu1 - c, stands in for g(lo)
        g_lo = g(lo) if lo else lam * claims.mean - c
        if not g_lo < 0.0 <= g(hi):
            raise ValueError(f"no sign change of the Lundberg function on ({lo!r}, {hi!r})")
        ends = _bisect(g, lo, hi, 0.0)[:2]
        roots.append(min(ends, key=lambda r: abs(g(r))))
    amps = [
        prod((bj - rk) / bj for bj in b) / prod((ri - rk) / ri for ri in roots if ri != rk) for rk in roots
    ]
    return roots, amps


def mixture_exact_ruin(lam: float, c: float, sigma: float, weights, rates, u) -> float | np.ndarray:
    """Exact ruin probability for mixed-exponential claims with diffusion,
    as a sum of n+1 decaying exponentials. Raises ValueError for input that
    is no model (PerturbedModel's checks) or has sigma = 0."""
    model = PerturbedModel(MixedExponential(weights, rates), lam=lam, sigma=sigma, premium_rate=c)
    r, amps = _mixture_modes(model.lam, model.c, model.sigma**2, model.claims)
    return _exponential_sum(amps, r, u)


def renyi_approx(model: PerturbedModel, u) -> float | np.ndarray:
    """Two-moment exponential tail approximation (1-q)*exp(-r0*u) with
    r0 = 3*q*mu2/mu3, matching the mean of the combined ladder height."""
    q = model.q
    m2 = model.claims.raw_moment(2)
    m3 = model.claims.raw_moment(3)
    return _exponential_sum((1.0 - q,), (3.0 * q * m2 / m3,), u)


def pkdv_coefficients(model: PerturbedModel, order: int, corrected: bool = False) -> tuple[float, float]:
    """Amplitude and decay rate of the order-3/4/5 exponential approximant
    matched to the small-s series of the ruin transform.

    eta_k = lam*mu_k are jump-measure moments and eta2s = lam*mu2 + sigma^2
    carries the diffusion load. The order-5 weights in the reference
    tabulation this library reproduces enter with sigma unsquared in eta2s;
    that slip is kept as the default so the tabulated column is matched,
    and corrected=True restores sigma^2.
    """
    lam, sigma = model.lam, model.sigma
    cq = model.c * model.q
    eta2s = lam * model.claims.raw_moment(2) + sigma**2
    if order == 3:
        m3 = lam * model.claims.raw_moment(3)
        denom = 3.0 * eta2s**2 + 2.0 * cq * m3
        return 3.0 * eta2s**2 / denom, 6.0 * cq * eta2s / denom
    if order == 4:
        m3 = lam * model.claims.raw_moment(3)
        m4 = lam * model.claims.raw_moment(4)
        denom = 2.0 * eta2s * m3 + cq * m4
        return 2.0 * eta2s * m3 / denom, 4.0 * cq * m3 / denom
    if order == 5:
        if not corrected:
            eta2s = lam * model.claims.raw_moment(2) + sigma
        m4 = lam * model.claims.raw_moment(4)
        m5 = lam * model.claims.raw_moment(5)
        denom = 5.0 * eta2s * m4 + 2.0 * cq * m5
        return 5.0 * eta2s * m4 / denom, 10.0 * cq * m4 / denom
    raise ValueError(f"order must be 3, 4, or 5, got {order}")


def pkdv_approx(model: PerturbedModel, order: int, u, corrected: bool = False) -> float | np.ndarray:
    amp, rate = pkdv_coefficients(model, order, corrected=corrected)
    return _exponential_sum((amp,), (rate,), u)


def two_point_pade_params(model: PerturbedModel) -> TwoPointPadeParams:
    """Coefficients of the (1,2) rational fit to the ruin transform,
    matched at s=0 and s=inf, and the inverted two-mode representation.

    k1 = a1/b2 = 1-q exactly, so the value at u=0 is 1-q. b0*b2 > 0 makes
    zeta < eta, so both modes decay.
    """
    if model.sigma == 0.0:
        raise ValueError("the two-point fit requires a diffusion term (sigma > 0)")
    q, tau = model.q, model.tau
    m1 = model.claims.raw_moment(1)
    m2 = model.claims.raw_moment(2)
    m3 = model.claims.raw_moment(3)
    a0 = 1.0 + (1.0 - q) ** 2 * tau * m2 / (2.0 * m1)
    a1 = (1.0 - q) ** 2 * tau * m3 / (6.0 * m1)
    b0 = q * tau
    b1 = 1.0 + (a0 - 1.0) / (1.0 - q)
    b2 = a1 / (1.0 - q)
    disc = b1**2 - 4.0 * b0 * b2
    if disc < 0.0:
        raise ValueError(
            f"complex denominator roots (discriminant {disc:.6g}); "
            "the two-mode inversion needs real roots"
        )
    root = sqrt(disc)
    zeta = root / (2.0 * b2)
    eta = b1 / (2.0 * b2)
    k1 = a1 / b2
    k2 = (-a1 * b1 + 2.0 * a0 * b2) / (b2 * root)
    return TwoPointPadeParams(a0=a0, a1=a1, b0=b0, b1=b1, b2=b2, k1=k1, k2=k2, zeta=zeta, eta=eta)


def two_point_pade(model: PerturbedModel, u) -> float | np.ndarray:
    """Two-point rational approximation, evaluated in the cancellation-free
    split 0.5*(k1+k2)*exp(-(eta-zeta)u) + 0.5*(k1-k2)*exp(-(eta+zeta)u)."""
    p = two_point_pade_params(model)
    return _exponential_sum((0.5 * (p.k1 + p.k2), 0.5 * (p.k1 - p.k2)), (p.eta - p.zeta, p.eta + p.zeta), u)


def relative_error(approx_value, exact_value) -> float | np.ndarray:
    """|1 - approx/exact|."""
    a = np.asarray(approx_value, dtype=float)
    e = np.asarray(exact_value, dtype=float)
    if np.any(e == 0.0):
        raise ValueError("relative error is undefined against an exact value of 0")
    vals = np.abs(1.0 - a / e)
    return float(vals) if a.ndim == 0 and e.ndim == 0 else vals
