"""Closed-form ruin approximations for the perturbed model.

Five families:

* four-moment exponential fit (moment-matched single-exponential claim
  model solved exactly by its two-exponential formula),
* the exact two-term/multi-term exponential solution for mixed-exponential
  claims (a companion-matrix root solve of the cleared characteristic
  polynomial),
* the two-moment exponential tail approximation,
* transform-series exponential approximants of orders 3, 4, 5 built from
  the small-s expansion of the ruin transform,
* a two-point rational (linear over quadratic) transform fit inverted in
  closed form.

All approximants return plain floats or numpy arrays following the input
shape of u.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

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


def _as_given(values: np.ndarray, scalar_input: bool):
    return float(values[()]) if scalar_input else values


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


def _two_exponential_modes(lam: float, c: float, sigma_sq: float, beta: float):
    """Decay rates and amplitudes of the exact ruin probability for an
    Exp(beta) claim model with diffusion variance sigma_sq > 0.

    The rates solve sigma_sq*r^2 - (2c + beta*sigma_sq)*r + 2(c*beta - lam) = 0.
    The discriminant equals (2c - beta*sigma_sq)^2 + 8*lam*sigma_sq > 0, so
    the modes are always real; both rates are positive iff c > lam/beta.
    """
    disc = (2.0 * c - beta * sigma_sq) ** 2 + 8.0 * lam * sigma_sq
    root = sqrt(disc)
    mid = 2.0 * c + beta * sigma_sq
    rate1 = (mid - root) / (2.0 * sigma_sq)
    rate2 = (mid + root) / (2.0 * sigma_sq)
    amp1 = (rate1 - beta) * rate2 / (beta * (rate1 - rate2))
    amp2 = (rate2 - beta) * rate1 / (beta * (rate2 - rate1))
    return rate1, rate2, amp1, amp2


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
    rate1, rate2, amp1, amp2 = _two_exponential_modes(lam_star, c_star, sigma_star_sq, beta)
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
    u_arr = np.asarray(u, dtype=float)
    vals = p.amp1 * np.exp(-p.rate1 * u_arr) + p.amp2 * np.exp(-p.rate2 * u_arr)
    return _as_given(vals, u_arr.ndim == 0)


def _mixture_modes(lam: float, c: float, sigma: float, weights, rates):
    """Roots and amplitudes of the exact ruin formula for mixed-exponential
    claims: Psi(u) = sum_k amp_k * exp(-r_k u).

    The r_k are the n+1 roots of

        2*lam * sum_j w_j prod_{k != j}(b_k - r) = (2c - sigma^2 r) prod_j(b_j - r)

    found as companion-matrix eigenvalues of the cleared polynomial. The
    amplitude formula assumes simple roots; complex, repeated, or
    nonpositive roots reject the closed-form path.
    """
    if sigma <= 0.0:
        raise ValueError("the closed form requires a diffusion term (sigma > 0)")
    w = np.asarray(weights, dtype=float)
    b = np.asarray(rates, dtype=float)
    n = b.size
    # left side: 2*lam * sum_j w_j * prod_{k!=j}(b_k - r); np.poly builds
    # monic prod(r - b_k), so each factor picks up (-1)^(n-1)
    lhs = np.zeros(n)
    sign_partial = (-1.0) ** (n - 1)
    for j in range(n):
        others = np.delete(b, j)
        lhs = np.polyadd(lhs, 2.0 * lam * w[j] * sign_partial * np.poly(others))
    full = (-1.0) ** n * np.poly(b)
    rhs = np.polymul(np.array([-(sigma**2), 2.0 * c]), full)
    poly = np.polysub(lhs, rhs)
    roots = np.roots(poly)

    scale = max(1.0, float(np.max(np.abs(roots))))
    if np.any(np.abs(roots.imag) > 1e-8 * scale):
        raise ValueError(f"complex characteristic roots {roots}; closed form not applicable")
    r = np.sort(roots.real)
    if r.size != n + 1 or np.any(r <= 0.0):
        raise ValueError(f"expected {n + 1} positive roots, got {r}")
    gaps = np.diff(r)
    if np.any(gaps < 1e-8 * scale):
        raise ValueError("repeated characteristic roots; closed form assumes simple roots")

    amps = np.empty(n + 1)
    for k in range(n + 1):
        amps[k] = np.prod((r[k] - b) / b)
        others = np.delete(r, k)
        amps[k] *= np.prod(others / (r[k] - others))
    return r, amps


def mixture_exact_ruin(lam: float, c: float, sigma: float, weights, rates, u) -> float | np.ndarray:
    """Exact ruin probability for mixed-exponential claims with diffusion,
    as a sum of n+1 decaying exponentials."""
    r, amps = _mixture_modes(lam, c, sigma, weights, rates)
    u_arr = np.asarray(u, dtype=float)
    vals = np.exp(-np.multiply.outer(u_arr, r)) @ amps
    return _as_given(vals, u_arr.ndim == 0)


def renyi_approx(model: PerturbedModel, u) -> float | np.ndarray:
    """Two-moment exponential tail approximation (1-q)*exp(-r0*u) with
    r0 = 3*q*mu2/mu3, matching the mean of the combined ladder height."""
    q = model.q
    m2 = model.claims.raw_moment(2)
    m3 = model.claims.raw_moment(3)
    rate = 3.0 * q * m2 / m3
    u_arr = np.asarray(u, dtype=float)
    vals = (1.0 - q) * np.exp(-rate * u_arr)
    return _as_given(vals, u_arr.ndim == 0)


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
    u_arr = np.asarray(u, dtype=float)
    vals = amp * np.exp(-rate * u_arr)
    return _as_given(vals, u_arr.ndim == 0)


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
    split 0.5*(k1+k2)*exp((zeta-eta)u) + 0.5*(k1-k2)*exp(-(zeta+eta)u)."""
    p = two_point_pade_params(model)
    u_arr = np.asarray(u, dtype=float)
    vals = 0.5 * (p.k1 + p.k2) * np.exp((p.zeta - p.eta) * u_arr) + 0.5 * (p.k1 - p.k2) * np.exp(
        -(p.zeta + p.eta) * u_arr
    )
    return _as_given(vals, u_arr.ndim == 0)


def relative_error(approx_value, exact_value) -> float | np.ndarray:
    """|1 - approx/exact|."""
    a = np.asarray(approx_value, dtype=float)
    e = np.asarray(exact_value, dtype=float)
    if np.any(e == 0.0):
        raise ValueError("relative error is undefined against an exact value of 0")
    vals = np.abs(1.0 - a / e)
    scalar = a.ndim == 0 and e.ndim == 0
    return _as_given(vals, scalar)
