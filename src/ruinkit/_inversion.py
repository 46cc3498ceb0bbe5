"""Numerical inversion of Laplace transforms on the positive real axis.

Two node/weight choices of one Bromwich-contour sum (Abate & Whitt 2006),
suited to completely monotone targets:

* fixed-Talbot: the cotangent contour with M nodes; machine-precision-ish
  for smooth transforms at double precision around M = 20..30.
* Euler summation of the alternating Fourier series (binomial averaging of
  the last M partial sums); accuracy floor ~ 1e-10 from the 10^{M/3}
  roundoff amplification.

Both take a scalar or an array of abscissae t and evaluate the transform
once, on an (n_t, nodes) block of complex points, so callers should pass
transforms that accept complex numpy arrays of any shape.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["invert", "talbot", "euler", "InversionError"]


class InversionError(RuntimeError):
    """Inversion diagnostics exceeded tolerance; carries partial values."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


def _grid(t, degree, name: str):
    """t as a checked (n_t, 1) column, and the checked node count."""
    tc = np.asarray(t, dtype=float).reshape(-1, 1)
    if not np.all(tc > 0.0):
        raise ValueError(f"{name} requires t > 0")
    if int(degree) < 1:
        raise ValueError(f"inversion degree must be at least 1, got {degree!r}")
    return tc, int(degree)


def _shaped(values: np.ndarray, t):
    """Values back in t's shape, or a float for scalar t."""
    return float(values[0]) if np.ndim(t) == 0 else values.reshape(np.shape(t))


def talbot(transform, t, degree: int = 24):
    """Fixed-Talbot inversion at t > 0 (scalar or array) with M = degree nodes."""
    tc, m = _grid(t, degree, "talbot")
    r = 2.0 * m / (5.0 * tc)
    theta = np.arange(1, m) * (math.pi / m)
    cot = np.cos(theta) / np.sin(theta)
    # node 0 is the real point s = r, the theta -> 0 limit of the contour
    s = np.concatenate([r + 0j, r * theta * (cot + 1j)], axis=1)
    sigma = theta + (theta * cot - 1.0) * cot
    fs = np.asarray(transform(s))
    terms = np.real(np.exp(tc * s[:, 1:]) * fs[:, 1:] * (1.0 + 1j * sigma))
    f0 = 0.5 * np.exp(r * tc) * np.real(fs[:, :1])
    return _shaped(((r / m) * (f0 + np.sum(terms, axis=1, keepdims=True)))[:, 0], t)


def euler(transform, t, degree: int = 18):
    """Euler-summation inversion at t > 0 (scalar or array); degree M
    controls both the series truncation (2M terms) and the binomial
    averaging window."""
    tc, m = _grid(t, degree, "euler")
    a = m * math.log(10.0) / 3.0
    k = np.arange(0, 2 * m + 1)
    s = (a + 1j * math.pi * k) / tc  # alpha_k = M ln(10)/3 + i pi k
    # xi weights: 1/2, 1, ..., 1, then binomial tail, last is 2^-M
    xi = np.ones(2 * m + 1)
    xi[0] = 0.5
    xi[2 * m] = 2.0**-m
    for j in range(1, m):
        xi[2 * m - j] = xi[2 * m - j + 1] + (2.0**-m) * math.comb(m, j)
    signs = np.where(k % 2 == 0, 1.0, -1.0)
    fs = np.real(np.asarray(transform(s)))
    return _shaped((10.0 ** (m / 3.0) / tc[:, 0]) * np.sum(xi * signs * fs, axis=1), t)


# method -> (rule, default degree, degree step of the self-check)
_RULES = {"talbot": (talbot, 24, 9), "euler": (euler, 18, 4)}


def invert(
    transform,
    t,
    method: str = "talbot",
    degree: int | None = None,
    check_tol: float | None = None,
):
    """Invert at t (scalar or array) with the chosen method; returns a
    float for scalar t and an array of t's shape otherwise.

    When check_tol is given, the values are recomputed at a higher order and
    each pair must agree within check_tol, else InversionError carries both
    values at the first t that fails (the usual failure mode is a transform
    evaluated outside its representable range, which shows up as wild
    oscillation between orders, or as NaN, which never passes). The checked
    path silences numpy's floating-point warnings, since the check reports
    what they would; the unchecked path keeps them.
    """
    if method not in _RULES:
        raise ValueError(f"unknown inversion method {method!r}")
    rule, default, step = _RULES[method]
    deg = default if degree is None else degree
    if check_tol is None:
        return rule(transform, t, deg)
    with np.errstate(all="ignore"):
        value = rule(transform, t, deg)
        value_hi = rule(transform, t, deg + step)
    failing = np.flatnonzero(~(np.abs(value - value_hi) <= check_tol))
    if failing.size:
        at, lo, hi = (float(np.ravel(x)[failing[0]]) for x in (t, value, value_hi))
        raise InversionError(
            f"{method} orders {deg}/{deg + step} disagree at t={at}: {lo} vs {hi}",
            {"t": at, "value": lo, "value_high_order": hi},
        )
    return value_hi
