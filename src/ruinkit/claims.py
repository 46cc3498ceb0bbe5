"""Claim-size distributions for the perturbed compound Poisson surplus model.

Each distribution exposes closed-form raw moments (orders 1 through 5), the
moment generating function and its Laplace counterpart, tail probabilities
and their integrals from 0 and to infinity, the integrated-tail
(equilibrium) transforms, and the combined ladder height: the sum of an
Exp(tau) oscillation record and an equilibrium-distributed claim record. One
base-class evaluation serves every family from tail(), integrated_tail() and
upper_integrated_tail(): a single pass over the ladder integral J gives the
ladder tail (upper_integrated_tail + J) / mean and the density tau J / mean,
both sums of positive terms that keep their relative accuracy deep in the
tail, where 1 - h3_cdf is exactly 0. The lattice bounds and the cause split
read that tail; h3_cdf and h3_density are views on the same evaluation.

Exponential is the one-component MixedExponential, whose sums give the
exponential closed forms bitwise (1.0 * x and 0 + x are exact); it keeps its
own class for its one-uniform Monte Carlo sampler.

All pointwise functions accept scalars or numpy arrays and return a matching
shape. Transform functions (mgf, laplace, equilibrium_laplace) also accept
complex arguments; on the real axis the MGF is guarded at its divergence
point, while complex off-axis evaluation follows the analytic continuation
needed by the inversion contour.

Only the gamma family needs scipy: its four tail methods call the
regularized incomplete gamma functions of scipy.special, imported on first
use. Importing this module, or running an exponential or mixture model,
loads numpy alone.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cache

import numpy as np

from ._kernels import _decay_scan, _gamma_claim

__all__ = [
    "ClaimDistribution",
    "Exponential",
    "Gamma",
    "MixedExponential",
]

_MAX_MOMENT_ORDER = 5

# the ladder panel rules: Gauss-Legendre on [-1, 1] of _GL_ORDERS nodes, the
# fewest that a panel's relative width rho = (hi - lo) / min(width, lo)
# allows (width as in _ladder_integral; rho is infinite on the panel from 0).
# The integrand f(t) = tail(t) e^{-tau (hi - t)} is analytic within
# min(width, lo) of the panel: the gamma tail's branch point sits at 0, and
# width is the scale of the tail and of the weight. By Cauchy's estimate the
# 2n-th derivative of f on [-1, 1] is at most (2n)! (rho/2)^{2n} times f's
# size, and the n-node remainder is c_n times that derivative, with
# c_n = 2^{2n+1} (n!)^4 / ((2n+1) ((2n)!)^3) (Davis & Rabinowitz, Methods of
# Numerical Integration, 1984). _GL_LIMITS[i] is the largest rho with
# c_n (2n)! (rho/2)^{2n} <= 2^-56 for n = _GL_ORDERS[i], rounded down; wider
# panels, the panel from 0 and the dyadic grading panels (rho = 1) among
# them, keep 8 nodes as before
_GL_ORDERS = (3, 4, 6, 8)
_GL_LIMITS = (0.005184, 0.02727, 0.1436)
# knots 2^-50 .. 2^0 of the panel width: near the origin no panel is wider
# than its distance from 0 (a gamma tail with shape < 1 has a power kink there)
_GRADING = np.exp2(-np.arange(50, -1, -1.0))
# a stretch more than _REACH / tau below a point is weighted by at most
# e^{-750}, under the smallest subnormal double
_REACH = 750.0
# panels evaluated at once, which bounds the memory of one ladder call
_CHUNK_PANELS = 4096


def _maybe_scalar(value: np.ndarray, scalar_input: bool):
    if scalar_input:
        return value.item() if isinstance(value, np.ndarray) else value
    return value


class ClaimDistribution(ABC):
    """Positive claim-size distribution with light-tailed transform support."""

    # -- moments -----------------------------------------------------------

    @abstractmethod
    def raw_moment(self, k: int) -> float:
        """E[X^k] in closed form for k = 1..5."""

    def _check_order(self, k: int) -> None:
        if not isinstance(k, (int, np.integer)) or not 1 <= k <= _MAX_MOMENT_ORDER:
            raise ValueError(
                f"moment order must be an integer in 1..{_MAX_MOMENT_ORDER}, got {k!r}"
            )

    @property
    def mean(self) -> float:
        return self.raw_moment(1)

    # -- Monte Carlo sampler -----------------------------------------------

    _mc_draws = None  # uniform rows a claim reads; None: a varying number

    def _mc_claims(self, u, state):
        """(k, n) claims from the (k, _mc_draws, n) rows u of a block of k
        events on n lanes, or from the n lane states, advanced in place."""
        raise TypeError(f"no sampler for claim family {type(self).__name__}")

    # -- transforms --------------------------------------------------------

    @abstractmethod
    def _mgf_unchecked(self, r):
        """Analytic continuation of the MGF; no domain guard."""

    @abstractmethod
    def _mgf_minus_one(self, r: float) -> float:
        """M(r) - 1 for real r below mgf_sup, formed without the
        cancellation of subtracting 1 from an MGF near 1."""

    @property
    @abstractmethod
    def mgf_sup(self) -> float:
        """Supremum of the real MGF domain (divergence abscissa)."""

    def mgf(self, r):
        """E[e^{rX}]. Real arguments at or beyond mgf_sup are a hard error."""
        arr = np.asarray(r)
        real_part = np.real(arr)
        on_real_axis = np.imag(arr) == 0 if np.iscomplexobj(arr) else np.ones_like(arr, dtype=bool)
        if np.any(on_real_axis & (real_part >= self.mgf_sup)):
            raise ValueError(
                f"mgf argument {r!r} not below divergence point {self.mgf_sup!r}"
            )
        return self._mgf_unchecked(r)

    def laplace(self, s):
        """Laplace transform of the claim density, mgf(-s)."""
        return self.mgf(-s) if np.isscalar(s) else self.mgf(np.negative(s))

    def equilibrium_laplace(self, s):
        """Laplace transform of the integrated-tail (equilibrium) density.

        (1 - laplace(s)) / (s * mean), with the s -> 0 limit of 1 taken
        explicitly and a short series used near 0 to dodge cancellation.
        """
        scalar_input = np.isscalar(s)
        arr = np.atleast_1d(np.asarray(s, dtype=complex if np.iscomplexobj(np.asarray(s)) else float))
        mu1 = self.raw_moment(1)
        mu2 = self.raw_moment(2)
        mu3 = self.raw_moment(3)
        out = np.empty(arr.shape, dtype=arr.dtype if np.iscomplexobj(arr) else float)
        # the crossover sits where the series truncation error (next term
        # ~ s^3 mu4 / 24 mu1) and the subtractive cancellation in the
        # direct quotient are both far below double precision noise
        small = np.abs(arr) * mu2 / (2.0 * mu1) < 1e-5
        if np.any(small):
            z = arr[small]
            out[small] = 1.0 - z * mu2 / (2.0 * mu1) + z * z * mu3 / (6.0 * mu1)
        if np.any(~small):
            z = arr[~small]
            out[~small] = (1.0 - self._mgf_unchecked(-z)) / (z * mu1)
        result = out.reshape(np.shape(s)) if not scalar_input else out
        return _maybe_scalar(result, scalar_input)

    # -- distribution functions --------------------------------------------

    @abstractmethod
    def cdf(self, x):
        """P(X <= x); 0 at x = 0."""

    @abstractmethod
    def tail(self, x):
        """P(X > x), computed directly: 1 - cdf(x) would lose the relative
        accuracy that the ladder tail, the bounds and the cause split need."""

    def equilibrium_density(self, x):
        """Density of the integrated-tail distribution, tail(x) / mean."""
        return self.tail(x) / self.raw_moment(1)

    # -- combined ladder height --------------------------------------------

    @abstractmethod
    def integrated_tail(self, x):
        """int_0^x tail(t) dt in closed form; tends to the mean."""

    @abstractmethod
    def upper_integrated_tail(self, x):
        """int_x^inf tail(t) dt = E[(X - x)+] in closed form; mean at 0."""

    def h3_cdf(self, x, tau: float):
        """CDF of (Exp(tau) record) + (equilibrium claim record) at x.

        H3 = (integrated_tail - J) / mean with J from _ladder_integral; 0 for
        x <= 0. The same path serves every family.
        """
        return self._ladder(x, tau, cdf=True)[0]

    def h3_density(self, x, tau: float):
        """Density of the combined ladder height, tau * J(x) / mean; 0 for x <= 0.

        Every term of J is positive, so the density keeps its relative
        accuracy in the tail.
        """
        return self._ladder(x, tau)[1]

    def _ladder(self, x, tau: float, cdf: bool = False):
        """(ladder tail, ladder density) at x from one _ladder_integral pass.

        The tail is 1 - H3 = (upper_integrated_tail + J) / mean, a sum of
        positive terms, and 1 for x <= 0; with cdf=True the first entry is
        H3 = (integrated_tail - J) / mean instead, which is relative near 0.
        Both entries match the shape of x.
        """
        arr, scalar_input = _ladder_args(x, tau)
        flat = arr.ravel()
        part = np.full(flat.shape, 0.0 if cdf else 1.0)
        density = np.zeros(flat.shape)
        pos = flat > 0.0
        xs = flat[pos]
        j = self._ladder_integral(xs, tau)
        part[pos] = (self.integrated_tail(xs) - j if cdf else self.upper_integrated_tail(xs) + j) / self.mean
        density[pos] = tau * j / self.mean
        return (
            _maybe_scalar(part.reshape(arr.shape), scalar_input),
            _maybe_scalar(density.reshape(arr.shape), scalar_input),
        )

    def _ladder_integral(self, x: np.ndarray, tau: float) -> np.ndarray:
        """int_0^x e^{-tau(x-t)} tail(t) dt at each positive finite x.

        One forward pass over panels whose edges are the query points, a
        dyadic grading toward 0 and equal splits no wider than 1/tau, the
        claim mean or its standard deviation; each panel takes the
        Gauss-Legendre rule of 3, 4, 6 or 8 nodes that the largest relative
        width at or after it allows (_GL_LIMITS), and the integral moves
        forward as
        J_k = e^{-tau(hi_k - hi_{k-1})} J_{k-1} + panel_k (_decay_scan). A gap is
        integrated only over its last _REACH / tau: what lies below is scaled
        by e^{-_REACH}, under the smallest double.
        """
        if np.all(x[1:] > x[:-1]):  # both solvers pass increasing points
            pts, inverse = x, None
        else:
            pts, inverse = np.unique(x, return_inverse=True)
        width = min(1.0 / tau, self.mean, math.sqrt(self.raw_moment(2) - self.mean**2))
        grading = width * _GRADING
        knots = np.insert(pts, np.searchsorted(pts, grading), grading)
        at = np.arange(pts.size) + np.searchsorted(grading, pts, side="right")

        start = np.maximum(np.concatenate(([0.0], knots[:-1])), knots - _REACH / tau)
        pieces = np.maximum(np.ceil((knots - start) / width), 1.0).astype(np.intp)
        last = np.cumsum(pieces) - 1  # panel ending at each knot
        gap = np.repeat(np.arange(knots.size), pieces)
        hi = knots[gap] - (knots - start)[gap] * ((last[gap] - np.arange(gap.size)) / pieces[gap])
        lo = np.concatenate(([0.0], hi[:-1]))
        lo[last - pieces + 1] = start

        # The order a panel needs falls with its distance from 0, but for
        # single narrow panels beside a grading knot, so each panel takes the
        # rule of the largest rho at or after it. The order then never rises
        # along the panels, which run as four slices of 8, 6, 4 and 3 nodes
        # (some empty), and a grid whose widths vary from panel to panel
        # pays at most the 8 nodes a panel it paid before
        half = 0.5 * (hi - lo)
        with np.errstate(divide="ignore"):  # rho = inf on the panel from 0
            rho = 2.0 * half / np.minimum(width, lo)
        # the panels whose largest rho at or after them is at most each limit
        # are the last ones, counted from the end
        within = np.searchsorted(np.maximum.accumulate(rho[::-1]), _GL_LIMITS[::-1], side="right")
        stops = (hi.size - within).tolist() + [hi.size]
        panel = np.empty(hi.size)
        for n, a, b in zip(_GL_ORDERS[::-1], [0] + stops[:-1], stops):
            nodes, weights = _gl_rule(n)
            for k in range(a, b, _CHUNK_PANELS):
                s = slice(k, min(k + _CHUNK_PANELS, b))
                back = half[s, None] * (1.0 - nodes)  # hi - node
                vals = self.tail(hi[s, None] - back) * np.exp(-tau * back)
                panel[s] = (vals @ weights) * half[s]
        values = _decay_scan(panel, hi, tau)[last[at]]
        return values if inverse is None else values[inverse]


@cache
def _gl_rule(n: int):
    # (nodes, weights) of the n-node Gauss-Legendre rule, formed on first use
    return np.polynomial.legendre.leggauss(n)


def _check_parameter(name: str, value: float) -> None:
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _ladder_args(x, tau: float):
    if not 0.0 < tau < math.inf:
        raise ValueError(f"tau must be finite and positive, got {tau!r}")
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("x must be finite")
    return arr, np.isscalar(x)


# ---------------------------------------------------------------------------
# concrete families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Gamma(ClaimDistribution):
    """Gamma claim sizes, shape/rate parameterization. Gamma(1, b) == Exponential(b)."""

    shape: float
    rate: float

    def __post_init__(self):
        _check_parameter("shape", self.shape)
        _check_parameter("rate", self.rate)

    def _mc_claims(self, u, state):
        return _gamma_claim(state, self.shape, self.rate)[None]

    def raw_moment(self, k: int) -> float:
        self._check_order(k)
        num = 1.0
        for j in range(k):
            num *= self.shape + j
        return num / self.rate**k

    def _mgf_unchecked(self, r):
        base = 1.0 - np.asarray(r) / self.rate
        return np.power(base, -self.shape) if not np.isscalar(r) else (1.0 - r / self.rate) ** -self.shape

    def _mgf_minus_one(self, r: float) -> float:
        return math.expm1(-self.shape * math.log1p(-r / self.rate))

    @property
    def mgf_sup(self) -> float:
        return self.rate

    def cdf(self, x):
        from scipy import special

        return special.gammainc(self.shape, self.rate * np.asarray(x))

    def tail(self, x):
        from scipy import special

        return special.gammaincc(self.shape, self.rate * np.asarray(x))

    def integrated_tail(self, x):
        from scipy import special

        # x Q(a, bx) plus int_0^x t f(t) dt = (a/b) P(a+1, bx)
        x_arr = np.asarray(x)
        bx = self.rate * x_arr
        return x_arr * special.gammaincc(self.shape, bx) + self.mean * special.gammainc(self.shape + 1.0, bx)

    def upper_integrated_tail(self, x):
        from scipy import special

        # int_x^inf t f(t) dt = (a/b) Q(a+1, bx), less x Q(a, bx). The two
        # terms agree to a factor 1 + O(1/(bx)), so the difference loses a
        # factor bx on the ~eps * bx error scipy's Q already carries in the
        # tail: against 40-digit mpmath it is within 1.5e-13 * bx relative
        # for shapes 0.2 to 50 and bx up to 740, and the ladder tail within
        # 1.1e-13 * max(1, bx), i.e. 7e-11 at 1e-300
        x_arr = np.asarray(x)
        bx = self.rate * x_arr
        q = special.gammaincc(self.shape, bx)
        upper = self.mean * special.gammaincc(self.shape + 1.0, bx) - x_arr * q
        # once Q(a, bx) leaves the normal float range it has lost its digits
        # and the difference is noise; the value dropped there is subnormal
        return np.where(q < np.finfo(float).tiny, 0.0, upper)


@dataclass(frozen=True)
class MixedExponential(ClaimDistribution):
    """Finite mixture of exponentials: sum_i w_i * Exp(rate_i)."""

    weights: tuple[float, ...]
    rates: tuple[float, ...]
    _mc_draws = 2  # the component, then the exponential claim

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        object.__setattr__(self, "rates", tuple(float(b) for b in self.rates))
        if len(self.weights) != len(self.rates) or not self.weights:
            raise ValueError("weights and rates must be equal-length, nonempty")
        for w in self.weights:
            _check_parameter("weight", w)
        for b in self.rates:
            _check_parameter("rate", b)
        if abs(sum(self.weights) - 1.0) > 1e-6:
            raise ValueError(f"weights sum to {sum(self.weights)!r}, expected 1")

    def _mc_claims(self, u, state):
        # the component, searchsorted(cumsum(weights), u) capped at k - 1, is the
        # count of the first k - 1 partial sums below u, at a tenth of the cost
        comp = np.zeros(u[:, 0].shape, dtype=np.intp)
        for w in np.cumsum(self.weights)[:-1]:
            comp += u[:, 0] > w
        return -np.log(u[:, 1]) / np.take(self.rates, comp)

    def raw_moment(self, k: int) -> float:
        self._check_order(k)
        fact = math.factorial(k)
        return sum(w * fact / b**k for w, b in zip(self.weights, self.rates))

    def _mgf_unchecked(self, r):
        r_arr = np.asarray(r)
        total = sum(w * (b / (b - r_arr)) for w, b in zip(self.weights, self.rates))
        return total if not np.isscalar(r) else complex(total) if np.iscomplexobj(r_arr) else float(total)

    def _mgf_minus_one(self, r: float) -> float:
        return sum(w * r / (b - r) for w, b in zip(self.weights, self.rates))

    @property
    def mgf_sup(self) -> float:
        return min(self.rates)

    def cdf(self, x):
        x_arr = np.asarray(x)
        return sum(w * -np.expm1(-b * x_arr) for w, b in zip(self.weights, self.rates))

    def tail(self, x):
        x_arr = np.asarray(x)
        return sum(w * np.exp(-b * x_arr) for w, b in zip(self.weights, self.rates))

    def integrated_tail(self, x):
        x_arr = np.asarray(x)
        return sum(w * -np.expm1(-b * x_arr) / b for w, b in zip(self.weights, self.rates))

    def upper_integrated_tail(self, x):
        x_arr = np.asarray(x)
        return sum(w * np.exp(-b * x_arr) / b for w, b in zip(self.weights, self.rates))


class Exponential(MixedExponential):
    """Exponential claim sizes with the given rate: the one-component mixture."""

    _mc_draws = 1  # one uniform a claim, not the mixture's two

    def __init__(self, rate: float):
        super().__init__(weights=(1.0,), rates=(rate,))

    def __repr__(self) -> str:
        return f"Exponential(rate={self.rate!r})"

    def _mc_claims(self, u, state):
        return -np.log(u[:, 0]) / self.rate

    @property
    def rate(self) -> float:
        return self.rates[0]
