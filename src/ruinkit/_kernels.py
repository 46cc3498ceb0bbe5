"""Hot numeric kernels, one numpy implementation each.

The Panjer recursion and the Volterra product-trapezoid march are the same
truncated power-series division y = T / D with D = 1 - a * sum_{i>=1}
kern[i] z^i, that is y[k] = T[k] + a * sum_{i=1}^{k} kern[i] y[k-i].
_series_recurrence solves it in O(n log n) for all n terms at once:

* one halving step, applied recursively (_quotient): T / D to n terms
  from r = 1/D to h = ceil(n/2) terms by one Karp-Markstein step (1997),
  q0 = r T to h terms, then -r (D q0 - T) for the other n - h, with
  real-FFT products. r comes from the same step on T = 1, which is a
  Newton level r - r (D r - 1) (Brent & Kung 1978; Hairer, Lubich &
  Schlichte 1985 for the Volterra case), down to 1/D = 1 at one term. No
  transform is longer than _fft_len(n), where a full product of 1/D to n
  terms with T would need twice that. Steps of at most _DIRECT terms form
  their products with np.convolve, where the FFT calls would each cost
  more than the whole product. y[0] = T[0] is set exactly, as D[0] = 1.
  The tilt and 1/D are a fixed cost of each call, which a scalar loop
  would undercut below about 60 terms;
* an FFT product is accurate only relative to its largest term, so both
  series are first tilted by e^{b k}, with b >= 0 the root of the lattice
  Lundberg equation a * sum kern[i] e^{b i} = 1. The tilted solution is
  nearly flat, which makes the error relative in every term; the result is
  scaled back by e^{-b k}. Tilted arrays are formed as sign * exp(log|x| +
  b k), since e^{b k} alone leaves the float range on fine lattices. b
  needs to hold only to 0.1/n. It is bisected on [0, t], where t is the
  zero of the tangent at 0 of the convex log-mass and so lies at or past
  the root: a few halvings at small loadings;
* the tilt, 1/D and the transforms of 1/D and D depend on a and kern
  alone, so a stack of right-hand sides (T of shape (r, n)) shares them,
  and the three products take all rows in each rfft and irfft call. A
  stacked transform gives each row the bits of a one-row transform, so
  each row gets the bits of a one-row call.

Accuracy contract: about 1e-12 relative to the scalar recurrence in every
cell, down to the underflow range, when the forcing decays at least as
fast as the solution (true of Panjer, whose forcing is a single term, and of
the light-tailed renewal equations of the cause split). A forcing that
decays more slowly, or a kernel of mass a * sum kern[i] >= 1 whose solution
grows, leaves the float range once tilted: one isfinite pass over the
result turns that into a ValueError naming the cause, with no numpy
warning. Scalar python loops of every kernel live in the test suite as
oracles.

The Monte Carlo kernel draws from a counter-based splitmix64 stream keyed by
(seed, path index): draw number ctr of a path is finalize(key_path +
(ctr+1) * GOLDEN). The splitmix input is linear in the counter, so each live
lane keeps one uint64 state = key_path + (ctr+1) * GOLDEN, draw j of an event
is finalize(state + j * GOLDEN), and an event of m draws adds m * GOLDEN.
Events run in blocks: n live lanes run k = _BLOCK // n events at once
(within [1, _KMAX]), so each numpy call spans about _BLOCK lane-events even
when few lanes are left. A block draws the fixed uniforms of its k events
as one (k, m', n) block: the wait, the Box-Muller pair when sigma > 0, and
the _mc_draws rows of which the claim class makes its claims (one for
exponential, two for a mixture; _mc_claims in claims.py). Waits,
Box-Muller, claims and sqrt(dt) each run once over the block; the running
sums of time and surplus run a row at a time in event order, and a row loop
over an alive mask finds where each lane ends. The Brownian bridge between
claims hits when its uniform u < e^cross, cross = -2 v0 v1 / (sigma^2 dt).
Every uniform is (j + 1) 2^-53 >= 2^-53 > e^-40, so a lane-event with cross
<= -40 (most of them: the surplus sits far above 0), one already hit, one
with dt <= 0 or a NaN cross is decided without its draw. The bridge's
uniform, draw i*m + 3 of the block, and its exp are formed only on the
other lane-events, from the block's starting states: the stream is
counter-based, so skipping a draw moves no other. A lane
computes on past its end to the end of the block and those values are
never read, so every path counts exactly what its own stream gives; the
live lanes are compacted once per block. Gamma claims draw a varying number
of uniforms in their per-lane rejection loop (_mc_draws is None), so their
blocks are one event long, on the same code path. No draw depends on how
lanes are batched, how many events a block holds, or the order paths run
in, so the counts are a pure function of the arguments. Against the scalar
oracle in the tests only the counts are pinned: numpy's log and exp round
apart from math.log and math.exp on some inputs (0.34% and 4.4% of 10^6
uniforms on an AVX-512 x86 machine; cos and sqrt agree on all), and the
oracle sums the surplus in another order, so a value may differ in its
last bits.

That also makes the paths free to split across CPUs (Salmon et al. 2011;
Steele, Lea & Flood 2014). mc_ruin_paths cuts the path range into one share
per CPU the process may run on, each of at least _MIN_SHARE paths, and
builds each share's lanes from its own index range. Shares 1..k-1 run in
threads and share 0 on the calling thread, each to its last live lane;
numpy releases the GIL inside each call, and the counts of the shares are
summed. Blocks keep the calls long as a share thins out: one event on a few
thousand lanes lasts microseconds, and two threads would spend that time
handing the GIL back and forth.

The ladder integral (claims.py) and the lattice record (bounds.py) are one
positive block scan, _decay_scan. The gamma claim law's four tail functions
are one incomplete gamma kernel, _incomplete_gamma: a series below y = a + 1
and a continued fraction from there, each a sum of positive terms.
"""

from __future__ import annotations

import math
import os
import threading
from functools import cache

import numpy as np

__all__ = [
    "active_backend",
    "panjer_compound",
    "lattice_convolve",
    "volterra_march",
    "mc_ruin_paths",
]


def active_backend() -> str:
    """Name of the kernel implementation; there is only numpy."""
    return "numpy"


# ---------------------------------------------------------------------------
# truncated power-series division: Panjer and Volterra
# ---------------------------------------------------------------------------


_DIRECT = 64  # steps of at most this many terms take np.convolve products


def _fft_len(m):
    # smallest 2^k, 3 * 2^(k-2) or 5 * 2^(k-3) not below m: fast FFT sizes
    # with at most 20% padding past 8 points
    p = 1 << max(m - 1, 0).bit_length()
    return next(size for size in (5 * p // 8, 3 * p // 4, p) if size >= m)


def _tilt(x, b):
    # x[..., k] * e^{b k}, formed as sign * exp(log|x| + b k) in one array so
    # that e^{b k} on its own, which overflows deep in the lattice, is never built
    out = np.abs(x)
    with np.errstate(divide="ignore"):  # log 0 = -inf maps back to 0
        np.log(out, out=out)
    out += b * np.arange(x.shape[-1])
    np.exp(out, out=out)
    out *= np.sign(x)
    return out


def _bisect(f, lo, hi, tol):
    """Halve a bracket with f(lo) < 0 <= f(hi), keeping that sign, until
    hi - lo <= tol or lo and hi are adjacent floats (so tol = 0 runs to the
    last float). Returns (lo, hi, calls to f). Every root the library finds
    comes from it: the lattice tilt below, R and the closed forms' poles."""
    iterations = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        iterations += 1
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return lo, hi, iterations


def _lundberg_exponent(a, kern, n):
    # b >= 0 with a * sum_{i>=1} kern[i] e^{b i} = 1, to within 0.1/n: the
    # tilted solution then drifts by at most e^{0.1} over the n terms
    i = np.flatnonzero(kern[1:n] > 0.0) + 1
    if a <= 0.0 or i.size == 0:
        return 0.0
    logw = math.log(a) + np.log(kern[i])

    def log_mass(b):
        v = logw + b * i
        top = v.max()
        return top + math.log(np.exp(v - top).sum())

    # log_mass at 0 and its slope there, the softmax-weighted mean index
    top = logw.max()
    e = np.exp(logw - top)
    mass = e.sum()
    f0 = top + math.log(mass)
    if f0 >= 0.0:
        return 0.0
    # log_mass is convex, so its tangent at 0 lies below it and reaches 0 at
    # or past the root; one term alone reaches 1 at min(-logw / i). On the
    # loading-0.01 ladders the tangent end leaves 2 to 5 halvings, against
    # 7 to 12 from min(-logw / i) alone
    hi = min(-f0 * mass / float(np.dot(e, i)), float(np.min(-logw / i)))
    return _bisect(log_mass, 0.0, hi, 0.1 / n)[0]


def _times(left, x, size):
    # x times a series at hand, each row of x for x of shape (r, k):
    # np.convolve with its coefficients left when size is None, a row at a
    # time, else a cyclic product of length size with its transform left,
    # all rows in one rfft and one irfft, which give each row the bits of a
    # call of its own. out= keeps left the left operand: left * <large
    # temporary> would reuse the temporary and swap the operands, and
    # complex products with FMA round apart in the two orders
    if size is None:
        if x.ndim == 2:
            return np.array([_times(left, row, None) for row in x])
        return np.convolve(x, left)
    x_hat = np.fft.rfft(x, size)
    return np.fft.irfft(np.multiply(left, x_hat, out=x_hat), size)


def _quotient(t, d, n):
    # first n terms of t(z) / d(z), d[0] = 1, t = None standing for 1: one
    # Karp-Markstein step (1997) from r = 1/d to h = ceil(n/2) terms, itself
    # this function on t = 1. q0 = r t to h terms, then -r (d q0 - t) for
    # terms h..n-1. Each product is cyclic of length _fft_len(n): r x has at
    # most 2h - 1 <= n terms, and the wrap-around of d q0 lands below h,
    # where nothing is read. For t = 1 the step is Newton's r - r (d r - 1)
    # (Brent & Kung 1978) with q0 = r, and d r reuses r's transform. A step
    # of at most _DIRECT terms forms its products with np.convolve, where
    # the FFT calls would each cost more than the whole product
    if n == 1:
        return np.ones(1) if t is None else t[..., :1]
    h = (n + 1) // 2
    r = _quotient(None, d, h)
    size = None if n <= _DIRECT else _fft_len(n)
    r_op = r if size is None else np.fft.rfft(r, size)
    if t is None:
        q0 = r
        err = _times(r_op, d[:n], size)[h:n]
    else:
        q0 = _times(r_op, t[..., :h], size)[..., :h]
        d_op = d[:n] if size is None else np.fft.rfft(d[:n], size)
        err = _times(d_op, q0, size)[..., h:n] - t[..., h:n]
    return np.concatenate((q0, -_times(r_op, err, size)[..., : n - h]), axis=-1)


def _series_recurrence(rhs, a, kern):
    # y = T / D truncated to n terms, with T = rhs and D = 1 - a
    # sum_{i>=1} kern[i] z^i; that is, y[k] = rhs[k] + a * sum_{i=1}^{k}
    # kern[i] y[k-i]. rhs of shape (r, n) solves r right-hand sides: the
    # tilt, 1/D and the transforms of both are formed once and the
    # quotient's three products take all rows in each transform call, so
    # each row gets the same bits as a call of its own
    n = rhs.shape[-1]
    b = _lundberg_exponent(a, kern, n)
    # a right-hand side that decays more slowly than e^{-b k} leaves the
    # float range once tilted, and NaN spreads through the products: the one
    # isfinite pass below turns that into an error, not a warning and NaN
    with np.errstate(over="ignore", invalid="ignore"):
        d = -a * _tilt(kern, b)
        d[0] = 1.0
        y = _tilt(_quotient(_tilt(rhs, b), d, n), -b)
    if not np.isfinite(y).all():
        raise _division_error(rhs, a, kern[:n], b)
    # exact, as D[0] = 1; the FFT products and the tilt leave rounding in it
    y[..., 0] = rhs[..., 0]
    return y


def _division_error(rhs, a, kern, b):
    # why a division left the float range, found only once it has
    if not (np.isfinite(rhs).all() and np.isfinite(kern).all() and math.isfinite(a)):
        return ValueError("series division: the right-hand side, kernel or factor is not finite")
    mass = a * float(kern[1:].sum())
    if mass >= 1.0:
        return ValueError(
            f"series division: a * sum(kern[1:]) = {mass:.6g} is at least 1, so the "
            "solution does not decay and leaves the float range"
        )
    return ValueError(
        "series division: the right-hand side decays more slowly than the solution's "
        f"e^(-b k), b = {b:.6g}; tilted by e^(b k) it leaves the float range"
    )


def panjer_compound(p: np.ndarray, q: float, p_tail: np.ndarray | None = None) -> np.ndarray:
    """Compound-geometric pmf on the lattice via Panjer recursion.

    g[0] = q / d;  g[k] = (1-q)/d * sum_{i>=1} p[i] g[k-i],  d = 1 - (1-q) p[0].

    Given p_tail[k] = P(X > k), the claim tail, it returns the compound's
    tail P(S > k) instead: sum_k P(S > k) z^k = (1-q) P̄(z) / (1 - (1-q) P(z)),
    the same division with the numerator (1-q)/d * p_tail. It stays
    relative in the deep tail, where 1 - cumsum(g) cancels to noise.
    """
    p = np.ascontiguousarray(p, dtype=np.float64)
    denom = 1.0 - (1.0 - q) * p[0]
    a = (1.0 - q) / denom
    if p_tail is None:
        rhs = np.zeros(p.shape[0])
        rhs[0] = q / denom
    else:
        rhs = a * np.asarray(p_tail, dtype=np.float64)
    return _series_recurrence(rhs, a, p)


def lattice_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """First len(a) coefficients of the convolution of two lattice pmfs."""
    return np.convolve(a, b)[: len(a)]


def volterra_march(forcing: np.ndarray, kern: np.ndarray, factor: float, h: float) -> np.ndarray:
    """Explicit product-trapezoid march; kern[0] must be 0.

    psi[k] = forcing[k] + factor*h*(sum_{j=1}^{k-1} kern[j] psi[k-j] + 0.5*kern[k]*psi[0])

    forcing of shape (r, n) marches r equations that share kern and factor
    and returns their solutions as rows: the series reciprocal is formed
    once for all of them, and each row equals its own one-row march.
    """
    forcing = np.ascontiguousarray(forcing, dtype=np.float64)
    kern = np.ascontiguousarray(kern, dtype=np.float64)
    if kern[0] != 0.0:
        raise ValueError("Volterra kernel must vanish at 0 for the explicit march")
    fh = factor * h
    # the recurrence weights the j=k end point fully; the right-hand side
    # takes half back
    return _series_recurrence(forcing - 0.5 * fh * kern * forcing[..., :1], fh, kern)


# ---------------------------------------------------------------------------
# decay scan: the ladder integral and the lattice record
# ---------------------------------------------------------------------------

# largest rate-span of one _decay_scan block: e^{l} stays below e^300, and a
# weight e^{l_j - l_k} carries two lags' rounding, at most 6.7e-14 relative
_BLOCK_SPAN = 300.0


def _decay_scan(x, pos, rate):
    """y[k] = sum_{j<=k} e^{-rate (pos[k] - pos[j])} x[j] for nondecreasing pos,
    in blocks of rate-span at most _BLOCK_SPAN as e^{-l} (head + cumsum(x e^{l})).
    The lag l = rate (pos - pos[block start]) is a difference of positions, so
    it is exact to rounding however far the block lies from pos[0]. For x >= 0
    every term is positive and nothing cancels."""
    out = np.empty(x.size)
    s = 0
    while s < x.size:
        head = out[s - 1] * math.exp(-rate * (pos[s] - pos[s - 1])) if s else 0.0
        stop = int(np.searchsorted(pos, pos[s] + _BLOCK_SPAN / rate, side="right"))
        lag = rate * (pos[s:stop] - pos[s])
        out[s:stop] = np.exp(-lag) * (head + np.cumsum(x[s:stop] * np.exp(lag)))
        s = stop
    return out


# ---------------------------------------------------------------------------
# regularized incomplete gamma functions: the gamma claim law
# ---------------------------------------------------------------------------

# the series keeps its terms down to this, against a sum of at least 1
_SERIES_TOL = 2.0**-60
# Lentz's run stops once a step moves the fraction by less than this
_LENTZ_TOL = 2.0**-56
_LENTZ_TINY = 1e-300
# exp of an argument below this is 0 (the smallest subnormal is e^-744.44)
_EXP_FLOOR = -745.2


def _incomplete_gamma(a, y, integrated=False):
    """(P, Q) of shape a at the points y, or with integrated=True (I, U):

    P(a, y) and Q(a, y) = 1 - P, the regularized incomplete gamma functions;
    I = int_0^y Q(a, t) dt = y Q(a, y) + a P(a+1, y) and
    U = int_y^inf Q(a, t) dt = a Q(a+1, y) - y Q(a, y), so I + U = a.
    Both arrays have y's shape. Each is formed on the side where it is a sum
    of positive terms, so it is relative down to the underflow range, and
    its partner is 1 or a less it (Numerical Recipes, 3rd ed., 6.2):

    * below y = a + 1 the series P = D (1 + z S) / a, z = y / (a+1),
      S = sum_n z^n prod_{k=1..n} (a+1) / (a+1+k), summed by Horner to the
      depth that the largest z needs (_series_terms), and
      a P(a+1, y) = D z S from the same sum;
    * from a + 1 the Legendre continued fraction Q = D / (y + 1 - a - t),
      t = 1 (1-a) / (y + 3 - a - 2 (2-a) / (y + 5 - a - ...)), evaluated
      backward at a fixed depth per band [(a+1) 4^j, (a+1) 4^(j+1)): one
      scalar Lentz run at the band's lower edge sets it (_fraction_depth),
      and the fraction converges faster as y grows. U = Q (1 - t), as
      a Q(a+1) = a Q + D; nothing cancels.

    D = y^a e^-y / Gamma(a) is exp(a log y - lgamma(a) - y), with the
    rounding of the last subtraction carried to first order (Knuth's
    TwoSum), so that its error grows as a log y and not as y. A point whose
    D underflows (y at or past _underflow_edge) takes Q = U = 0 without the
    fraction; y <= 0 takes P = 0, I = y, and NaN gives NaN.
    """
    shape = np.shape(y)
    y = np.asarray(y, dtype=float).ravel()
    if integrated:
        first = np.minimum(y, a)
        second = a - first
    else:
        first = np.heaviside(y, 0.0)
        second = np.heaviside(-y, 1.0)
    lg = math.lgamma(a)
    lo = ((y > 0.0) & (y < a + 1.0)).nonzero()[0]
    if lo.size:
        v = y[lo]
        d = _gamma_prefactor(a, lg, v)
        z = v / (a + 1.0)
        c = _series_terms(a)
        n = np.count_nonzero(c * z.max() ** np.arange(c.size) >= _SERIES_TOL)
        s = np.full(v.shape, c[n - 1])
        for k in range(n - 2, -1, -1):
            s *= z
            s += c[k]
        s *= z
        s *= d  # a P(a+1, y)
        d += s
        d /= a  # P(a, y)
        if integrated:
            np.subtract(1.0, d, out=d)
            d *= v
            d += s  # I
            first[lo] = d
            second[lo] = a - d
        else:
            first[lo] = d
            second[lo] = 1.0 - d
    hi = ((y >= a + 1.0) & (y < _underflow_edge(a))).nonzero()[0]
    if not hi.size:
        return first.reshape(shape), second.reshape(shape)
    v = y[hi]
    d = _gamma_prefactor(a, lg, v)
    # floor(log2(y / (a+1))) + 1 from 1 up: the quotient rounds to 1 or more
    band = np.frexp(v / (a + 1.0))[1]
    band -= 1
    band >>= 1
    low = int(band.min())
    depths = [_fraction_depth(a, j) for j in range(low, int(band.max()) + 1)]
    # bands of one depth run together: an integer shape's fraction ends at
    # depth a, so its bands share few depths
    need = np.take(depths, band - low) if len(set(depths)) > 1 else None
    for n in sorted(set(depths), reverse=True):
        if need is None:
            w, q, at = v, d, hi
        else:
            sel = (need == n).nonzero()[0]
            if not sel.size:
                continue
            w, q, at = v[sel], d[sel], hi[sel]
        w = w + (1.0 - a)
        t = np.zeros(w.shape)
        b = np.empty(w.shape)
        for k in range(n, 0, -1):
            np.add(w, 2.0 * k, out=b)
            np.subtract(b, t, out=t)
            np.divide(k * (k - a), t, out=t)
        w -= t
        np.divide(q, w, out=q)  # Q(a, y)
        if integrated:
            np.subtract(1.0, t, out=t)
            t *= q  # U
            first[at] = a - t
            second[at] = t
        else:
            first[at] = 1.0 - q
            second[at] = q
    return first.reshape(shape), second.reshape(shape)


def _gamma_prefactor(a, lg, y):
    # y^a e^-y / Gamma(a) = exp(s) (1 + e), where s + e = w - y exactly
    w = np.log(y)
    w *= a
    w -= lg
    s = w - y
    back = s - w
    e = s - back
    np.subtract(w, e, out=e)
    back += y
    e -= back
    d = np.exp(s, out=s)
    e *= d
    d += e
    return d


@cache
def _series_terms(a):
    # prod_{k=1..n} (a+1) / (a+1+k) for n = 0, 1, ... down to _SERIES_TOL:
    # the series terms at z = 1, the most that a point below a + 1 needs
    c = [1.0]
    while c[-1] >= _SERIES_TOL:
        c.append(c[-1] * (a + 1.0) / (a + 1.0 + len(c)))
    return np.array(c)


@cache
def _fraction_depth(a, band):
    """Depth of the continued fraction for Q(a, y) on y >= (a+1) 4^band:
    the steps of a modified Lentz run (Thompson & Barnett 1986) at that
    edge until a step moves the fraction by less than _LENTZ_TOL."""
    b = (a + 1.0) * 4.0**band + 1.0 - a
    c = 1.0 / _LENTZ_TINY
    d = 1.0 / b
    n = 0
    while True:
        n += 1
        an = -n * (n - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) >= _LENTZ_TINY else _LENTZ_TINY)
        c = b + an / c
        c = c if abs(c) >= _LENTZ_TINY else _LENTZ_TINY
        if abs(d * c - 1.0) < _LENTZ_TOL:
            return n


@cache
def _underflow_edge(a):
    # the y past a + 1 from which y^a e^-y / Gamma(a) is below e^_EXP_FLOOR,
    # under the smallest subnormal: a log y - y falls for y > a
    lg = math.lgamma(a)

    def above_floor(y):
        return _EXP_FLOOR - (a * math.log(y) - y - lg)

    hi = 2.0 * (a + 1.0)
    while above_floor(hi) < 0.0:
        hi *= 2.0
    return _bisect(above_floor, a + 1.0, hi, 0.0)[1]


# ---------------------------------------------------------------------------
# counter-based RNG: one splitmix64 state per lane
# ---------------------------------------------------------------------------

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SEED_SALT = np.uint64(0xD1B54A32D192ED03)
_ONE = np.uint64(1)
_SH30 = np.uint64(30)
_SH27 = np.uint64(27)
_SH31 = np.uint64(31)
_SH11 = np.uint64(11)
_INV53 = 1.0 / 9007199254740992.0  # 2^-53
_KMAX = 64  # most events in one Monte Carlo block
# offset of draw j: at most 6 draws an event (_mc_draws <= 2) and _KMAX events a block
_STRIDE = np.arange(6 * _KMAX + 1, dtype=np.uint64) * _GOLDEN


def _mix(z):
    # splitmix64 finalizer; updates an array z in place
    z ^= z >> _SH30
    z *= _MIX1
    z ^= z >> _SH27
    z *= _MIX2
    z ^= z >> _SH31
    return z


def _uniforms(state, offset):
    """Uniforms (j + 1) 2^-53 on [2^-53, 1], never 0 so logs are safe, of the
    draws finalize(state + offset), offset broadcast against state: a column
    _STRIDE[rows, None] gives a (rows, n) block whose row r draws
    state[i] + rows[r] GOLDEN for lane i, and a scalar one uniform a lane.
    The caller advances the state."""
    z = _mix(state + offset)
    z >>= _SH11
    # converted in place, below 2^53 exactly: no second block
    u = np.add(z.view(np.int64), 1.0, out=z.view(np.float64))
    u *= _INV53
    return u


# ---------------------------------------------------------------------------
# gamma claims, which draw from the lane states (claims.Gamma._mc_claims)
# ---------------------------------------------------------------------------


def _gamma_mt(state, shape):
    """Marsaglia-Tsang for shape >= 1, unit rate. Advances state in place:
    each round draws three uniforms and uses the third only when x > 0."""
    out = np.empty(state.size)
    d = shape - 1.0 / 3.0
    cc = 1.0 / math.sqrt(9.0 * d)
    todo = np.arange(state.size)
    while todo.size:
        s = state[todo]
        u = _uniforms(s, _STRIDE[:3, None])
        z = np.sqrt(-2.0 * np.log(u[0])) * np.cos(2.0 * np.pi * u[1])
        x = 1.0 + cc * z
        pos = x > 0.0
        state[todo] = s + np.where(pos, _STRIDE[3], _STRIDE[2])
        v = np.where(pos, x, 1.0)
        v = v * v * v  # as x * x * x, not libm pow
        ok = pos & (np.log(u[2]) < 0.5 * z * z + d - d * v + d * np.log(v))
        out[todo[ok]] = d * v[ok]
        todo = todo[~ok]
    return out


def _gamma_claim(state, shape, rate):
    """One gamma claim per lane; advances state in place."""
    if shape >= 1.0:
        return _gamma_mt(state, shape) / rate
    g = _gamma_mt(state, shape + 1.0)
    u = _uniforms(state, _STRIDE[0])
    state += _GOLDEN
    return g * u ** (1.0 / shape) / rate


# ---------------------------------------------------------------------------
# event-driven Monte Carlo, all live paths advanced a block of events at a time
# ---------------------------------------------------------------------------

# lane-events per block: n live lanes run k = _BLOCK // n events per block,
# at least 1 and at most _KMAX, so each numpy call spans about _BLOCK values
_BLOCK = 32768
_MIN_SHARE = 16384  # fewest paths of a share when the paths are split


def _cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


def _advance(state, v, t, model, horizon):
    """Run the lanes (state, v, t) until every path has ended; returns
    (n_osc, n_claim)."""
    n_osc = 0
    n_claim = 0
    # a wait overflows to inf when lam is tiny, which is harmless, and a lane
    # computes on past its end to the end of its block, where no value of it
    # is read. The error state is set here because a thread does not inherit
    # the caller's, and not by a decorator, whose wrapper would hold the
    # first block's lanes
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while state.size:
            osc, claim, state, v, t = _block(state, v, t, model, horizon)
            n_osc += osc
            n_claim += claim
    return n_osc, n_claim


def _block(state, v, t, model, horizon):
    """Run k events on the n live lanes, k = _BLOCK // n within [1, _KMAX]
    (1 when the claim law's draws vary in number); returns the block's
    (n_osc, n_claim) and the lanes still live. The block's arrays die with
    the call, so none is held while the next block draws."""
    c, lam, sigma, claims = model.c, model.lam, model.sigma, model.claims
    draws = claims._mc_draws
    n = state.size
    k = 1 if draws is None else min(max(_BLOCK // n, 1), _KMAX)
    # the event's draws: wait, then Box-Muller pair and bridge when sigma > 0,
    # then claim; draw j of event i is number i*m + j of the block, as when
    # events ran one by one. u holds all but the bridge's (j = 3), which is
    # drawn below on the lanes it can still decide
    m = (4 if sigma > 0.0 else 1) + (draws or 0)
    off = _STRIDE[: k * m].reshape(k, m, 1)  # off[i, j]: draw j of event i
    u = _uniforms(state, np.delete(off, 3, axis=1) if sigma > 0.0 else off)
    # the bridge draws from the block's first states, k*m draws behind state
    # after this line, or a copy of them where the claims move state on
    first = state.copy() if sigma > 0.0 and draws is None else None
    state += _STRIDE[k * m]
    # the rows are consumed in place, and each step runs once over the whole
    # block but the running sums of t and v, which go a row at a time in
    # event order: each value is bitwise the one these steps give when run
    # one event at a time (not the scalar oracle's; see the module docstring)
    e = np.log(u[:, 0], out=u[:, 0])
    e /= -lam
    t_next = np.empty((k, n))
    np.add(t, e[0], out=t_next[0])
    for i in range(1, k):
        np.add(t_next[i - 1], e[i], out=t_next[i])
    final_seg = t_next > horizon
    # a segment cut at the horizon runs from the event before it
    np.subtract(horizon, t, out=e[0], where=final_seg[0])
    np.subtract(horizon, t_next[:-1], out=e[1:], where=final_seg[1:])
    dt = e
    v1 = dt * c
    if sigma > 0.0:
        z = np.log(u[:, 1], out=u[:, 1])
        z *= -2.0
        np.sqrt(z, out=z)
        w = np.multiply(u[:, 2], 2.0 * np.pi, out=u[:, 2])
        z *= np.cos(w, out=w)
        cross = np.sqrt(dt)  # the diffusion's scale, then the bridge's exponent
        cross *= sigma
        z *= cross
    # every lane draws its claim: a lane censored at the horizon or hit
    # discards it, and a gamma lane that ends discards its advanced state
    x = claims._mc_claims(u[:, 3 if sigma > 0.0 else 1 :], state)
    # v1[i]: the surplus before claim i; x[i] becomes the surplus after it
    v_prev = v
    for i in range(k):
        v1[i] += v_prev
        if sigma > 0.0:
            v1[i] += z[i]
        v_prev = np.subtract(v1[i], x[i], out=x[i])
    if sigma > 0.0:
        hit = v1 <= 0.0
        np.multiply(v, -2.0, out=cross[0])
        np.multiply(x[:-1], -2.0, out=cross[1:])
        cross *= v1
        cross /= dt * (sigma * sigma)
        # the bridge hits where its uniform is below e^cross; every uniform
        # is at least 2^-53 > e^-40, so lanes with cross <= -40 or NaN, lanes
        # with dt <= 0 and lanes already hit are decided without their draw
        f = np.flatnonzero((cross > -40.0) & (dt > 0.0) & ~hit)
        # lane-event f = i n + l draws number i*m + 3 of lane l
        if first is None:
            draw = (state + (off[:, 3] - _STRIDE[k * m])).take(f)
        else:
            draw = (first + off[:, 3]).take(f)
        hit.flat[f] = _uniforms(draw, _STRIDE[0]) < np.exp(cross.take(f))
        stop = hit | final_seg
    else:
        stop = final_seg
    # go_on[i]: the lanes still live after event i
    go_on = x > 0.0
    go_on &= ~stop
    for i in range(1, k):
        go_on[i] &= go_on[i - 1]
    left = go_on[k - 1]
    n_osc = _count_reached(hit, go_on) if sigma > 0.0 else 0
    # a lane that ended and was not stopped was ruined by its claim
    n_claim = n - int(np.count_nonzero(left)) - _count_reached(stop, go_on)
    return n_osc, n_claim, state[left], x[k - 1][left], t_next[k - 1][left]


def _count_reached(flag, go_on):
    """Lanes flagged at an event they reached: every lane reaches event 0,
    and event i the lanes live after event i - 1."""
    return int(np.count_nonzero(flag[0])) + int(np.count_nonzero(flag[1:] & go_on[:-1]))


def _share(base, a, b, u0, model, horizon):
    """Paths a..b-1 (keys a+1..b) from their start to their end."""
    # the lanes are built in the call, so no frame here keeps them alive
    return _advance(
        _mix(base + np.arange(a + 1, b + 1, dtype=np.uint64) * _GOLDEN) + _GOLDEN,
        np.full(b - a, float(u0)),
        np.zeros(b - a),
        model, horizon,
    )


@np.errstate(over="ignore")  # uint64 wraparound is the point
def mc_ruin_paths(seed, n_paths, u0, model, horizon):
    """Run the event-driven ruin simulation; returns (n_oscillation, n_claim).

    seed must lie in [0, 2**64).
    """
    # avalanche the seed before deriving path keys: mixing both linearly
    # through the same multiplier would alias (seed, p) with (seed+1, p-1)
    base = _mix(_SEED_SALT + (np.uint64(seed) + _ONE) * _GOLDEN)
    k = max(1, min(_cpu_count(), n_paths // _MIN_SHARE))
    edges = [n_paths * i // k for i in range(k + 1)]
    out = [None] * k

    def run(i):
        try:
            out[i] = _share(base, edges[i], edges[i + 1], u0, model, horizon)
        except BaseException as exc:  # raised again in the caller
            out[i] = exc

    started = []
    try:
        for i in range(1, k):
            thread = threading.Thread(target=run, args=(i,))
            thread.start()
            started.append(thread)
        run(0)
    finally:
        for thread in started:
            thread.join()
    for res in out:
        if isinstance(res, BaseException):
            raise res
    return sum(res[0] for res in out), sum(res[1] for res in out)
