"""Hot numeric kernels, one numpy implementation each.

The Panjer recursion and the Volterra product-trapezoid march are the same
truncated power-series division y = T / D with D = 1 - a * sum_{i>=1}
kern[i] z^i, that is y[0] = head, y[k] = tail[k] + a * sum_{i=1}^{k} kern[i]
y[k-i]. _series_recurrence solves it in O(n log n):

* the first 64 terms come from that recurrence term by term, so they are
  exact and do not depend on n (for n <= 64 the loop is all there is);
* beyond them, the reciprocal 1/D comes from Newton doubling with real-FFT
  products (Brent & Kung 1978; Hairer, Lubich & Schlichte 1985 for the
  Volterra case), and y gains 1/D times the residual T - D * y_head;
* an FFT product is accurate only relative to its largest term, so both
  series are first tilted by e^{b k}, with b >= 0 the root of the lattice
  Lundberg equation a * sum kern[i] e^{b i} = 1. The tilted solution is
  nearly flat, which makes the error relative term by term; the result is
  scaled back by e^{-b k}. Tilted arrays are formed as sign * exp(log|x| +
  b k), since e^{b k} alone leaves the float range on fine lattices.

Accuracy contract: about 1e-12 relative to the term-by-term recurrence in
every cell, down to the underflow range, when the forcing decays at least as
fast as the solution (true of Panjer, whose forcing is a single term, and of
the light-tailed renewal equations of the cause split). Scalar python loops
of every kernel live in the test suite as oracles.

The Monte Carlo kernel draws from a counter-based splitmix64 stream keyed by
(seed, path index): draw number ctr of a path is finalize(key_path +
(ctr+1) * GOLDEN). The splitmix input is linear in the counter, so each live
lane keeps one uint64 state = key_path + (ctr+1) * GOLDEN, draw j of an event
is finalize(state + j * GOLDEN), and an event of m draws adds m * GOLDEN.
An event draws all its fixed uniforms as one (m, n_live) block: the wait,
the Box-Muller pair and the bridge when sigma > 0, and the claim (one for
exponential, two for a mixture). A lane that ends before it would use a
draw (ruin before the bridge, censoring or ruin before the claim) is
dropped with it, so every path reads exactly its own stream; the live lanes
are compacted once per event. Gamma claims keep a per-lane rejection loop on
the same states. No draw depends on how lanes are batched or the order
paths run in, so the output is a pure function of the arguments.
"""

from __future__ import annotations

import math

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


_HEAD = 64  # leading terms solved exactly by the term-by-term loop


def _fft_len(m):
    # smallest 2^k or 3 * 2^k not below m: fast FFT sizes with little padding
    p = 1 << max(m - 1, 0).bit_length()
    return 3 * p // 4 if 3 * p // 4 >= m else p


def _tilt(x, b, start=0):
    # x[k] * e^{b (start + k)}, formed as sign * exp(log|x| + b k) so that
    # e^{b k} on its own, which overflows deep in the lattice, is never built
    with np.errstate(divide="ignore"):  # log 0 = -inf maps back to 0
        return np.sign(x) * np.exp(np.log(np.abs(x)) + b * np.arange(start, start + x.size))


def _bisect(f, lo, hi, tol):
    """Halve a bracket with f(lo) < 0 <= f(hi), keeping that sign, until
    hi - lo <= tol or lo and hi are adjacent floats (so tol = 0 runs to the
    last float). Returns (lo, hi, calls to f). Both Lundberg equations use
    it: the lattice tilt below and coefficients.adjustment_coefficient."""
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

    if log_mass(0.0) >= 0.0:
        return 0.0
    # one term alone reaches 1 at the upper end
    return _bisect(log_mass, 0.0, float(np.min(-logw / i)), 0.1 / n)[0]


def _reciprocal(d, n):
    # first n terms of 1/d(z), d[0] = 1: Newton doubling r <- r - r (d r - 1)
    rfft, irfft = np.fft.rfft, np.fft.irfft
    sizes = []
    while n > 1:
        sizes.append(n)
        n = (n + 1) // 2
    r = np.ones(1)
    for m2 in reversed(sizes):
        m = r.size
        size = _fft_len(m2)
        r_hat = rfft(r, size)
        # d r = 1 + O(z^m); terms m..m2-1 are the error, and the cyclic
        # wrap-around of the product lands below m where nothing is read
        err = irfft(rfft(d[:m2], size) * r_hat, size)[m:m2]
        r = np.concatenate((r, -irfft(rfft(err, size) * r_hat, size)[: m2 - m]))
    return r


def _series_recurrence(head, tail, a, kern):
    # y = T / D truncated to n terms, with T[0] = head, T[k] = tail[k] and
    # D = 1 - a sum_{i>=1} kern[i] z^i; that is, y[0] = head and
    # y[k] = tail[k] + a * sum_{i=1}^{k} kern[i] y[k-i]
    n = tail.shape[0]
    y = np.zeros(n)
    y[0] = head
    for k in range(1, min(n, _HEAD)):
        y[k] = tail[k] + a * np.dot(kern[1 : k + 1], y[k - 1 :: -1])
    if n <= _HEAD:
        return y
    b = _lundberg_exponent(a, kern, n)
    d = -a * _tilt(kern, b)
    d[0] = 1.0
    # beyond the head, y = y_head + (T - D y_head) / D, all tilted by e^{b k}
    res = _tilt(tail[_HEAD:], b, _HEAD) - np.convolve(d, _tilt(y[:_HEAD], b))[_HEAD:n]
    m = n - _HEAD
    size = _fft_len(2 * m - 1)
    corr = np.fft.irfft(np.fft.rfft(_reciprocal(d, m), size) * np.fft.rfft(res, size), size)[:m]
    y[_HEAD:] = _tilt(corr, -b, _HEAD)
    return y


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
        return _series_recurrence(q / denom, np.zeros(p.shape[0]), a, p)
    forcing = a * np.asarray(p_tail, dtype=np.float64)
    return _series_recurrence(forcing[0], forcing, a, p)


def lattice_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """First len(a) coefficients of the convolution of two lattice pmfs."""
    return np.convolve(a, b)[: len(a)]


def volterra_march(forcing: np.ndarray, kern: np.ndarray, factor: float, h: float) -> np.ndarray:
    """Explicit product-trapezoid march; kern[0] must be 0.

    psi[k] = forcing[k] + factor*h*(sum_{j=1}^{k-1} kern[j] psi[k-j] + 0.5*kern[k]*psi[0])
    """
    forcing = np.ascontiguousarray(forcing, dtype=np.float64)
    kern = np.ascontiguousarray(kern, dtype=np.float64)
    if kern[0] != 0.0:
        raise ValueError("Volterra kernel must vanish at 0 for the explicit march")
    fh = factor * h
    # the recurrence weights the j=k end point fully; the tail takes half back
    tail = forcing - 0.5 * fh * kern * forcing[0]
    return _series_recurrence(forcing[0], tail, fh, kern)


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
_STRIDE = np.arange(8, dtype=np.uint64) * _GOLDEN  # offset of draw j; an event has at most 6


def _mix(z):
    # splitmix64 finalizer; updates an array z in place
    z ^= z >> _SH30
    z *= _MIX1
    z ^= z >> _SH27
    z *= _MIX2
    z ^= z >> _SH31
    return z


def _uniforms(state, m):
    """(m, n) block of uniforms on (0, 1], never 0 so logs are safe; draw j
    of lane i is from state[i] + j GOLDEN. The caller advances the state."""
    z = _mix(state + _STRIDE[:m, None])
    z >>= _SH11
    u = z.view(np.int64).astype(np.float64)  # below 2^53: exact
    u += 1.0
    u *= _INV53
    return u


# ---------------------------------------------------------------------------
# claim samplers
# family codes: 0 exponential [rate]; 1 gamma [shape, rate];
#               2 mixture [k, cumw_1..k, rate_1..k]
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
        u = _uniforms(s, 3)
        z = np.sqrt(-2.0 * np.log(u[0])) * np.cos(2.0 * np.pi * u[1])
        x = 1.0 + cc * z
        pos = x > 0.0
        state[todo] = s + np.where(pos, _STRIDE[3], _STRIDE[2])
        v = np.where(pos, x, 1.0) ** 3
        ok = pos & (np.log(u[2]) < 0.5 * z * z + d - d * v + d * np.log(v))
        out[todo[ok]] = d * v[ok]
        todo = todo[~ok]
    return out


def _gamma_claim(state, shape, rate):
    """One gamma claim per lane; advances state in place."""
    if shape >= 1.0:
        return _gamma_mt(state, shape) / rate
    g = _gamma_mt(state, shape + 1.0)
    u = _uniforms(state, 1)[0]
    state += _GOLDEN
    return g * u ** (1.0 / shape) / rate


def _block_claim(u, family, fp):
    """One claim per lane from its block rows: exponential 1, mixture 2."""
    if family == 0:
        return -np.log(u[0]) / fp[0]
    k = int(fp[0])
    cumw, rates = fp[1 : 1 + k], fp[1 + k : 1 + 2 * k]
    comp = np.minimum(np.searchsorted(cumw, u[0], side="left"), k - 1)
    return -np.log(u[1]) / rates[comp]


# ---------------------------------------------------------------------------
# event-driven Monte Carlo, all live paths advanced one event at a time
# ---------------------------------------------------------------------------


@np.errstate(over="ignore")  # uint64 wraparound is the point
def mc_ruin_paths(seed, n_paths, u0, c, lam, sigma, horizon, family, fparams):
    """Run the event-driven ruin simulation; returns (n_oscillation, n_claim).

    seed must lie in [0, 2**64).
    """
    fp = np.ascontiguousarray(fparams, dtype=np.float64)
    # avalanche the seed before deriving path keys: mixing both linearly
    # through the same multiplier would alias (seed, p) with (seed+1, p-1)
    base = _mix(_SEED_SALT + (np.uint64(seed) + _ONE) * _GOLDEN)
    state = _mix(base + np.arange(1, n_paths + 1, dtype=np.uint64) * _GOLDEN) + _GOLDEN
    t = np.zeros(n_paths)
    v = np.full(n_paths, float(u0))
    sig2 = sigma * sigma
    # the event's fixed draws: wait, then Box-Muller pair and bridge, then claim
    j_claim = 4 if sigma > 0.0 else 1
    m = j_claim + (1, 0, 2)[family]
    n_osc = 0
    n_claim = 0
    while state.size:
        # the block's rows are consumed in place; the in-place steps only swap
        # the operands of + and * or move a sign, so each value is bitwise
        # the one-path-at-a-time value
        u = _uniforms(state, m)
        state += _STRIDE[m]
        e = np.log(u[0], out=u[0])
        e /= -lam
        t_next = t + e
        final_seg = t_next > horizon
        dt = np.subtract(horizon, t, out=e, where=final_seg)
        v1 = dt * c
        v1 += v
        if sigma > 0.0:
            z = np.log(u[1], out=u[1])
            z *= -2.0
            np.sqrt(z, out=z)
            w = np.multiply(u[2], 2.0 * np.pi, out=u[2])
            z *= np.cos(w, out=w)
            z *= np.sqrt(dt) * sigma
            v1 += z
            hit = v1 <= 0.0
            with np.errstate(divide="ignore", invalid="ignore"):
                cross = v * -2.0
                cross *= v1
                cross /= dt * sig2
                np.exp(cross, out=cross)
            hit |= (u[3] < cross) & (dt > 0.0)  # lanes already hit discard their bridge draw
            n_osc += int(np.count_nonzero(hit))
            claim = ~(hit | final_seg)
        else:
            claim = ~final_seg
        # lanes censored at the horizon or hit discard their claim draws
        if family == 1:
            s = state[claim]
            v1[claim] -= _gamma_claim(s, fp[0], fp[1])
            state[claim] = s
        else:
            v1 -= _block_claim(u[j_claim:], family, fp)
        live = v1 > 0.0
        live &= claim
        n_claim += int(np.count_nonzero(claim)) - int(np.count_nonzero(live))
        state = state[live]
        v = v1[live]
        t = t_next[live]
    return n_osc, n_claim
