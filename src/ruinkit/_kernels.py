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
the light-tailed renewal equations of the cause split). Scalar python loops
of every kernel live in the test suite as oracles.

The Monte Carlo kernel draws from a counter-based splitmix64 stream keyed by
(seed, path index): draw number ctr of a path is finalize(key_path +
(ctr+1) * GOLDEN). The splitmix input is linear in the counter, so each live
lane keeps one uint64 state = key_path + (ctr+1) * GOLDEN, draw j of an event
is finalize(state + j * GOLDEN), and an event of m draws adds m * GOLDEN.
Events run in blocks: n live lanes run k = _BLOCK // n events at once
(within [1, _KMAX]), so each numpy call spans about _BLOCK lane-events even
when few lanes are left. A block draws the fixed uniforms of its k events
as one (k * m, n) block: the wait, the Box-Muller pair and the bridge when
sigma > 0, and the _mc_draws rows of which the claim class makes its claims
(one for exponential, two for a mixture; _mc_claims in claims.py). Waits,
Box-Muller, claims, sqrt(dt) and the bridge's exp each run once over the
block; the running sums of time and surplus run a row at a time in event
order, and a row loop over an alive mask finds where each lane ends. A lane
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
positive block scan, _decay_scan.
"""

from __future__ import annotations

import math
import os
import threading

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
    d = -a * _tilt(kern, b)
    d[0] = 1.0
    y = _tilt(_quotient(_tilt(rhs, b), d, n), -b)
    # exact, as D[0] = 1; the FFT products and the tilt leave rounding in it
    y[..., 0] = rhs[..., 0]
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


def _uniforms(state, m):
    """(m, n) block of uniforms on (0, 1], never 0 so logs are safe; draw j
    of lane i is from state[i] + j GOLDEN. The caller advances the state."""
    z = _mix(state + _STRIDE[:m, None])
    z >>= _SH11
    # converted in place, below 2^53 exactly: no second (m, n) block
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
        u = _uniforms(s, 3)
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
    u = _uniforms(state, 1)[0]
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
    # the event's fixed draws: wait, then Box-Muller pair and bridge, then
    # claim; draw j of event i is row i*m + j, as when events ran one by one
    j_claim = 4 if sigma > 0.0 else 1
    m = j_claim + (draws or 0)
    u = _uniforms(state, k * m).reshape(k, m, n)
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
        cross = np.sqrt(dt)  # the diffusion's scale, then the bridge's crossing chance
        cross *= sigma
        z *= cross
    # every lane draws its claim: a lane censored at the horizon or hit
    # discards it, and a gamma lane that ends discards its advanced state
    x = claims._mc_claims(u[:, j_claim:], state)
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
        np.exp(cross, out=cross)
        hit |= (u[:, 3] < cross) & (dt > 0.0)  # lanes already hit discard their bridge draw
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
