"""Hot numeric kernels, one numpy implementation each.

The Panjer recursion and the Volterra product-trapezoid march are the same
truncated power-series division (Brent & Kung 1978), solved term by term in
_series_recurrence: y[0] = head, y[k] = tail[k] + a * sum_{i=1}^{k} kern[i]
y[k-i]. Scalar python loops of every kernel live in the test suite as
oracles.

The Monte Carlo kernel draws from a counter-based splitmix64 stream keyed by
(seed, path index): value = finalize(key_path + (counter+1) * GOLDEN). No
draw depends on how lanes are batched or the order paths run in, so the
output is a pure function of the arguments.
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


def _series_recurrence(head, tail, a, kern):
    # y[0] = head;  y[k] = tail[k] + a * sum_{i=1}^{k} kern[i] y[k-i]
    n = tail.shape[0]
    y = np.zeros(n)
    y[0] = head
    for k in range(1, n):
        y[k] = tail[k] + a * np.dot(kern[1 : k + 1], y[k - 1 :: -1])
    return y


def panjer_compound(p: np.ndarray, q: float) -> np.ndarray:
    """Compound-geometric pmf on the lattice via Panjer recursion.

    g[0] = q / d;  g[k] = (1-q)/d * sum_{i>=1} p[i] g[k-i],  d = 1 - (1-q) p[0].
    """
    p = np.ascontiguousarray(p, dtype=np.float64)
    denom = 1.0 - (1.0 - q) * p[0]
    return _series_recurrence(q / denom, np.zeros(p.shape[0]), (1.0 - q) / denom, p)


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
# counter-based RNG
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


def _rand_u64(key, ctr):
    z = key + (ctr + _ONE) * _GOLDEN
    z = (z ^ (z >> _SH30)) * _MIX1
    z = (z ^ (z >> _SH27)) * _MIX2
    return z ^ (z >> _SH31)


def _unif(key, ctr):
    # uniform on (0, 1]; never 0, so logs are safe
    return ((_rand_u64(key, ctr) >> _SH11) + _ONE).astype(np.float64) * _INV53


# ---------------------------------------------------------------------------
# claim samplers, one lane per path
# family codes: 0 exponential [rate]; 1 gamma [shape, rate];
#               2 mixture [k, cumw_1..k, rate_1..k]
# ---------------------------------------------------------------------------


def _gamma_mt(key, ctr, shape):
    """Marsaglia-Tsang for shape >= 1, unit rate. Mutates ctr in place."""
    n = key.shape[0]
    out = np.empty(n)
    d = shape - 1.0 / 3.0
    cc = 1.0 / math.sqrt(9.0 * d)
    todo = np.arange(n)
    while todo.size:
        k = key[todo]
        u1 = _unif(k, ctr[todo])
        ctr[todo] += _ONE
        u2 = _unif(k, ctr[todo])
        ctr[todo] += _ONE
        z = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
        x = 1.0 + cc * z
        pos = x > 0.0
        cand = todo[pos]
        if cand.size:
            v = x[pos] ** 3
            u = _unif(key[cand], ctr[cand])
            ctr[cand] += _ONE
            zz = z[pos]
            ok = np.log(u) < 0.5 * zz * zz + d - d * v + d * np.log(v)
            acc = cand[ok]
            out[acc] = d * v[ok]
            keep = np.ones(todo.size, dtype=bool)
            keep[np.searchsorted(todo, acc)] = False
            todo = todo[keep]
        # lanes with x <= 0 simply redraw next round
    return out


def _draw_claim(key, ctr, family, fp):
    """One claim per lane. Mutates ctr in place."""
    if family == 0:
        u = _unif(key, ctr)
        ctr += _ONE
        return -np.log(u) / fp[0]
    if family == 1:
        shape = fp[0]
        rate = fp[1]
        if shape >= 1.0:
            return _gamma_mt(key, ctr, shape) / rate
        g = _gamma_mt(key, ctr, shape + 1.0)
        u = _unif(key, ctr)
        ctr += _ONE
        return g * u ** (1.0 / shape) / rate
    k = int(fp[0])
    cumw = fp[1 : 1 + k]
    rates = fp[1 + k : 1 + 2 * k]
    u = _unif(key, ctr)
    ctr += _ONE
    comp = np.minimum(np.searchsorted(cumw, u, side="left"), k - 1)
    u2 = _unif(key, ctr)
    ctr += _ONE
    return -np.log(u2) / rates[comp]


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
    base = _rand_u64(_SEED_SALT, np.uint64(seed))
    key = _rand_u64(np.full(n_paths, base, dtype=np.uint64), np.arange(n_paths, dtype=np.uint64))
    ctr = np.zeros(n_paths, dtype=np.uint64)
    t = np.zeros(n_paths)
    v = np.full(n_paths, float(u0))
    alive = np.arange(n_paths)
    sig2 = sigma * sigma
    n_osc = 0
    n_claim = 0
    while alive.size:
        k = key[alive]
        u_e = _unif(k, ctr[alive])
        ctr[alive] += _ONE
        e = -np.log(u_e) / lam
        ta = t[alive]
        final_seg = ta + e > horizon
        dt = np.where(final_seg, horizon - ta, e)
        va = v[alive]
        if sigma > 0.0:
            u1 = _unif(k, ctr[alive])
            ctr[alive] += _ONE
            u2 = _unif(k, ctr[alive])
            ctr[alive] += _ONE
            z = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
            v1 = va + c * dt + sigma * np.sqrt(dt) * z
            hit = v1 <= 0.0
            safe = ~hit
            if np.any(safe):
                idx_safe = alive[safe]
                u_b = _unif(key[idx_safe], ctr[idx_safe])
                ctr[idx_safe] += _ONE
                with np.errstate(divide="ignore"):
                    cross = np.where(
                        dt[safe] > 0.0,
                        np.exp(-2.0 * va[safe] * v1[safe] / (sig2 * dt[safe])),
                        0.0,
                    )
                bridged = u_b < cross
                hit[safe] |= bridged
            n_osc += int(np.count_nonzero(hit))
            keep = ~hit
        else:
            v1 = va + c * dt
            keep = np.ones(alive.size, dtype=bool)
        # lanes that reached the horizon without ruin survive and are dropped
        claim_event = keep & ~final_seg
        if np.any(claim_event):
            idx_claim = alive[claim_event]
            ctr_claim = ctr[idx_claim]
            x = _draw_claim(key[idx_claim], ctr_claim, family, fp)
            ctr[idx_claim] = ctr_claim
            v_after = v1[claim_event] - x
            dead = v_after <= 0.0
            n_claim += int(np.count_nonzero(dead))
            v[idx_claim[~dead]] = v_after[~dead]
            t[idx_claim[~dead]] = ta[claim_event][~dead] + e[claim_event][~dead]
            alive = idx_claim[~dead]
        else:
            alive = alive[:0]
    return n_osc, n_claim
