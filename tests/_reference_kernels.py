"""Scalar python loops of the hot kernels in ruinkit._kernels.

They are slow and kept only as oracles: the recurrences are written out term
by term, and the Monte Carlo chain runs one path at a time, so the tests can
check the vectorized kernels against an independent reading of the same
formulas and of the same per-path draw sequence.
"""

import math

import numpy as np

# ---------------------------------------------------------------------------
# lattice and Volterra recurrences
# ---------------------------------------------------------------------------


def _panjer_compound_py(p, q):
    # g[0] = q / (1-(1-q)p0);  g[k] = (1-q)/(1-(1-q)p0) * sum_{i>=1} p[i] g[k-i]
    n = p.shape[0]
    g = np.zeros(n)
    denom = 1.0 - (1.0 - q) * p[0]
    g[0] = q / denom
    fac = (1.0 - q) / denom
    for k in range(1, n):
        acc = 0.0
        for i in range(1, k + 1):
            acc += p[i] * g[k - i]
        g[k] = fac * acc
    return g


def _lattice_convolve_py(a, b):
    n = a.shape[0]
    out = np.zeros(n)
    for k in range(n):
        acc = 0.0
        for i in range(k + 1):
            acc += a[i] * b[k - i]
        out[k] = acc
    return out


def _volterra_march_py(forcing, kern, factor, h):
    # psi[k] = forcing[k] + factor*h*( sum_{j=1}^{k-1} kern[j] psi[k-j]
    #                                  + 0.5*kern[k]*psi[0] )
    # requires kern[0] == 0 so the implicit j=0 term vanishes
    n = forcing.shape[0]
    psi = np.zeros(n)
    psi[0] = forcing[0]
    for k in range(1, n):
        acc = 0.5 * kern[k] * psi[0]
        for j in range(1, k):
            acc += kern[j] * psi[k - j]
        psi[k] = forcing[k] + factor * h * acc
    return psi


# ---------------------------------------------------------------------------
# counter-based RNG, one scalar draw at a time
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


def _rand_u64_py(key, ctr):
    z = key + (ctr + _ONE) * _GOLDEN
    z = (z ^ (z >> _SH30)) * _MIX1
    z = (z ^ (z >> _SH27)) * _MIX2
    return z ^ (z >> _SH31)


def _unif_py(key, ctr):
    # uniform on (0, 1]; never 0, so logs are safe
    return float((_rand_u64_py(key, ctr) >> _SH11) + _ONE) * _INV53


def _path_key_py(seed_u, path):
    # avalanche the seed before deriving path keys: mixing both linearly
    # through the same multiplier would alias (seed, p) with (seed+1, p-1)
    return _rand_u64_py(_rand_u64_py(_SEED_SALT, seed_u), path)


# ---------------------------------------------------------------------------
# claim samplers
# family codes: 0 exponential [rate]; 1 gamma [shape, rate];
#               2 mixture [k, cumw_1..k, rate_1..k]
# ---------------------------------------------------------------------------


def _gamma_mt_py(key, ctr, shape):
    # Marsaglia-Tsang for shape >= 1, unit rate; returns (value, ctr)
    d = shape - 1.0 / 3.0
    cc = 1.0 / math.sqrt(9.0 * d)
    while True:
        u1 = _unif_py(key, ctr)
        ctr += _ONE
        u2 = _unif_py(key, ctr)
        ctr += _ONE
        z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
        x = 1.0 + cc * z
        if x <= 0.0:
            continue
        v = x * x * x
        u = _unif_py(key, ctr)
        ctr += _ONE
        if math.log(u) < 0.5 * z * z + d - d * v + d * math.log(v):
            return d * v, ctr


def _draw_claim_py(key, ctr, family, fp):
    if family == 0:
        u = _unif_py(key, ctr)
        ctr += _ONE
        return -math.log(u) / fp[0], ctr
    if family == 1:
        shape = fp[0]
        rate = fp[1]
        if shape >= 1.0:
            g, ctr = _gamma_mt_py(key, ctr, shape)
            return g / rate, ctr
        g, ctr = _gamma_mt_py(key, ctr, shape + 1.0)
        u = _unif_py(key, ctr)
        ctr += _ONE
        return g * u ** (1.0 / shape) / rate, ctr
    # mixture
    k = int(fp[0])
    u = _unif_py(key, ctr)
    ctr += _ONE
    comp = k - 1
    for i in range(k):
        if u <= fp[1 + i]:
            comp = i
            break
    u2 = _unif_py(key, ctr)
    ctr += _ONE
    return -math.log(u2) / fp[1 + k + comp], ctr


@np.errstate(over="ignore")  # uint64 wraparound is the point
def _mc_ruin_paths_py(seed, n_paths, u0, c, lam, sigma, horizon, family, fp):
    """Event-driven paths, one at a time; returns (ruined_by_oscillation, ruined_by_claim)."""
    seed_u = np.uint64(seed)
    sig2 = sigma * sigma
    n_osc = 0
    n_claim = 0
    for p in range(n_paths):
        key = _path_key_py(seed_u, np.uint64(p))
        ctr = np.uint64(0)
        t = 0.0
        v = u0
        while True:
            u_e = _unif_py(key, ctr)
            ctr += _ONE
            e = -math.log(u_e) / lam
            final_seg = t + e > horizon
            dt = horizon - t if final_seg else e
            if sigma > 0.0:
                u1 = _unif_py(key, ctr)
                ctr += _ONE
                u2 = _unif_py(key, ctr)
                ctr += _ONE
                z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
                v1 = v + c * dt + sigma * math.sqrt(dt) * z
                if v1 <= 0.0:
                    n_osc += 1
                    break
                u_b = _unif_py(key, ctr)
                ctr += _ONE
                if dt > 0.0 and u_b < math.exp(-2.0 * v * v1 / (sig2 * dt)):
                    n_osc += 1
                    break
            else:
                v1 = v + c * dt
            if final_seg:
                break
            x, ctr = _draw_claim_py(key, ctr, family, fp)
            v1 -= x
            if v1 <= 0.0:
                n_claim += 1
                break
            v = v1
            t += e
    return n_osc, n_claim
