"""Iterative lattice bounds on the ruin probability: cell discretization of
the ladder-height distribution plus a Panjer compound-geometric recursion.

Each bound is the tail series of a compound geometric, never 1 minus a pmf
partial sum: with cells p and cell tails P̄[k] = sum_{n>k} p[n],

    sum_k P(S > k) z^k = (1-q) P̄(z) / (1 - (1-q) P(z))

is one Panjer-style series division with a positive numerator (the
survival-function form of Dickson & Waters 1991). P̄ is read straight from
the ladder tail 1 - H3 of the claim distribution, so the bounds keep their
relative accuracy down to the underflow range.

Two conventions are provided.

"published" reproduces the tabulated bound columns of the reference tables:
the compound geometric is taken over the combined-ladder cells alone (no
initial oscillation record) and its success parameter is loading/(1-loading),
a probability only for loading < 1/2; larger loadings are rejected.
Those columns are replicated to within ~1e-4, but they do not actually
bracket the ruin probability (the exact curve crosses the upper column in
the midrange), so they are kept as a faithful replication mode.

"strict" builds certified bounds on Psi itself: the correct geometric
parameter q = loading/(1+loading), plus the Exp(tau) initial record
discretized to the same lattice. Its cells are geometric with ratio
r = e^{-tau w}, so the tail of record + compound is the first-order
recurrence y[k] = r y[k-1] + (1-r) G[k] over the compound tail G, summed as
positive terms. Flooring every summand to the lattice can only shrink the
maximal aggregate loss, so the floored tail is a true lower bound; ceiling
gives the upper. The acceptance sandwich checks run this convention.

The lattice holds the cells a request reads and no more: ceil(u_max/w) + 1
of them, the last one the largest index a u snaps to.
Every step is causal. Cell k of the ladder reads the ladder tail at the
edges k and k+1, the Panjer tail at k reads cells 0..k, and the record is
the recurrence above, its ceiling form shifted one cell up. So cells past
the last read one change no read value beyond rounding (the division's
tilt and FFT sizes follow the length): a grid point 2000 cells further out
moves the bounds at the others by under 1e-13 relative.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, exp, expm1

import numpy as np

# lattice_convolve is no longer called here; perfbench/tracing.py rebinds it at this name
from ._kernels import _count, _decay_scan, _like, _points, _positive, lattice_convolve, panjer_compound  # noqa: F401
from .model import PerturbedModel

__all__ = ["DiscretizedLadder", "BoundPair", "discretize_ladder", "panjer_bounds"]


@dataclass(frozen=True)
class DiscretizedLadder:
    lattice_width: float
    p_lower: np.ndarray
    p_upper: np.ndarray
    mass_deficit: float
    tail: np.ndarray  # 1 - H3 at the cell edges 0, w, ..., n_points * w


@dataclass(frozen=True)
class BoundPair:
    lower: np.ndarray | float  # in u's shape (_kernels._like)
    upper: np.ndarray | float
    lattice_width: float


def discretize_ladder(model: PerturbedModel, lattice_width: float, n_points: int) -> DiscretizedLadder:
    """Floor/ceil cells of the combined ladder distribution H3 on the lattice.

    p_n^- = H3((n+1)w) - H3(nw): mass of [nw, (n+1)w) pushed down to nw.
    p_n^+ = H3(nw) - H3((n-1)w) with p_0^+ = 0: mass pushed up. Cells and
    mass deficit are differences of one ladder-tail evaluation at the cell
    edges, which is kept as `tail`. lattice_width must be one finite positive
    number and n_points an integer of at least 1 (_kernels._positive and
    _count): a bool, a string or an array is refused.
    """
    lattice_width = _positive("lattice_width", lattice_width)
    n_points = _count("n_points", n_points)
    edges = np.arange(n_points + 1) * lattice_width
    tail = model.claims._ladder(edges, model.tau)[0]
    p_lower = tail[:-1] - tail[1:]  # cell n covers [n*w, (n+1)*w)
    p_upper = np.empty(n_points)
    p_upper[0] = 0.0
    p_upper[1:] = p_lower[:-1]
    return DiscretizedLadder(
        lattice_width=lattice_width,
        p_lower=p_lower,
        p_upper=p_upper,
        mass_deficit=float(tail[-2]),  # 1 - sum(p_upper)
        tail=tail,
    )


def _with_record(tail: np.ndarray, span: float) -> np.ndarray:
    """Tail of R + S on the lattice from the tail of S, for R the Exp(tau)
    record floored to the lattice: P(R = n) = (1-r) r^n, r = e^{-span},
    span = tau * w.

    y[k] = r y[k-1] + (1-r) tail[k] from y[-1] = 1, that is y[k] = sum_{j<=k}
    r^{k-j} x[j] with x = (1-r) tail and r added to x[0]: one decay scan of
    positive terms, so each value keeps its relative accuracy.
    """
    x = -expm1(-span) * tail  # 1 - r
    x[:1] += exp(-span)  # r on x[0]; a slice, so an empty tail stays empty
    return _decay_scan(x, np.arange(tail.size), span)


def _snap_indices(u_grid: np.ndarray, width: float, mode: str) -> np.ndarray:
    k = u_grid / width
    k_round = np.round(k)
    snapped = np.where(
        np.abs(k - k_round) < 1e-9 * np.maximum(1.0, np.abs(k)),
        k_round,
        np.floor(k) if mode == "down" else np.ceil(k),
    )
    return snapped.astype(int)


def panjer_bounds(
    model: PerturbedModel,
    lattice_width: float,
    u_grid,
    convention: str = "published",
) -> BoundPair:
    """Lower/upper bounds at the given u values, each in u's shape (a float
    for a scalar or 0-d u); u may come in any order.

    u values that are not lattice multiples are snapped down for the upper
    curve and up for the lower curve (both curves are nonincreasing, so the
    snap preserves bound validity). Bound at lattice index k is the
    compound tail P(L > k) on the lattice.

    The lattice holds ceil(u_max/w) + 1 cells, the ones the snapped grid
    reads; each bound at index k depends on cells 0..k only, so a longer
    lattice, asked for by a larger u in the grid, gives the same values at
    the other points to rounding.
    """
    if model.sigma == 0.0:
        raise ValueError("lattice bounds require a diffusion term (sigma > 0)")
    u_arr = _points(u_grid)
    if convention not in ("published", "strict"):
        raise ValueError(f"unknown convention {convention!r}")
    lattice_width = _positive("lattice_width", lattice_width)
    u_max = float(u_arr.max()) if u_arr.size else 0.0
    n_points = ceil(u_max / lattice_width - 1e-12) + 1

    # the published parameter loading/(1-loading) is a probability only below 1/2
    if convention == "published" and not model.loading < 0.5:
        raise ValueError(
            f"published convention is defined only for loading < 0.5, got {model.loading:g}"
        )

    ladder = discretize_ladder(model, lattice_width, n_points)
    q_geom = model.loading / (1.0 - model.loading) if convention == "published" else model.q
    # the floor cells' tail beyond k is 1 - H3((k+1)w), the ceiling cells' 1 - H3(kw)
    tail_lower = panjer_compound(ladder.p_lower, q_geom, ladder.tail[1:])
    tail_upper = panjer_compound(ladder.p_upper, q_geom, ladder.tail[:-1])
    if convention == "strict":
        span = model.tau * lattice_width
        tail_lower = _with_record(tail_lower, span)
        # a ceiling record sits one cell higher: y[0] = 1, y[k] = floor form at k-1
        tail_upper = np.concatenate(([1.0], _with_record(tail_upper[:-1], span)))

    idx_lower = _snap_indices(u_arr, lattice_width, "up")
    idx_upper = _snap_indices(u_arr, lattice_width, "down")
    low_vals = tail_lower[idx_lower]
    up_vals = tail_upper[idx_upper]
    # keep roundoff at either end inside [0, 1]
    low_vals = np.clip(low_vals, 0.0, 1.0)
    up_vals = np.clip(up_vals, 0.0, 1.0)
    return BoundPair(
        lower=_like(low_vals, u_grid),
        upper=_like(up_vals, u_grid),
        lattice_width=lattice_width,
    )
