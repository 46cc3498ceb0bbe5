"""Iterative lattice bounds on the ruin probability: cell discretization of
the ladder-height distribution plus a Panjer compound-geometric recursion.

Two conventions are provided.

"published" reproduces the tabulated bound columns of the reference tables:
the compound geometric is taken over the combined-ladder cells alone (no
initial oscillation record) and its success parameter is loading/(1-loading).
Those columns are replicated to within ~1e-4, but they do not actually
bracket the ruin probability (the exact curve crosses the upper column in
the midrange), so they are kept as a faithful replication mode.

"strict" builds certified bounds on Psi itself: the correct geometric
parameter q = loading/(1+loading), with the Exp(tau) initial record ladder
discretized to the same lattice and convolved in. Flooring every summand to
the lattice can only shrink the maximal aggregate loss, so the floored tail
is a true lower bound; ceiling gives the upper. The acceptance sandwich
checks run this convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, floor

import numpy as np

from ._kernels import lattice_convolve, panjer_compound
from .exact import RuinCurve
from .model import PerturbedModel

__all__ = ["DiscretizedLadder", "BoundPair", "discretize_ladder", "panjer_bounds"]


@dataclass(frozen=True)
class DiscretizedLadder:
    lattice_width: float
    p_lower: np.ndarray
    p_upper: np.ndarray
    truncation_index: int
    mass_deficit: float


@dataclass(frozen=True)
class BoundPair:
    lower: RuinCurve
    upper: RuinCurve
    lattice_width: float


def discretize_ladder(model: PerturbedModel, lattice_width: float, n_points: int) -> DiscretizedLadder:
    """Floor/ceil cells of the combined ladder CDF H3 on the lattice.

    p_n^- = H3((n+1)w) - H3(nw) with p_0^- = H3(w): mass of [nw, (n+1)w)
    pushed down to nw. p_n^+ = H3(nw) - H3((n-1)w) with p_0^+ = 0: mass
    pushed up. One CDF evaluation per cell edge.
    """
    _check_width(lattice_width)
    if n_points < 1:
        raise ValueError("n_points must be at least 1")
    tau = model.tau
    edges = np.arange(n_points + 1) * lattice_width
    cdf = np.asarray(model.claims.h3_cdf(edges, tau), dtype=float)
    p_lower = np.diff(cdf)  # cell n covers [n*w, (n+1)*w)
    p_upper = np.empty(n_points)
    p_upper[0] = 0.0
    p_upper[1:] = np.diff(cdf[:-1])
    return DiscretizedLadder(
        lattice_width=float(lattice_width),
        p_lower=p_lower,
        p_upper=p_upper,
        truncation_index=int(n_points),
        mass_deficit=float(1.0 - cdf[-2]),  # 1 - sum(p_upper)
    )


def _check_width(lattice_width: float) -> None:
    if not 0.0 < lattice_width < np.inf:
        raise ValueError(f"lattice_width must be finite and positive, got {lattice_width!r}")


def _record_cells(model: PerturbedModel, lattice_width: float, n_points: int):
    """Floor/ceil cells of the Exp(tau) oscillation record CDF H1."""
    tau = model.tau
    edges = np.arange(n_points + 1) * lattice_width
    cdf = -np.expm1(-tau * edges)
    lower = np.diff(cdf)
    upper = np.empty(n_points)
    upper[0] = 0.0
    upper[1:] = np.diff(cdf[:-1])
    return lower, upper


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
    n_points: int | None = None,
) -> BoundPair:
    """Lower/upper bound curves at the given u values.

    u values that are not lattice multiples are snapped down for the upper
    curve and up for the lower curve (both curves are nonincreasing, so the
    snap preserves bound validity). Bound at lattice index k is 1 minus the
    pmf partial sum through k.
    """
    if model.sigma == 0.0:
        raise ValueError("lattice bounds require a diffusion term (sigma > 0)")
    u_arr = np.atleast_1d(np.asarray(u_grid, dtype=float))
    if not np.all(np.isfinite(u_arr) & (u_arr >= 0.0)):
        raise ValueError("u values must be finite and nonnegative")
    if convention not in ("published", "strict"):
        raise ValueError(f"unknown convention {convention!r}")
    _check_width(lattice_width)
    u_max = float(u_arr.max()) if u_arr.size else 0.0
    need = ceil(u_max / lattice_width - 1e-12) + 1
    if n_points is None:
        n_points = ceil(u_max / lattice_width) + 2000
    if n_points < need:
        raise ValueError(
            f"n_points={n_points} truncates below the requested range "
            f"(need at least {need} cells for u_max={u_max})"
        )

    if convention == "published" and model.loading >= 1.0:
        raise ValueError("published convention is defined only for loading < 1")

    ladder = discretize_ladder(model, lattice_width, n_points)

    if convention == "published":
        theta = model.loading
        q_geom = theta / (1.0 - theta)
        pmf_lower = panjer_compound(ladder.p_lower, q_geom)
        pmf_upper = panjer_compound(ladder.p_upper, q_geom)
    else:
        q_geom = model.q
        rec_lower, rec_upper = _record_cells(model, lattice_width, n_points)
        pmf_lower = lattice_convolve(rec_lower, panjer_compound(ladder.p_lower, q_geom))
        pmf_upper = lattice_convolve(rec_upper, panjer_compound(ladder.p_upper, q_geom))

    tail_lower = 1.0 - np.cumsum(pmf_lower)
    tail_upper = 1.0 - np.cumsum(pmf_upper)

    idx_lower = _snap_indices(u_arr, lattice_width, "up")
    idx_upper = _snap_indices(u_arr, lattice_width, "down")
    low_vals = tail_lower[idx_lower]
    up_vals = tail_upper[idx_upper]
    # clip roundoff just below 0 on deep tails
    low_vals = np.clip(low_vals, 0.0, 1.0)
    up_vals = np.clip(up_vals, 0.0, 1.0)
    return BoundPair(
        lower=RuinCurve("dg_lower", u_arr, low_vals),
        upper=RuinCurve("dg_upper", u_arr, up_vals),
        lattice_width=float(lattice_width),
    )
