"""Ruin probabilities for the diffusion-perturbed compound-Poisson surplus
process: exact values by Laplace inversion, certified lattice bounds,
closed-form approximations, and a Monte Carlo oracle."""

from ._inversion import InversionError, euler, invert, talbot
from ._kernels import active_backend
from .approx import (
    DeVylderParams,
    FitInfeasibleError,
    TwoPointPadeParams,
    de_vylder_fit,
    de_vylder_ruin,
    mixture_exact_ruin,
    pkdv_approx,
    pkdv_coefficients,
    relative_error,
    renyi_approx,
    two_point_pade,
    two_point_pade_params,
)
from .bounds import BoundPair, DiscretizedLadder, discretize_ladder, panjer_bounds
from .claims import ClaimDistribution, Exponential, Gamma, MixedExponential
from .coefficients import (
    AdjustmentResult,
    NoRootError,
    adjustment_coefficient,
    lundberg_bound,
    renyi_coefficient,
)
from .exact import DecompositionCurves, decompose_ruin, exact_ruin
from .model import CentralMoments, PerturbedModel
from .montecarlo import SimConfig, SimEstimate, simulate_ruin

__version__ = "0.1.0"

__all__ = [
    "AdjustmentResult",
    "BoundPair",
    "CentralMoments",
    "ClaimDistribution",
    "DecompositionCurves",
    "DeVylderParams",
    "DiscretizedLadder",
    "Exponential",
    "FitInfeasibleError",
    "Gamma",
    "InversionError",
    "MixedExponential",
    "NoRootError",
    "PerturbedModel",
    "SimConfig",
    "SimEstimate",
    "TwoPointPadeParams",
    "active_backend",
    "adjustment_coefficient",
    "de_vylder_fit",
    "de_vylder_ruin",
    "decompose_ruin",
    "discretize_ladder",
    "euler",
    "exact_ruin",
    "invert",
    "lundberg_bound",
    "mixture_exact_ruin",
    "panjer_bounds",
    "pkdv_approx",
    "pkdv_coefficients",
    "relative_error",
    "renyi_approx",
    "renyi_coefficient",
    "simulate_ruin",
    "talbot",
    "two_point_pade",
    "two_point_pade_params",
    "__version__",
]
