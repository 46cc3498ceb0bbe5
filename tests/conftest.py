import os
import subprocess
import sys
from pathlib import Path

import pytest

import ruinkit
from ruinkit import Exponential, Gamma, MixedExponential, PerturbedModel

MIX_WEIGHTS = (0.8881815, 0.1078392, 0.0039793)
MIX_RATES = (5.514588, 0.190206, 0.014631)


def run_fresh(code: str) -> str:
    """stdout of `code` run in a new interpreter on this checkout's package."""
    src = str(Path(ruinkit.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    return out.stdout


@pytest.fixture
def exp_model():
    """Exp(1) claims, lam=1, theta=0.01, sigma=1 (the main table model)."""
    return PerturbedModel(Exponential(1.0), lam=1.0, sigma=1.0, loading=0.01)


@pytest.fixture
def gamma_model():
    return PerturbedModel(Gamma(2.0, 2.0), lam=1.0, sigma=1.0, loading=0.01)


@pytest.fixture
def mix_model():
    return PerturbedModel(
        MixedExponential(MIX_WEIGHTS, MIX_RATES), lam=1.0, sigma=1.0, loading=0.01
    )


@pytest.fixture
def heavy_loading_model():
    """theta=1 so ruin happens fast; keeps Monte Carlo tests cheap."""
    return PerturbedModel(Exponential(1.0), lam=1.0, sigma=1.0, loading=1.0)
