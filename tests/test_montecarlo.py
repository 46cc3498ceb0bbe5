"""Event-driven path simulation: determinism, engine parity, statistics.

Statistical assertions run at loading 1 where ruin resolves within a short
horizon, so a fixed seed gives a deterministic, already-verified outcome;
the frozen counts double as regression pins on the bit-exact stream.
"""

import numpy as np
import pytest

from ruinkit import (
    Exponential,
    Gamma,
    MixedExponential,
    PerturbedModel,
    SimConfig,
    SimEstimate,
    de_vylder_ruin,
    decompose_ruin,
    simulate_ruin,
)
from ruinkit.montecarlo import mc_ruin_paths

from _reference_kernels import _mc_ruin_paths_py
from conftest import MIX_RATES, MIX_WEIGHTS


def test_default_horizon(exp_model, heavy_loading_model):
    # 50 mean-drift units: horizon = 50 / (c - lam*mu1)
    assert SimConfig(exp_model, u=1.0, n_paths=10, seed=0).resolved_horizon() == pytest.approx(5000.0)
    assert SimConfig(heavy_loading_model, u=1.0, n_paths=10, seed=0).resolved_horizon() == pytest.approx(50.0)


def test_config_validation(exp_model):
    with pytest.raises(ValueError):
        SimConfig(exp_model, u=-1.0, n_paths=10, seed=0)
    with pytest.raises(ValueError):
        SimConfig(exp_model, u=1.0, n_paths=0, seed=0)
    with pytest.raises(ValueError):
        SimConfig(exp_model, u=1.0, n_paths=10, seed=-1)
    with pytest.raises(ValueError, match="seed"):
        SimConfig(exp_model, u=1.0, n_paths=10, seed=2**64)
    with pytest.raises(ValueError):
        SimConfig(exp_model, u=1.0, n_paths=10, seed=0, horizon=0.0)
    # validation only: a NaN or infinite horizon would never end a surviving path
    for horizon in (np.nan, np.inf):
        with pytest.raises(ValueError, match="horizon"):
            SimConfig(exp_model, u=1.0, n_paths=10, seed=0, horizon=horizon)
    with pytest.raises(ValueError, match="surplus"):
        SimConfig(exp_model, u=np.nan, n_paths=10, seed=0)


def test_largest_seed_is_accepted(heavy_loading_model):
    est = simulate_ruin(SimConfig(heavy_loading_model, u=1.0, n_paths=200, seed=2**64 - 1))
    assert est.seed == 2**64 - 1
    assert 0 < est.ruin_freq < 1


def test_deterministic(heavy_loading_model):
    cfg = SimConfig(heavy_loading_model, u=1.0, n_paths=2000, seed=42)
    a = simulate_ruin(cfg)
    b = simulate_ruin(cfg)
    assert a == b


def test_seed_changes_outcome(heavy_loading_model):
    a = simulate_ruin(SimConfig(heavy_loading_model, u=1.0, n_paths=2000, seed=1))
    b = simulate_ruin(SimConfig(heavy_loading_model, u=1.0, n_paths=2000, seed=2))
    assert (a.n_ruined_by_claim, a.n_ruined_by_oscillation) != (
        b.n_ruined_by_claim,
        b.n_ruined_by_oscillation,
    )


def test_frozen_counts(heavy_loading_model):
    est = simulate_ruin(SimConfig(heavy_loading_model, u=1.0, n_paths=20000, seed=7))
    assert est.n_ruined_by_claim == 6216
    assert est.n_ruined_by_oscillation == 1924
    assert est.ruin_freq == pytest.approx(0.407)
    assert est.std_err == pytest.approx(np.sqrt(0.407 * 0.593 / 20000), rel=1e-6)


def test_engines_agree_exactly():
    # the generator is integer-deterministic, so the vectorized kernel and
    # the one-path-at-a-time oracle must consume identical streams
    args = (11, 3000, 1.0, 2.0, 1.0, 1.0, 50.0, 0, np.array([1.0]))
    assert mc_ruin_paths(*args) == _mc_ruin_paths_py(*args) == (275, 936)


@pytest.mark.parametrize(
    "family, fparams, counts",
    [
        (1, [2.5, 2.5], (319, 813)),  # gamma, Marsaglia-Tsang direct
        (1, [0.5, 0.5], (239, 1064)),  # gamma shape < 1, boosted by u^(1/shape)
        (2, [3.0, 0.5, 0.8, 1.0, 2.0, 1.0, 0.25], (266, 1543)),  # mixture [k, cumw, rates]
    ],
    ids=["gamma2.5", "gamma0.5", "mixture"],
)
def test_every_sampler_matches_the_oracle(family, fparams, counts):
    args = (11, 3000, 1.0, 2.0, 1.0, 1.0, 50.0, family, np.array(fparams))
    assert mc_ruin_paths(*args) == _mc_ruin_paths_py(*args) == counts


def test_nearby_seeds_give_independent_streams():
    # a linear key derivation would alias (seed, path) with (seed+1, path-1)
    # and make consecutive seeds nearly identical estimates
    freqs = []
    for seed in range(8):
        est = simulate_ruin(
            SimConfig(
                PerturbedModel(Exponential(1.0), lam=1.0, sigma=1.0, loading=1.0),
                u=1.0,
                n_paths=4000,
                seed=seed,
            )
        )
        freqs.append(est.ruin_freq)
    assert len(set(freqs)) == len(freqs)
    assert np.std(freqs) > 1e-3  # binomial noise is ~0.008; aliasing gave ~1e-5


def test_u_zero_certain_immediate_ruin(heavy_loading_model):
    est = simulate_ruin(SimConfig(heavy_loading_model, u=0.0, n_paths=500, seed=3))
    assert est.ruin_freq == 1.0
    assert est.n_ruined_by_oscillation == 500
    assert est.n_ruined_by_claim == 0


def test_sigma_zero_ruin_only_by_claim():
    m = PerturbedModel(Exponential(1.0), lam=1.0, sigma=0.0, loading=1.0)
    est = simulate_ruin(SimConfig(m, u=1.0, n_paths=4000, seed=5))
    assert est.n_ruined_by_oscillation == 0
    assert est.n_ruined_by_claim == 1181  # frozen
    # classical closed form at u=1: 0.5 * exp(-0.5)
    psi = 0.5 * np.exp(-0.5)
    assert abs(est.ruin_freq - psi) < 3.5 * est.std_err + 0.01


def test_estimate_within_band(heavy_loading_model):
    est = simulate_ruin(SimConfig(heavy_loading_model, u=1.0, n_paths=20000, seed=7))
    psi = de_vylder_ruin(heavy_loading_model, 1.0)  # exact closed form
    assert abs(est.ruin_freq - psi) < 3.5 * est.std_err


def test_split_matches_decomposition(heavy_loading_model):
    est = simulate_ruin(SimConfig(heavy_loading_model, u=1.0, n_paths=20000, seed=7))
    dec = decompose_ruin(heavy_loading_model, 1.0, step=0.01)
    share_dec = dec.psi2.values[-1] / (dec.psi1.values[-1] + dec.psi2.values[-1])
    n_ruined = est.n_ruined_by_claim + est.n_ruined_by_oscillation
    share_mc = est.n_ruined_by_claim / n_ruined
    se_share = np.sqrt(share_dec * (1.0 - share_dec) / n_ruined)
    assert abs(share_mc - share_dec) < 3.5 * se_share


def test_frequency_monotone_in_horizon(heavy_loading_model):
    # a path's event stream is horizon-independent, so with one seed the
    # ruin set can only grow as the horizon extends
    freqs = [
        simulate_ruin(SimConfig(heavy_loading_model, u=1.0, n_paths=3000, seed=9, horizon=T)).ruin_freq
        for T in (5.0, 20.0, 50.0)
    ]
    assert freqs[0] <= freqs[1] <= freqs[2]


def test_gamma_and_mixture_samplers():
    # heavier setup at loading 1 keeps the truncation bias negligible
    g = PerturbedModel(Gamma(2.0, 2.0), lam=1.0, sigma=1.0, loading=1.0)
    est = simulate_ruin(SimConfig(g, u=1.0, n_paths=20000, seed=13))
    from ruinkit import exact_ruin

    psi = exact_ruin(g, 1.0)
    assert abs(est.ruin_freq - psi) < 3.5 * est.std_err

    mx = PerturbedModel(
        MixedExponential(MIX_WEIGHTS, MIX_RATES), lam=1.0, sigma=1.0, loading=1.0
    )
    # the slowest mixture component has mean ~68, so ruin arrives late;
    # the default window would truncate a visible share of ruin events
    est = simulate_ruin(SimConfig(mx, u=1.0, n_paths=20000, seed=17, horizon=1000.0))
    psi = exact_ruin(mx, 1.0)
    assert abs(est.ruin_freq - psi) < 3.5 * est.std_err


def test_estimate_fields(heavy_loading_model):
    est = simulate_ruin(SimConfig(heavy_loading_model, u=1.0, n_paths=100, seed=1))
    assert isinstance(est, SimEstimate)
    assert est.n_paths == 100
    assert est.seed == 1
    assert est.horizon == pytest.approx(50.0)
    assert est.n_ruined_by_claim + est.n_ruined_by_oscillation <= 100
    assert 0.0 <= est.ruin_freq <= 1.0


def test_config_frozen(exp_model):
    cfg = SimConfig(exp_model, u=1.0, n_paths=10, seed=0)
    with pytest.raises(Exception):
        cfg.u = 2.0
