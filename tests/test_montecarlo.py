"""Event-driven path simulation: determinism, engine parity, statistics.

Statistical assertions run at loading 1 where ruin resolves within a short
horizon, so a fixed seed gives a deterministic, already-verified outcome;
the frozen counts double as regression pins on the bit-exact stream.
"""

import math
import threading
import warnings

import numpy as np
import pytest

from ruinkit import (
    ClaimDistribution,
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
from ruinkit import _kernels
from ruinkit.montecarlo import mc_ruin_paths

from _reference_kernels import _gamma_mt_py, _mc_ruin_paths_py
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
    # a non-integral count or seed is named, not truncated or left to numpy
    for n_paths in (1000.0, 2.5, np.float64(10.0), True, "10"):
        with pytest.raises(ValueError, match="n_paths"):
            SimConfig(exp_model, u=1.0, n_paths=n_paths, seed=0)
    for seed in (1.5, 1.0, np.float64(3.0), False, "7"):
        with pytest.raises(ValueError, match="seed"):
            SimConfig(exp_model, u=1.0, n_paths=10, seed=seed)


def test_numpy_integers_are_accepted(heavy_loading_model):
    a = simulate_ruin(SimConfig(heavy_loading_model, u=1.0, n_paths=np.int64(200), seed=np.uint64(2**64 - 1)))
    b = simulate_ruin(SimConfig(heavy_loading_model, u=1.0, n_paths=200, seed=2**64 - 1))
    assert a == b
    assert type(a.seed) is int and type(a.n_paths) is int and type(a.ruin_freq) is float


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


# each sampler once: the claim law the kernel runs, and the family code and
# flat parameters the scalar oracle reads for it
SAMPLERS = {
    "exp": (Exponential(1.0), 0, [1.0]),
    "gamma2.5": (Gamma(2.5, 2.5), 1, [2.5, 2.5]),  # Marsaglia-Tsang direct
    "gamma0.5": (Gamma(0.5, 0.5), 1, [0.5, 0.5]),  # shape < 1, boosted by u^(1/shape)
    # [k, cumw, rates]
    "mixture": (MixedExponential((0.5, 0.3, 0.2), (2.0, 1.0, 0.25)), 2, [3.0, 0.5, 0.8, 1.0, 2.0, 1.0, 0.25]),
}


def _oracle_case(sampler, seed, n_paths, sigma, horizon, c=2.0, lam=1.0):
    """The same run from u0 = 1 as (kernel args, oracle args)."""
    claims, family, fp = SAMPLERS[sampler]
    model = PerturbedModel(claims, lam=lam, sigma=sigma, premium_rate=c)
    oracle = (seed, n_paths, 1.0, c, lam, sigma, horizon, family, np.array(fp))
    return (seed, n_paths, 1.0, model, horizon), oracle


def test_engines_agree_exactly():
    # the generator is integer-deterministic, so the vectorized kernel and
    # the one-path-at-a-time oracle must consume identical streams
    args, oracle = _oracle_case("exp", 11, 3000, 1.0, 50.0)
    assert mc_ruin_paths(*args) == _mc_ruin_paths_py(*oracle) == (275, 936)


def test_exponential_keeps_its_one_draw_sampler():
    # Exponential is a one-component MixedExponential but draws one uniform
    # per claim; a mixture built with one component draws two, as the
    # oracle's family 2 does, so neither class's streams change
    one = MixedExponential((1.0,), (2.0,))
    assert Exponential(2.0)._mc_draws == 1
    assert one._mc_draws == 2
    counts = mc_ruin_paths(11, 1000, 1.0, PerturbedModel(one, lam=1.0, sigma=1.0, premium_rate=2.0), 50.0)
    assert counts == _mc_ruin_paths_py(11, 1000, 1.0, 2.0, 1.0, 1.0, 50.0, 2, np.array([1.0, 1.0, 2.0]))


class _UnitClaims(ClaimDistribution):
    """Claims of size 1, with no Monte Carlo sampler; the simulation reads
    only the mean, so the other methods are left out."""

    def raw_moment(self, k):
        return 1.0

    mgf_sup = math.inf
    _mgf_unchecked = _mgf_minus_one = cdf = tail = integrated_tail = upper_integrated_tail = None


def test_a_claim_law_without_a_sampler_is_refused():
    model = PerturbedModel(_UnitClaims(), lam=1.0, sigma=1.0, loading=1.0)
    with pytest.raises(TypeError, match="no sampler for claim family _UnitClaims"):
        simulate_ruin(SimConfig(model, u=1.0, n_paths=10, seed=0))


# sigma=0 draws no diffusion uniforms; at horizons 2 and 0.5 most survivors
# end in a censored final segment, whose diffusion runs only to the horizon
@pytest.mark.parametrize(
    "sampler, seed, sigma, horizon, counts",
    [
        ("gamma2.5", 11, 1.0, 50.0, (319, 813)),
        ("gamma0.5", 11, 1.0, 50.0, (239, 1064)),
        ("mixture", 11, 1.0, 50.0, (266, 1543)),
        ("exp", 11, 0.0, 50.0, (0, 928)),
        ("gamma2.5", 11, 0.0, 50.0, (0, 733)),
        ("gamma0.5", 11, 0.0, 50.0, (0, 1048)),
        ("mixture", 11, 0.0, 50.0, (0, 1638)),
        ("exp", 11, 1.0, 2.0, (232, 732)),
        ("gamma2.5", 11, 1.0, 2.0, (263, 693)),
        ("gamma0.5", 11, 1.0, 2.0, (183, 742)),
        ("mixture", 11, 1.0, 2.0, (190, 806)),
        ("exp", 11, 1.0, 0.5, (105, 395)),
        ("gamma2.5", 11, 1.0, 0.5, (136, 397)),
        ("gamma0.5", 11, 1.0, 0.5, (77, 351)),
        ("mixture", 11, 1.0, 0.5, (100, 348)),
        ("exp", 2**64 - 1, 1.0, 50.0, (275, 889)),
        ("gamma0.5", 2**64 - 1, 1.0, 2.0, (201, 679)),
    ],
    ids=[
        "gamma2.5",
        "gamma0.5",
        "mixture",
        *(f"{name}-sigma0" for name in SAMPLERS),
        *(f"{name}-h2" for name in SAMPLERS),
        *(f"{name}-h0.5" for name in SAMPLERS),
        "exp-seedmax",
        "gamma0.5-h2-seedmax",
    ],
)
def test_every_sampler_matches_the_oracle(sampler, seed, sigma, horizon, counts):
    args, oracle = _oracle_case(sampler, seed, 3000, sigma, horizon)
    assert mc_ruin_paths(*args) == _mc_ruin_paths_py(*oracle) == counts


def _serial_counts(seed, n_paths, u0, model, horizon):
    # every lane built as one array from its path key, then one _advance:
    # the path loop as it runs on one CPU
    with np.errstate(over="ignore"):
        base = _kernels._mix(_kernels._SEED_SALT + (np.uint64(seed) + np.uint64(1)) * _kernels._GOLDEN)
        keys = base + np.arange(1, n_paths + 1, dtype=np.uint64) * _kernels._GOLDEN
    state = _kernels._mix(keys) + _kernels._GOLDEN
    lanes = (state, np.full(n_paths, u0), np.zeros(n_paths))
    return _kernels._advance(*lanes, model, horizon)


@pytest.mark.parametrize(
    "sampler, sigma", [("exp", 1.0), ("exp", 0.0), ("gamma0.5", 1.0), ("mixture", 1.0)]
)
def test_counts_do_not_depend_on_the_cpu_count(sampler, sigma, monkeypatch):
    # 50k paths make three shares of more than twice the floor each, so the
    # threaded path runs whatever the machine; gamma0.5 runs its per-lane
    # rejection loop inside each share
    args, _ = _oracle_case(sampler, 5, 50_000, sigma, 2.0)
    counts = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(_kernels, "_cpu_count", lambda: cpus)
        counts.append(mc_ruin_paths(*args))
    assert counts[0] == counts[1] == counts[2] == _serial_counts(*args)
    assert counts[0][1] > 0


@pytest.mark.parametrize(
    "args, counts",
    [
        # theta = 0.01: paths live for thousands of events, most of them in
        # blocks of many events once few lanes are left
        (_oracle_case("exp", 5, 20_000, 1.0, 2000.0, c=1.01)[0], (7180, 12361)),
        (_oracle_case("mixture", 5, 40_000, 0.0, 50.0)[0], (0, 21971)),
        (_oracle_case("gamma0.5", 5, 40_000, 1.0, 2.0)[0], (2408, 9674)),
    ],
    ids=["exp-theta0.01-h2000", "mixture-sigma0", "gamma0.5-h2"],
)
def test_counts_do_not_depend_on_the_block_size(args, counts, monkeypatch):
    # the counts are frozen from the event-at-a-time loop; gamma claims keep
    # one event a block whatever _BLOCK is
    model = args[3]
    draws = model.claims._mc_draws
    event_draws = (4 if model.sigma > 0.0 else 1) + (draws or 0)
    rows = []  # rows of every draw; list.append is safe from the share threads
    uniforms = _kernels._uniforms

    def spy(state, m):
        rows.append(m)
        return uniforms(state, m)

    monkeypatch.setattr(_kernels, "_uniforms", spy)
    for block in (1, _kernels._BLOCK, 2**20):
        monkeypatch.setattr(_kernels, "_BLOCK", block)
        for cpus in (1, 2, 3):
            monkeypatch.setattr(_kernels, "_cpu_count", lambda: cpus)
            rows.clear()
            assert mc_ruin_paths(*args) == counts, (block, cpus)
            if block == 1 or draws is None:
                assert max(rows) <= event_draws
            else:
                assert max(rows) > event_draws  # a block of several events ran


def test_gamma_sampler_matches_the_scalar_oracle():
    # Marsaglia-Tsang at shape 1.5 on 20000 lanes: the cube is x * x * x, as
    # in the oracle, so a draw differs only where numpy's log rounds apart
    # from math.log (libm pow made 4610 of 20000 differ)
    with np.errstate(over="ignore"):  # uint64 wraparound is the point
        keys = _kernels._mix(np.arange(1, 20_001, dtype=np.uint64) * _kernels._GOLDEN)
        state = keys + _kernels._GOLDEN
        draws = _kernels._gamma_mt(state, 1.5)
        oracle = [_gamma_mt_py(key, np.uint64(0), 1.5) for key in keys]
        # where a lane ends after the oracle's draws
        ends = np.array([key + (ctr + np.uint64(1)) * _kernels._GOLDEN for key, (_, ctr) in zip(keys, oracle)])
    same = draws == np.array([g for g, _ in oracle])
    assert np.count_nonzero(same) >= 0.999 * keys.size
    assert np.array_equal(state[same], ends[same])


@pytest.mark.parametrize("failing_share", [0, 1])
def test_a_failing_share_raises_in_the_caller(failing_share, monkeypatch):
    advance = _kernels._advance

    def failing(*args):
        on_caller = threading.current_thread() is threading.main_thread()
        if on_caller == (failing_share == 0):
            raise RuntimeError(f"share {failing_share} failed")
        return advance(*args)

    monkeypatch.setattr(_kernels, "_cpu_count", lambda: 2)
    monkeypatch.setattr(_kernels, "_advance", failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"share {failing_share} failed"):
        mc_ruin_paths(*_oracle_case("exp", 5, 50_000, 1.0, 2.0)[0])
    assert threading.active_count() == before


def test_threaded_shares_raise_no_numpy_warning(monkeypatch):
    # numpy's error state does not pass to a new thread; at lam = 1e-308 the
    # first wait overflows to inf in every lane of every share, and every
    # path is censored at the horizon after its diffusion
    monkeypatch.setattr(_kernels, "_cpu_count", lambda: 2)
    args, _ = _oracle_case("exp", 5, 50_000, 1.0, 2.0, lam=1e-308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        counts = mc_ruin_paths(*args)
    assert counts == _serial_counts(*args)
    assert counts[0] > 0 and counts[1] == 0


@pytest.mark.parametrize(
    "sampler, sigma, totals",
    [
        ("exp", 0.0, (0, 5)),
        ("exp", 1.0, (0, 6)),
        ("gamma2.5", 0.0, (0, 3)),
        ("gamma2.5", 1.0, (1, 5)),
        ("gamma0.5", 0.0, (0, 2)),
        ("gamma0.5", 1.0, (0, 11)),
        ("mixture", 0.0, (0, 13)),
        ("mixture", 1.0, (1, 10)),
    ],
)
def test_single_path_matches_the_oracle(sampler, sigma, totals):
    # one lane, seeds 0..19: the counts summed over the seeds are frozen
    osc = claim = 0
    for seed in range(20):
        args, oracle = _oracle_case(sampler, seed, 1, sigma, 50.0)
        counts = mc_ruin_paths(*args)
        assert counts == _mc_ruin_paths_py(*oracle)
        osc += counts[0]
        claim += counts[1]
    assert (osc, claim) == totals


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
