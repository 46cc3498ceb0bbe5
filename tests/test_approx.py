"""Closed-form approximation families against frozen reference rows."""

import numpy as np
import pytest

from ruinkit import (
    Exponential,
    FitInfeasibleError,
    MixedExponential,
    PerturbedModel,
    adjustment_coefficient,
    de_vylder_fit,
    de_vylder_ruin,
    lundberg_bound,
    mixture_exact_ruin,
    pkdv_approx,
    pkdv_coefficients,
    relative_error,
    renyi_approx,
    two_point_pade,
    two_point_pade_params,
)
from ruinkit.approx import _mixture_modes

import _reference_modes
import _reference_values as ref
from conftest import MIX_RATES, MIX_WEIGHTS


U11 = np.array(ref.U11)
U10 = np.array(ref.U10)
MODE_KEYS = sorted(_reference_modes.MODES)

# Decay rates (rate1, rate2) of the De Vylder surrogate for Exp(rate)
# claims, lam=1, keyed by (rate, sigma, theta): 50-digit roots of the
# surrogate's own quadratic, rounded to double. Recipe (mpmath 1.3,
# mp.dps = 50), with f = de_vylder_fit(model) and its fields taken as doubles:
#   sigma_sq*r^2 - (2c + beta*sigma_sq)*r + 2(c*beta - lam) = 0
# for sigma_sq = f.sigma_sq, c = f.premium_rate, beta = f.claim_rate,
# lam = f.lam, solved with mp.sqrt of the discriminant.
DE_VYLDER_RATES = {
    (0.5, 0.1, 0.001): (0.0004988781463691268, 400.8995011218535),
    (0.5, 0.1, 0.01): (0.004944436211247093, 404.4950555637887),
    (1.0, 0.1, 0.001): (0.0009940406964059846, 201.19900595930352),
    (1.0, 0.1, 0.01): (0.009852694953684, 202.9901473050463),
}


class TestDeVylderFit:
    def test_exponential_claims_fit_is_identity(self):
        for sigma, theta in ((0.5, 0.01), (1.0, 0.2), (2.0, 1.0)):
            m = PerturbedModel(Exponential(1.3), lam=0.7, sigma=sigma, loading=theta)
            f = de_vylder_fit(m)
            assert f.lam == pytest.approx(m.lam, rel=1e-12)
            assert f.premium_rate == pytest.approx(m.c, rel=1e-12)
            assert f.sigma_sq == pytest.approx(sigma**2, rel=1e-12)
            assert f.claim_rate == pytest.approx(1.3, rel=1e-12)

    def test_gamma_frozen_parameters(self, gamma_model):
        f = de_vylder_fit(gamma_model)
        assert f.lam == pytest.approx(2.048, rel=1e-12)
        assert f.premium_rate == pytest.approx(1.29, rel=1e-12)
        assert f.sigma_sq == pytest.approx(0.9, rel=1e-12)
        assert f.claim_rate == pytest.approx(1.6, rel=1e-12)
        assert f.rate1 == pytest.approx(0.007974435936730393, rel=1e-10)
        assert f.rate2 == pytest.approx(4.458692230729937, rel=1e-10)
        assert f.amp1 == pytest.approx(0.9967987666389097, rel=1e-10)

    def test_mixture_frozen_parameters(self, mix_model):
        f = de_vylder_fit(mix_model)
        assert f.claim_rate == pytest.approx(0.014797486311928083, rel=1e-10)
        assert f.sigma_sq == pytest.approx(6.132950451577841, rel=1e-10)
        assert f.rate1 == pytest.approx(0.00044084767810008906, rel=1e-10)

    @pytest.mark.parametrize("rate, sigma, theta", sorted(DE_VYLDER_RATES))
    def test_rates_against_50_digit_roots(self, rate, sigma, theta):
        # small sigma and light loading put rate1 far below rate2, where the
        # closed quadratic formula cancels; the companion eigenvalues do not
        f = de_vylder_fit(PerturbedModel(Exponential(rate), lam=1.0, sigma=sigma, loading=theta))
        rate1, rate2 = DE_VYLDER_RATES[rate, sigma, theta]
        assert f.rate1 == pytest.approx(rate1, rel=1e-12, abs=0.0)
        assert f.rate2 == pytest.approx(rate2, rel=1e-12, abs=0.0)

    def test_amplitudes_sum_to_one(self, gamma_model, mix_model):
        for m in (gamma_model, mix_model):
            f = de_vylder_fit(m)
            assert f.amp1 + f.amp2 == pytest.approx(1.0, abs=1e-12)

    def test_no_diffusion_budget_is_infeasible(self):
        # exponential claims with sigma=0: the fitted diffusion variance
        # collapses to zero, which the single-exponential stage cannot carry
        m = PerturbedModel(Exponential(1.0), lam=1.0, sigma=0.0, loading=0.1)
        with pytest.raises(FitInfeasibleError):
            de_vylder_fit(m)

    def test_table_columns(self, gamma_model, mix_model):
        got = de_vylder_ruin(gamma_model, U11)
        np.testing.assert_allclose(got, ref.TABLE_GAMMA["4me"], atol=5e-7)
        got = de_vylder_ruin(mix_model, U11)
        np.testing.assert_allclose(got, ref.TABLE_MIX["4me"], atol=5e-7)

    def test_value_at_zero_is_one(self, gamma_model):
        assert de_vylder_ruin(gamma_model, 0.0) == pytest.approx(1.0, abs=1e-12)


class TestMixtureExact:
    def test_reference_model(self, mix_model):
        got = mixture_exact_ruin(1.0, mix_model.c, 1.0, MIX_WEIGHTS, MIX_RATES, U11)
        np.testing.assert_allclose(got, ref.TABLE_MIX["exact"], atol=5e-7)

    def test_single_component_equals_de_vylder(self, exp_model):
        got = mixture_exact_ruin(1.0, exp_model.c, 1.0, (1.0,), (1.0,), np.array([0.5, 5.0, 50.0]))
        expected = de_vylder_ruin(exp_model, np.array([0.5, 5.0, 50.0]))
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_value_at_zero(self, mix_model):
        assert mixture_exact_ruin(1.0, mix_model.c, 1.0, MIX_WEIGHTS, MIX_RATES, 0.0) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_scalar_shape(self, mix_model):
        v = mixture_exact_ruin(1.0, mix_model.c, 1.0, MIX_WEIGHTS, MIX_RATES, 10.0)
        assert isinstance(v, float)
        assert v == pytest.approx(0.977847, abs=5e-7)

    @pytest.mark.parametrize("key", MODE_KEYS, ids=[f"{m}-theta{t:g}-sigma{s:g}" for m, t, s in MODE_KEYS])
    def test_modes_against_60_digit_references(self, key):
        mixture, _, sigma = key
        c, rates, amps, psi = _reference_modes.MODES[key]
        weights, claim_rates = _reference_modes.MIXTURES[mixture]
        got_rates, got_amps = _mixture_modes(1.0, c, sigma**2, MixedExponential(weights, claim_rates))
        np.testing.assert_allclose(got_rates, rates, rtol=3e-14, atol=0.0)
        np.testing.assert_allclose(got_amps, amps, rtol=0.0, atol=1e-14)
        got_psi = mixture_exact_ruin(1.0, c, sigma, weights, claim_rates, np.array(_reference_modes.PSI_U))
        np.testing.assert_allclose(got_psi, psi, rtol=3e-14, atol=0.0)

    @pytest.mark.parametrize("key", MODE_KEYS, ids=[f"{m}-theta{t:g}-sigma{s:g}" for m, t, s in MODE_KEYS])
    def test_dominant_rate_is_the_adjustment_coefficient(self, key):
        mixture, _, sigma = key
        c = _reference_modes.MODES[key][0]
        m = PerturbedModel(MixedExponential(*_reference_modes.MIXTURES[mixture]), lam=1.0, sigma=sigma, premium_rate=c)
        rates, _ = _mixture_modes(m.lam, m.c, m.sigma**2, m.claims)
        assert rates[0] == pytest.approx(adjustment_coefficient(m).R, rel=3e-14, abs=0.0)

    def test_equal_rates_are_one_exponential(self, exp_model):
        # a repeated claim rate is one pole, not an empty gap between two
        for sigma in (0.1, 1.0, 2.0):
            halves = _mixture_modes(1.0, exp_model.c, sigma**2, MixedExponential((0.5, 0.5), (1.0, 1.0)))
            assert halves == _mixture_modes(1.0, exp_model.c, sigma**2, Exponential(1.0))

    @pytest.mark.parametrize(
        "lam, c, sigma, weights, rates, message",
        [
            (1.0, 1.0, 1.0, (1.0,), (1.0,), "net profit"),  # c = lam*mu1
            (1.0, 0.5, 1.0, (1.0,), (1.0,), "net profit"),
            (1.0, 2.0, 1.0, (0.0, 1.0), (1.0, 3.0), "weight must be"),
            (1.0, 2.0, 1.0, (-0.5, 1.5), (1.0, 3.0), "weight must be"),
            (1.0, 2.0, 1.0, (0.5, 0.5), (-1.0, 3.0), "rate must be"),
            (1.0, 2.0, 1.0, (0.5, 0.5), (1.0, np.inf), "rate must be"),
            (1.0, np.nan, 1.0, (1.0,), (1.0,), "premium_rate must be finite"),
            (0.0, 0.1, 1.0, (1.0,), (1.0,), "lam must be"),
            (1.0, 2.0, 1.0, (0.45, 0.45), (1.0, 3.0), "weights sum to"),
            (1.0, 2.0, 0.0, (1.0,), (1.0,), "diffusion term"),
        ],
    )
    def test_bad_input_raises(self, lam, c, sigma, weights, rates, message):
        # the model's own checks name the fault
        with pytest.raises(ValueError, match=message):
            mixture_exact_ruin(lam, c, sigma, weights, rates, 1.0)


class TestRenyi:
    def test_table_columns(self, exp_model, gamma_model, mix_model):
        np.testing.assert_allclose(renyi_approx(exp_model, U11), ref.TABLE_EXP["ren2"], atol=5e-7)
        np.testing.assert_allclose(renyi_approx(gamma_model, U11), ref.TABLE_GAMMA["ren2"], atol=5e-7)
        np.testing.assert_allclose(renyi_approx(mix_model, U11), ref.TABLE_MIX["ren2"], atol=5e-7)

    def test_value_at_zero(self, exp_model):
        assert renyi_approx(exp_model, 0.0) == pytest.approx(1.0 - exp_model.q, rel=1e-12)


class TestPkdv:
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("order", [3, 4, 5])
    def test_reference_rows(self, sigma, order):
        m = PerturbedModel(Exponential(1.0), lam=1.0, sigma=sigma, loading=0.01)
        got = pkdv_approx(m, order, U10)
        np.testing.assert_allclose(got, ref.PKDV_ROWS[sigma][f"pkdv{order}"], atol=5e-7)

    def test_sigma_one_order_coincidence(self):
        # sigma = 1 makes sigma and sigma^2 indistinguishable, so the
        # order-5 default coincides with order 4 exactly
        m = PerturbedModel(Exponential(1.0), lam=1.0, sigma=1.0, loading=0.01)
        a4, b4 = pkdv_coefficients(m, 4)
        a5, b5 = pkdv_coefficients(m, 5)
        assert a4 == pytest.approx(a5, rel=1e-14)
        assert b4 == pytest.approx(b5, rel=1e-14)

    def test_corrected_order5_for_exponential_claims(self):
        # with sigma^2 restored, exponential moments collapse the order-5
        # weights onto the order-4 ones at any sigma
        m = PerturbedModel(Exponential(1.0), lam=1.0, sigma=0.5, loading=0.01)
        a4, b4 = pkdv_coefficients(m, 4)
        a5, b5 = pkdv_coefficients(m, 5, corrected=True)
        assert a4 == pytest.approx(a5, rel=1e-12)
        assert b4 == pytest.approx(b5, rel=1e-12)

    def test_default_order5_mean_shift(self):
        # the default order-5 weights carry sigma unsquared, shifting the
        # implied mean by (lam*mu2 + sigma) / (lam*mu2 + sigma^2)
        m = PerturbedModel(Exponential(1.0), lam=1.0, sigma=0.5, loading=0.01)
        a5, b5 = pkdv_coefficients(m, 5)
        shift = (2.0 + 0.5) / (2.0 + 0.25)
        assert (a5 / b5) / m.mean_max_loss() == pytest.approx(shift, rel=1e-10)

    @pytest.mark.parametrize("order", [3, 4])
    def test_mean_identity(self, order, exp_model, gamma_model, mix_model):
        for m in (exp_model, gamma_model, mix_model):
            amp, rate = pkdv_coefficients(m, order)
            assert amp / rate == pytest.approx(m.mean_max_loss(), rel=1e-12)

    def test_order3_exp_matches_second_loss_moment(self, exp_model):
        # for exponential claims the order-3 fit reproduces not only the
        # integrated ruin mass E[L] but also the first transform moment
        # E[L^2]/2 (the exact transform's slope at the origin). Higher
        # orders and other claim laws keep only the mean identity.
        amp, rate = pkdv_coefficients(exp_model, 3)
        assert amp / rate == pytest.approx(150.0, rel=1e-12)
        assert amp / rate**2 == pytest.approx(45200.0 / 2.0, rel=1e-10)

    def test_invalid_order(self, exp_model):
        with pytest.raises(ValueError):
            pkdv_coefficients(exp_model, 6)

    def test_table_columns_other_models(self, gamma_model, mix_model):
        np.testing.assert_allclose(pkdv_approx(gamma_model, 3, U11), ref.TABLE_GAMMA["pkdv3"], atol=5e-7)
        np.testing.assert_allclose(pkdv_approx(gamma_model, 4, U11), ref.TABLE_GAMMA["pkdv4"], atol=5e-7)
        np.testing.assert_allclose(pkdv_approx(mix_model, 3, U11), ref.TABLE_MIX["pkdv3"], atol=5e-7)
        np.testing.assert_allclose(pkdv_approx(mix_model, 4, U11), ref.TABLE_MIX["pkdv4"], atol=5e-7)


class TestTwoPointPade:
    def test_frozen_parameters(self, exp_model):
        p = two_point_pade_params(exp_model)
        assert p.a0 == pytest.approx(2.98019801980198, rel=1e-12)
        assert p.a1 == pytest.approx(1.9801980198019802, rel=1e-12)
        assert p.b0 == pytest.approx(0.02, rel=1e-12)
        assert p.b1 == pytest.approx(3.0, rel=1e-12)
        assert p.b2 == pytest.approx(2.0, rel=1e-12)
        assert p.k1 == pytest.approx(1.0 - exp_model.q, rel=1e-12)
        assert p.k2 == pytest.approx(1.0056791276578532, rel=1e-12)
        assert p.zeta == pytest.approx(0.7433034373659253, rel=1e-12)
        assert p.eta == pytest.approx(0.75, rel=1e-12)

    def test_both_modes_decay(self, exp_model, gamma_model, mix_model):
        for m in (exp_model, gamma_model, mix_model):
            p = two_point_pade_params(m)
            assert p.zeta < p.eta

    def test_table_columns(self, exp_model, gamma_model, mix_model):
        np.testing.assert_allclose(two_point_pade(exp_model, U11), ref.TABLE_EXP["2pp"], atol=5e-7)
        np.testing.assert_allclose(two_point_pade(gamma_model, U11), ref.TABLE_GAMMA["2pp"], atol=5e-7)
        np.testing.assert_allclose(two_point_pade(mix_model, U11), ref.TABLE_MIX["2pp"], atol=5e-7)

    def test_value_at_zero(self, exp_model):
        assert two_point_pade(exp_model, 0.0) == pytest.approx(1.0 - exp_model.q, rel=1e-12)

    def test_needs_diffusion(self):
        m = PerturbedModel(Exponential(1.0), lam=1.0, sigma=0.0, loading=0.1)
        with pytest.raises(ValueError, match="sigma"):
            two_point_pade(m, 1.0)


CLOSED_FORMS = {
    "de_vylder_ruin": de_vylder_ruin,
    "renyi_approx": renyi_approx,
    "pkdv3": lambda m, u: pkdv_approx(m, 3, u),
    "pkdv4": lambda m, u: pkdv_approx(m, 4, u),
    "pkdv5": lambda m, u: pkdv_approx(m, 5, u),
    "two_point_pade": two_point_pade,
    "mixture_exact_ruin": lambda m, u: mixture_exact_ruin(m.lam, m.c, m.sigma, MIX_WEIGHTS, MIX_RATES, u),
    "lundberg_bound": lundberg_bound,
}


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_closed_form_follows_the_shape_of_u(name, mix_model):
    # every closed form is one exponential sum: a float for scalar or 0-d u,
    # u's shape for a grid, and the same values as point by point
    curve = CLOSED_FORMS[name]
    for u in (2.0, np.array(2.0)):
        assert type(curve(mix_model, u)) is float
    grid = np.array([[0.0, 0.5, 2.0], [5.0, 50.0, 500.0]])
    pointwise = np.array([[curve(mix_model, x) for x in row] for row in grid.tolist()])
    for u in (grid, grid.ravel()):
        got = curve(mix_model, u)
        assert isinstance(got, np.ndarray) and got.shape == u.shape
        np.testing.assert_array_equal(got, pointwise.reshape(u.shape))
    # and it takes no u that the exact curve and the bounds refuse
    for bad in (-1.0, -1e-300, np.nan, np.inf, -np.inf, np.array([1.0, np.nan]), np.array([[2.0], [-1.0]])):
        with pytest.raises(ValueError, match="u must be finite and nonnegative"):
            curve(mix_model, bad)


def test_relative_error():
    assert relative_error(0.99, 1.0) == pytest.approx(0.01, rel=1e-12)
    vals = relative_error(np.array([1.0, 2.0]), np.array([2.0, 2.0]))
    np.testing.assert_allclose(vals, [0.5, 0.0], atol=1e-15)
    with pytest.raises(ValueError):
        relative_error(1.0, 0.0)


def test_two_point_pade_error_stays_below_one_percent():
    # not an asymptotic statement, just a quality floor on the regime the
    # tables cover: light loading, moderate u, a spread of diffusion levels
    for sig in (0.1, 0.5, 1.0, 2.0):
        m = PerturbedModel(Exponential(1.0), lam=1.0, sigma=sig, loading=0.01)
        for u in np.linspace(0.1, 5.0, 25):
            err = relative_error(two_point_pade(m, u), de_vylder_ruin(m, u))
            assert err < 0.01, (sig, u, err)
