"""Decay-rate root finding and the exponential tail bounds built on it."""

import math

import numpy as np
import pytest

from ruinkit import (
    Exponential,
    PerturbedModel,
    adjustment_coefficient,
    lundberg_bound,
    renyi_coefficient,
)
from ruinkit.approx import de_vylder_fit
from ruinkit.coefficients import NoRootError


def test_unit_loading_closed_form():
    # lam=1, theta=1, sigma=1, Exp(1): the root equation is quadratic after
    # clearing and the positive root is (5 - sqrt(17)) / 2
    m = PerturbedModel(Exponential(1.0), lam=1.0, sigma=1.0, loading=1.0)
    res = adjustment_coefficient(m)
    assert res.R == pytest.approx((5.0 - math.sqrt(17.0)) / 2.0, abs=1e-9)


def test_exp_table_model(exp_model):
    res = adjustment_coefficient(exp_model)
    assert res.R == pytest.approx(0.006637103025, abs=1e-10)
    assert res.R == pytest.approx(0.0066371, abs=1e-6)


def test_gamma_table_model(gamma_model):
    res = adjustment_coefficient(gamma_model)
    assert res.R == pytest.approx(0.007974435962, abs=1e-10)
    assert res.R == pytest.approx(0.0079744, abs=1e-6)


def test_mixture_table_model(mix_model):
    res = adjustment_coefficient(mix_model)
    assert res.R == pytest.approx(4.408475716e-4, rel=1e-8)
    # the root must sit inside the mgf convergence region
    assert res.R < mix_model.claims.mgf_sup


@pytest.mark.parametrize("loading", [0.01, 0.1, 1.0, 4.0])
def test_sigma_zero_exponential(loading):
    # classical compound Poisson: R = theta*rate/(1+theta) for Exp claims
    m = PerturbedModel(Exponential(1.0), lam=1.0, sigma=0.0, loading=loading)
    R = adjustment_coefficient(m).R
    assert R == pytest.approx(loading / (1.0 + loading), abs=1e-12)
    assert R == pytest.approx(loading / (1.0 + loading), rel=1e-11)


@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("loading", [0.01, 0.1, 1.0])
@pytest.mark.parametrize("rate", [0.5, 3.0])
def test_perturbed_exponential_closed_form(sigma, loading, rate):
    # Exp(beta) claims with sigma > 0: R is the smaller root of
    # sigma^2 r^2 - (2c + beta sigma^2) r + 2(c beta - lam), which the
    # De Vylder fit (the identity for exponential claims) reports as rate1.
    # Its closed form cancels for small R, and g's own noise at the root is
    # about 1e-16 / (theta lam mu); together they stay below 2e-11
    m = PerturbedModel(Exponential(rate), lam=1.0, sigma=sigma, loading=loading)
    assert adjustment_coefficient(m).R == pytest.approx(de_vylder_fit(m).rate1, rel=1e-10)


# 30 digits of R for the three theta = 0.01 table models (lam = 1, sigma = 1),
# with c and the claim parameters taken as the doubles the models hold. The
# mixture's M(r) - 1 is sum w r / (b - r): its weights are read as a law.
#
#   import mpmath as mp
#   mp.mp.dps = 50
#   def root(mgf_minus_one, c, guess):
#       g = lambda r: mgf_minus_one(r) - mp.mpf(c) * r + r * r / 2
#       return mp.findroot(g, (0.9 * mp.mpf(guess), 1.1 * mp.mpf(guess)), solver="anderson")
#   root(lambda r: r / (1 - r), 1.01, 0.0066)                       # exp
#   root(lambda r: (1 - r / 2) ** -2 - 1, 1.01, 0.0080)             # gamma
#   root(lambda r: mp.fsum(mp.mpf(w) * r / (mp.mpf(b) - r)
#                          for w, b in zip(MIX_WEIGHTS, MIX_RATES)),
#        1.0099976730482052, 0.00044)                               # mixture
ROOTS_50_DIGIT = {
    "exp_model": 0.00663710302535403354653649786418,
    "gamma_model": 0.0079744359621720788671551119898,
    "mix_model": 0.000440847571595383665025408820166,
}


@pytest.mark.parametrize("name", sorted(ROOTS_50_DIGIT))
def test_root_against_mpmath(name, request):
    # M(r) - 1 formed without cancellation pins R to a few ulp; g's slope
    # at the root is only about theta lam mu, so 1e-16 of noise in M(r) - 1
    # would move R by 1e-12 to 2.5e-11 relative
    model = request.getfixturevalue(name)
    assert model.c == (1.0099976730482052 if name == "mix_model" else 1.01)
    R = adjustment_coefficient(model).R
    assert R == pytest.approx(ROOTS_50_DIGIT[name], rel=2e-14, abs=0.0)


def test_mgf_domain_below_the_bracket_is_no_root():
    # mgf_sup = 1e-13 lies below the fixed lower end 1e-12 of the bracket
    m = PerturbedModel(Exponential(1e-13), lam=1.0, sigma=1.0, loading=0.1)
    with pytest.raises(NoRootError, match="claim MGF has empty positive domain"):
        adjustment_coefficient(m)


def test_result_diagnostics(exp_model):
    res = adjustment_coefficient(exp_model)
    assert abs(res.residual) < 1e-12
    lo, hi = res.bracket
    assert lo < res.R < hi
    assert res.iterations > 0


def test_root_solves_equation(gamma_model):
    res = adjustment_coefficient(gamma_model)
    # the Lundberg function lam (M(R) - 1) - c R + sigma^2 R^2 / 2
    assert gamma_model.levy_exponent(-res.R) == pytest.approx(0.0, abs=1e-17)


def test_residual_is_the_levy_exponent_at_the_root(exp_model, gamma_model, mix_model):
    sigma_zero = PerturbedModel(Exponential(2.0), lam=1.0, sigma=0.0, loading=0.1)
    for m in (exp_model, gamma_model, mix_model, sigma_zero):
        res = adjustment_coefficient(m)
        assert res.residual == abs(m.levy_exponent(-res.R))


class TestLundbergBound:
    def test_values(self, exp_model):
        R = adjustment_coefficient(exp_model).R
        u = np.array([1.0, 10.0, 50.0])
        np.testing.assert_allclose(lundberg_bound(exp_model, u), np.exp(-R * u), rtol=1e-12)

    def test_explicit_rate_override(self, exp_model):
        assert lundberg_bound(exp_model, 10.0, R=0.01) == pytest.approx(math.exp(-0.1), rel=1e-12)

    @pytest.mark.parametrize("R", [-1.0, np.nan])
    def test_a_given_rate_must_be_a_decay_rate(self, exp_model, R):
        # e^{-R u} would read 7.389 at R = -1, u = 2: no bound on a probability
        with pytest.raises(ValueError, match="R must be finite and positive"):
            lundberg_bound(exp_model, 2.0, R=R)

    def test_bounds_the_exact_curve(self, exp_model):
        from ruinkit import de_vylder_ruin  # exact closed form here

        u = np.linspace(0.0, 100.0, 51)
        assert np.all(de_vylder_ruin(exp_model, u) <= lundberg_bound(exp_model, u) + 1e-12)


def test_renyi_coefficient_values(exp_model, gamma_model, mix_model):
    # 2 q mu1 / mu2
    assert renyi_coefficient(exp_model) == pytest.approx(exp_model.q, rel=1e-12)
    assert renyi_coefficient(gamma_model) == pytest.approx(4.0 * gamma_model.q / 3.0, rel=1e-12)
    assert renyi_coefficient(mix_model) == pytest.approx(4.583974832320889e-4, rel=1e-10)
