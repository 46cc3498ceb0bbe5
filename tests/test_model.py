"""Surplus-process model wiring: derived parameters, moments, transforms.

The central-moment expectations below were generated symbolically from the
cumulant function of the process increment (values frozen; see the
docstring of PerturbedModel.central_moments for the nu4 convention).
"""

import math

import numpy as np
import pytest

from ruinkit import (
    Exponential,
    Gamma,
    MixedExponential,
    PerturbedModel,
    adjustment_coefficient,
    de_vylder_fit,
)
from conftest import MIX_RATES, MIX_WEIGHTS

FIXTURES = ("exp_model", "gamma_model", "mix_model")

# E[e^{rL}] to 40 digits, rounded to double, on the exp_model and
# gamma_model fixtures. Recipe (mpmath 1.3, mp.dps = 40), with c, lam and
# sigma taken as the model's doubles:
#   q = 1 - lam*mu1/c; tau = 2*c/sigma**2
#   M_L(r) = q*r*tau*mu1 / (r*(tau - r)*mu1 + (q - 1)*tau*(M_X(r) - 1))
# with M_X(r) - 1 = r/(1 - r) (Exp(1)) and (1 - r/2)**-2 - 1 (Gamma(2, 2)).
# The mix_model points and exp_model at 1e-5 follow the recipe of
# MAX_LOSS_MGF_NEGATIVE below, which holds for 0 < r < R too.
MAX_LOSS_MGF_ORACLE = {
    ("exp_model", 1e-9): 1.0000001500000226,
    ("exp_model", -1e-9): 0.9999998500000226,
    ("exp_model", 1e-6): 1.0001500226034057,
    ("exp_model", 1e-5): 1.0015022634102382,
    ("exp_model", -1e-6): 0.9998500225965954,
    ("gamma_model", 1e-9): 1.0000001250000157,
    ("gamma_model", -1e-9): 0.9999998750000156,
    ("gamma_model", 1e-6): 1.0001250156769659,
    ("gamma_model", -1e-6): 0.9998750156730346,
    ("mix_model", 1e-6): 1.0022149375635188,
    ("mix_model", 1e-5): 1.0226120059446415,
}

# E[e^{rL}] at r < 0 to 40 digits, rounded to double, on the three fixtures.
# Recipe (mpmath 1.3, mp.dps = 40), with c, lam, sigma and the claim
# parameters taken as the model's doubles, s = -r:
#   M_L(r) = (c - lam*mu) * s / (c*s + lam*(M_X(-s) - 1) + sigma**2 * s**2 / 2)
# with M_X(-s) - 1 = -s/(1 + s) (Exp(1)), (1 + s/2)**-2 - 1 (Gamma(2, 2)) and,
# reading the mixture weights as a law, sum w*(-s)/(b + s) with mu = sum w/b.
MAX_LOSS_MGF_NEGATIVE = {
    ("exp_model", -1e8): 1.999999959600003e-10,
    ("exp_model", -1e3): 1.9959721242652783e-05,
    ("exp_model", -10.0): 0.0016894486254031653,
    ("exp_model", -1e-3): 0.869640762781808,
    ("exp_model", -1e-6): 0.9998500225965954,
    ("gamma_model", -1e8): 1.999999959600003e-10,
    ("gamma_model", -1e3): 1.995972128229331e-05,
    ("gamma_model", -10.0): 0.0016912524664098483,
    ("gamma_model", -1e-3): 0.8889283721388916,
    ("gamma_model", -1e-6): 0.9998750156730346,
    ("mix_model", -1e8): 1.9999953517748422e-10,
    ("mix_model", -1e3): 1.9959675194821955e-05,
    ("mix_model", -10.0): 0.0016829964362824125,
    ("mix_model", -1e-3): 0.3236843633179688,
    ("mix_model", -1e-6): 0.9977950871680612,
}


def test_premium_from_loading(exp_model):
    assert exp_model.c == pytest.approx(1.01, rel=1e-15)
    assert exp_model.q == pytest.approx(1.0 / 101.0, rel=1e-15)
    assert exp_model.tau == pytest.approx(2.02, rel=1e-15)
    assert exp_model.rho == pytest.approx(0.01, rel=1e-14)


def test_derive_params_tuple(mix_model):
    c, q, tau, rho = mix_model.c, mix_model.q, mix_model.tau, mix_model.rho
    assert c == pytest.approx(1.0099976730482052, rel=1e-14)
    assert q == pytest.approx(0.00990099009900991, rel=1e-14)
    assert tau == pytest.approx(2.0199953460964104, rel=1e-14)
    assert rho == pytest.approx(0.009999976960873328, rel=1e-12)


def test_loading_from_premium():
    m = PerturbedModel(Exponential(1.0), lam=1.0, sigma=1.0, premium_rate=1.01)
    assert m.q == pytest.approx(1.0 / 101.0, rel=1e-12)


def test_loading_xor_premium():
    with pytest.raises(ValueError):
        PerturbedModel(Exponential(1.0), lam=1.0, sigma=1.0, loading=0.1, premium_rate=1.1)
    with pytest.raises(ValueError):
        PerturbedModel(Exponential(1.0), lam=1.0, sigma=1.0)


def test_net_profit_required():
    with pytest.raises(ValueError):
        PerturbedModel(Exponential(1.0), lam=1.0, sigma=1.0, loading=0.0)
    with pytest.raises(ValueError):
        PerturbedModel(Exponential(1.0), lam=1.0, sigma=1.0, premium_rate=0.9)
    # an infinite margin would give q = 1 and psi = 0 everywhere
    with pytest.raises(ValueError, match="loading"):
        PerturbedModel(Exponential(1.0), lam=1.0, sigma=1.0, loading=np.inf)
    with pytest.raises(ValueError, match="premium_rate"):
        PerturbedModel(Exponential(1.0), lam=1.0, sigma=1.0, premium_rate=np.inf)
    with pytest.raises(ValueError, match="intensity lam must be finite"):
        PerturbedModel(Exponential(1.0), lam=np.inf, sigma=1.0, loading=0.1)


@pytest.mark.parametrize("sigma", [1e-200, 1e-160, 5e-324, np.float64(1e-160)])
def test_sigma_too_small_for_a_finite_tau_rejected(sigma):
    # sigma^2 underflows to 0 (1e-200, 5e-324) or 2c/sigma^2 overflows (1e-160)
    with pytest.raises(ValueError, match=r"tau = 2c/sigma\^2 is not a finite float; use sigma=0"):
        PerturbedModel(Exponential(1.0), lam=1.0, sigma=sigma, loading=0.01)


@pytest.mark.parametrize("sigma", [1e155, 1e200, 1.7e308, np.float64(1e200)])
def test_sigma_too_large_for_a_finite_square_rejected(sigma):
    # sigma^2 overflows, where tau and the Levy exponent would raise
    # OverflowError from **
    with pytest.raises(ValueError, match=r"is too large: sigma\^2 is not a finite float"):
        PerturbedModel(Exponential(1.0), lam=1.0, sigma=sigma, loading=0.01)


def test_sigma_large_with_a_finite_square_kept():
    m = PerturbedModel(Exponential(1.0), lam=1.0, sigma=1e154, loading=0.01)
    assert m.tau == pytest.approx(2.02e-308, rel=1e-15)


def test_tau_undefined_without_diffusion():
    m = PerturbedModel(Exponential(1.0), lam=1.0, sigma=0.0, loading=0.01)
    with pytest.raises(ValueError, match=r"tau undefined for sigma = 0 \(no diffusion\)"):
        m.tau


def test_sigma_small_with_a_finite_tau_kept():
    m = PerturbedModel(Exponential(1.0), lam=1.0, sigma=1e-150, loading=0.01)
    assert m.tau == pytest.approx(2.02e300, rel=1e-15)
    assert PerturbedModel(Exponential(1.0), lam=1.0, sigma=0.0, loading=0.01).sigma == 0.0


def test_sigma_nonnegative():
    with pytest.raises(ValueError):
        PerturbedModel(Exponential(1.0), lam=1.0, sigma=-0.5, loading=0.1)
    for sigma in (np.nan, np.inf):
        with pytest.raises(ValueError, match="sigma"):
            PerturbedModel(Exponential(1.0), lam=1.0, sigma=sigma, loading=0.1)


def test_central_moments_exp():
    m = PerturbedModel(Exponential(1.0), lam=1.0, sigma=1.0, premium_rate=1.01)
    nu = m.central_moments(5.0, 3.0)
    assert nu.nu1 == pytest.approx(5.03, rel=1e-14)
    assert nu.nu2 == pytest.approx(9.0, rel=1e-14)
    assert nu.nu3 == pytest.approx(-18.0, rel=1e-14)
    assert nu.nu4 == pytest.approx(315.0, rel=1e-14)
    assert nu.nu5 == pytest.approx(-1980.0, rel=1e-14)


def test_central_moments_gamma():
    m = PerturbedModel(Gamma(2.0, 2.0), lam=1.0, sigma=0.5, premium_rate=1.05)
    nu = m.central_moments(3.0, 2.0)
    assert nu.nu1 == pytest.approx(3.1, rel=1e-14)
    assert nu.nu2 == pytest.approx(3.5, rel=1e-14)
    assert nu.nu3 == pytest.approx(-6.0, rel=1e-14)
    assert nu.nu4 == pytest.approx(51.75, rel=1e-14)
    assert nu.nu5 == pytest.approx(-255.0, rel=1e-14)


@pytest.mark.parametrize("claims", [
    Gamma(2.0, 2.0),
    MixedExponential(MIX_WEIGHTS, MIX_RATES),
    Gamma(0.5, 0.5),
], ids=["gamma2", "mixture", "gamma0.5"])
def test_de_vylder_surrogate_has_the_four_central_moments(claims):
    # the De Vylder fit is defined by matching nu1..nu4 of the surplus; its
    # exponential-claim surrogate must reproduce them, and only them: nu5
    # (the fifth claim moment) differs by 0.4-1% on these models
    m = PerturbedModel(claims, lam=1.0, sigma=1.0, loading=0.01)
    f = de_vylder_fit(m)
    surrogate = PerturbedModel(
        Exponential(f.claim_rate), f.lam, math.sqrt(f.sigma_sq), premium_rate=f.premium_rate
    )
    want, got = m.central_moments(2.0, 3.0), surrogate.central_moments(2.0, 3.0)
    np.testing.assert_allclose(got[:4], want[:4], rtol=1e-14, atol=0.0)
    assert 3e-3 < abs(got.nu5 / want.nu5 - 1.0) < 2e-2


def test_central_moments_validation(exp_model):
    with pytest.raises(ValueError):
        exp_model.central_moments(1.0, 0.0)
    with pytest.raises(ValueError):
        exp_model.central_moments(-1.0, 1.0)
    # NaN fails every comparison, so `t <= 0` and `u < 0` let it through
    for t in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="t must be finite and positive"):
            exp_model.central_moments(1.0, t)
    for u in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="u must be finite and nonnegative"):
            exp_model.central_moments(u, 1.0)


def test_levy_exponent_spot(exp_model):
    # c*s - lam*(1 - laplace(s)) + sigma^2 s^2 / 2 at s=1: 1.01 - 0.5 + 0.5
    assert exp_model.levy_exponent(1.0) == pytest.approx(1.01, rel=1e-14)


def test_levy_exponent_drift_derivative(exp_model):
    h = 1e-7
    d = (exp_model.levy_exponent(h) - exp_model.levy_exponent(-h)) / (2 * h)
    assert d == pytest.approx(exp_model.c - exp_model.lam * 1.0, abs=1e-7)


@pytest.mark.parametrize("s", [1e-9, -1e-9])
@pytest.mark.parametrize("fixture", FIXTURES)
def test_levy_exponent_keeps_its_digits_near_zero(fixture, s, request):
    # 1 - M(-s) would cancel to about 1e-5 relative at s = 1e-9
    m = request.getfixturevalue(fixture)
    mu1, mu2, mu3 = (m.claims.raw_moment(k) for k in (1, 2, 3))
    series = (m.c - m.lam * mu1) * s + (m.lam * mu2 + m.sigma**2) * s * s / 2.0 - m.lam * mu3 * s**3 / 6.0
    assert m.levy_exponent(s) == pytest.approx(series, rel=1e-12, abs=0.0)


def test_levy_exponent_outside_the_mgf_domain_raises(exp_model):
    for s in (-1.0, -1.5, np.nan):
        with pytest.raises(ValueError, match="levy_exponent argument"):
            exp_model.levy_exponent(s)


class TestRuinTransform:
    def test_small_s_limit_is_mean_max_loss(self, exp_model):
        # transform at the origin integrates the ruin curve: value E[L],
        # slope -E[L^2]/2. Checked against the known 150 / 45200 pair.
        assert exp_model.pk_transform(1e-9) == pytest.approx(150.0, rel=1e-6)
        taylor = 150.0 - 1e-8 * 45200.0 / 2.0
        # rounding through the equilibrium transform (a 1 - eps quantity)
        # caps the relative accuracy near 1e-8 at this argument
        assert exp_model.pk_transform(1e-8) == pytest.approx(taylor, rel=5e-8)

    def test_large_s_limit(self, exp_model, gamma_model, mix_model):
        s = 1e6
        for m in (exp_model, gamma_model, mix_model):
            assert s * m.pk_transform(s) == pytest.approx(1.0, abs=1e-3)

    def test_sigma_zero_large_s_limit(self):
        m = PerturbedModel(Exponential(1.0), lam=1.0, sigma=0.0, loading=0.1)
        s = 1e6
        # no diffusion: the transform limit is the classical 1 - q
        assert s * m.pk_transform(s) == pytest.approx(1.0 - m.q, abs=1e-3)

    def test_matches_two_exponential_transform(self, exp_model):
        # for exponential claims the moment fit is an identity, so the ruin
        # transform must equal amp1/(s+rate1) + amp2/(s+rate2) pointwise
        f = de_vylder_fit(exp_model)
        for s in (0.1, 1.0, 10.0):
            expected = f.amp1 / (s + f.rate1) + f.amp2 / (s + f.rate2)
            assert exp_model.pk_transform(s) == pytest.approx(expected, rel=1e-10)

    def test_complex_argument(self, exp_model):
        z = exp_model.pk_transform(0.5 + 0.5j)
        assert isinstance(z, complex)
        # conjugate symmetry of a real-valued original
        zc = exp_model.pk_transform(0.5 - 0.5j)
        assert zc == pytest.approx(z.conjugate(), rel=1e-12)


class TestMaxLossMgf:
    def test_at_zero(self, exp_model):
        assert exp_model.mgf_max_loss(0.0) == 1.0

    def test_mean_by_differentiation(self, exp_model):
        h = 1e-6
        d = (exp_model.mgf_max_loss(h) - exp_model.mgf_max_loss(-h)) / (2 * h)
        assert d == pytest.approx(exp_model.mean_max_loss(), rel=1e-4)

    def test_second_moment_by_differentiation(self, exp_model):
        h = 1e-5
        d2 = (exp_model.mgf_max_loss(h) - 2.0 + exp_model.mgf_max_loss(-h)) / h**2
        assert d2 == pytest.approx(45200.0, rel=1e-4)

    def test_spot_value(self, exp_model):
        assert exp_model.mgf_max_loss(0.005) == pytest.approx(4.040609137026592, rel=1e-10)

    def test_diverges_past_adjustment_coefficient(self, exp_model):
        with pytest.raises(ValueError):
            exp_model.mgf_max_loss(0.007)

    def test_negative_argument_fine(self, exp_model):
        assert 0.0 < exp_model.mgf_max_loss(-0.5) < 1.0

    @pytest.mark.parametrize("fixture, r", sorted(MAX_LOSS_MGF_ORACLE))
    def test_against_mpmath_near_zero(self, fixture, r, request):
        m = request.getfixturevalue(fixture)
        assert m.mgf_max_loss(r) == pytest.approx(MAX_LOSS_MGF_ORACLE[fixture, r], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("fixture, r", sorted(MAX_LOSS_MGF_NEGATIVE))
    def test_against_mpmath_for_negative_argument(self, fixture, r, request):
        # 1 + r*Psi*(-r) cancels at both ends of r < 0 (to 1e-7 at r = -1e8,
        # to 8e-9 on the mixture at r = -1e-6); the quotient does not
        m = request.getfixturevalue(fixture)
        assert m.mgf_max_loss(r) == pytest.approx(MAX_LOSS_MGF_NEGATIVE[fixture, r], rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("r", [1e-9, 1e-6])
    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_above_one_for_positive_argument(self, fixture, r, request):
        assert request.getfixturevalue(fixture).mgf_max_loss(r) > 1.0

    @pytest.mark.parametrize("loading", [0.1, 1.0])
    def test_sigma_zero_exponential_closed_form(self, loading):
        # no diffusion, Exp(b) claims: L is 0 with probability q, else
        # Exp(q b), so M_L(r) = q + (1 - q) q b / (q b - r) and R = q b
        b = 2.0
        m = PerturbedModel(Exponential(b), lam=1.0, sigma=0.0, loading=loading)
        q = m.q
        for r in (-1.0, -0.1, 1e-9, 0.1 * q * b, 0.5 * q * b, 0.9 * q * b, 0.99 * q * b):
            expected = q + (1.0 - q) * q * b / (q * b - r)
            assert m.mgf_max_loss(r) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("r", [1.0, 1.5])
    def test_raises_at_and_past_mgf_sup(self, exp_model, r):
        with pytest.raises(ValueError, match="diverges"):
            exp_model.mgf_max_loss(r)

    @pytest.mark.parametrize("model", [
        "exp_model",
        "gamma_model",
        "mix_model",
        # the old 1 + r*Psi*(-r) read about 1e12 at R on these two, and
        # divided by zero on the third
        PerturbedModel(Exponential(2.5), lam=1.0, sigma=0.1, loading=0.01),
        PerturbedModel(Gamma(0.5, 0.5), lam=1.0, sigma=1.0, loading=0.01),
        PerturbedModel(MixedExponential((0.5, 0.5), (1.0, 3.0)), lam=1.0, sigma=0.1, loading=0.05),
    ], ids=["exp_model", "gamma_model", "mix_model", "exp2.5", "gamma0.5", "mix2"])
    def test_raises_at_the_adjustment_coefficient(self, model, request):
        m = request.getfixturevalue(model) if isinstance(model, str) else model
        R = adjustment_coefficient(m).R
        for r in (R, math.nextafter(R, math.inf), 1.01 * R):
            with pytest.raises(ValueError, match="diverges"):
                m.mgf_max_loss(r)


def test_mean_max_loss_values(exp_model, gamma_model, mix_model):
    # (sigma^2 + lam*mu2) / (2 c q)
    assert exp_model.mean_max_loss() == pytest.approx(150.0, rel=1e-12)
    assert gamma_model.mean_max_loss() == pytest.approx(125.0, rel=1e-12)
    assert mix_model.mean_max_loss() == pytest.approx(2209.913827897716, rel=1e-10)


def test_model_is_frozen(exp_model):
    with pytest.raises(Exception):
        exp_model.lam = 2.0
