"""Claim distribution families: moments, transforms, ladder-height cdfs."""

import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad

import ruinkit
from ruinkit import Exponential, Gamma, MixedExponential, PerturbedModel, claims, decompose_ruin
from ruinkit.cli import main

import _reference_ladder as ref
from conftest import MIX_RATES, MIX_WEIGHTS, run_fresh


class TestExponential:
    def test_raw_moments(self):
        d = Exponential(1.0)
        assert [d.raw_moment(k) for k in range(1, 6)] == [1.0, 2.0, 6.0, 24.0, 120.0]
        d2 = Exponential(2.0)
        assert [d2.raw_moment(k) for k in range(1, 6)] == [0.5, 0.5, 0.75, 1.5, 3.75]

    def test_mgf_below_divergence(self):
        d = Exponential(2.0)
        assert d.mgf(1.0) == pytest.approx(2.0)  # 2/(2-1)
        assert d.mgf(0.0) == 1.0
        assert d.mgf(-3.0) == pytest.approx(0.4)

    def test_mgf_at_or_past_rate_rejected(self):
        d = Exponential(2.0)
        with pytest.raises(ValueError):
            d.mgf(2.0)
        with pytest.raises(ValueError):
            d.mgf(2.5)

    def test_laplace(self):
        d = Exponential(1.5)
        assert d.laplace(0.5) == pytest.approx(0.75)

    def test_cdf_tail_complementary(self):
        d = Exponential(0.7)
        x = np.array([0.0, 0.3, 1.0, 4.0])
        np.testing.assert_allclose(d.cdf(x) + d.tail(x), 1.0, rtol=1e-15)

    def test_equilibrium_density_is_tail_over_mean(self):
        d = Exponential(2.0)
        # equilibrium of Exp is Exp again
        assert d.equilibrium_density(0.5) == pytest.approx(2.0 * math.exp(-1.0))

    def test_rate_must_be_finite_and_positive(self):
        for rate in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="rate must be finite and positive"):
                Exponential(rate)


class TestExponentialIsTheOneComponentMixture:
    """Exponential is MixedExponential((1.0,), (rate,)). The mixture's sums
    over one component of weight 1.0 give the exponential closed forms
    bitwise, since 1.0 * x and 0 + x are exact."""

    X = np.array([0.0, 1e-300, 1e-9, 0.3, 1.0, 7.5, 40.0, 300.0, 700.0])
    S = np.array([-3.0 + 0.0j, 0.2 + 0.0j, 1.5 + 2.0j, -0.5 - 40.0j, 1e-9 + 1e-9j, -200.0 + 1e3j])

    @pytest.mark.parametrize("b", [0.5, 1.0, 3.0])
    def test_closed_forms_are_bitwise_the_exponential_ones(self, b):
        d, x, s = Exponential(b), self.X, self.S
        assert np.array_equal(d.tail(x), np.exp(-b * x))
        assert np.array_equal(d.cdf(x), -np.expm1(-b * x))
        assert np.array_equal(d.integrated_tail(x), -np.expm1(-b * x) / b)
        assert np.array_equal(d.upper_integrated_tail(x), np.exp(-b * x) / b)
        assert np.array_equal(d._mgf_unchecked(s), b / (b - s))
        for r in (-2.0 * b, -1e-9, 1e-12 * b, 0.25 * b, 0.999 * b):
            assert d._mgf_minus_one(r) == r / (b - r)
        assert [d.raw_moment(k) for k in range(1, 6)] == [math.factorial(k) / b**k for k in range(1, 6)]
        assert d.mgf_sup == b

    def test_equality_hashing_and_rate(self):
        assert Exponential(2.0) == Exponential(2.0)
        assert hash(Exponential(2.0)) == hash(Exponential(2.0))
        assert Exponential(2.0) != Exponential(3.0)
        assert len({Exponential(2.0), Exponential(2.0), Exponential(3.0)}) == 2
        # a mixture built with one component is equal in law, not the same family
        assert Exponential(2.0) != MixedExponential((1.0,), (2.0,))
        assert isinstance(Exponential(2.0), MixedExponential)
        assert Exponential(2.0).rate == 2.0
        assert repr(Exponential(2.0)) == "Exponential(rate=2.0)"
        with pytest.raises(AttributeError):
            Exponential(2.0).rate = 3.0
        with pytest.raises(AttributeError):
            Exponential(2.0).rates = (3.0,)


class TestGamma:
    def test_raw_moments(self):
        d = Gamma(2.0, 2.0)
        assert [d.raw_moment(k) for k in range(1, 6)] == [1.0, 1.5, 3.0, 7.5, 22.5]

    def test_shape_one_is_exponential(self):
        g = Gamma(1.0, 0.8)
        e = Exponential(0.8)
        x = np.array([0.1, 0.5, 2.0, 7.0])
        np.testing.assert_allclose(g.cdf(x), e.cdf(x), atol=1e-12)
        np.testing.assert_allclose(g.h3_cdf(x, 2.02), e.h3_cdf(x, 2.02), atol=1e-12)
        for k in range(1, 6):
            assert g.raw_moment(k) == pytest.approx(e.raw_moment(k), rel=1e-12)
        assert g.mgf(0.5) == pytest.approx(e.mgf(0.5), rel=1e-12)

    def test_mgf_sup_is_rate(self):
        assert Gamma(2.5, 1.3).mgf_sup == 1.3

    def test_parameters_must_be_finite_and_positive(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="shape must be finite and positive"):
                Gamma(bad, 1.0)
            with pytest.raises(ValueError, match="rate must be finite and positive"):
                Gamma(2.0, bad)

    def test_integrated_tail_matches_quadrature(self):
        for shape in (0.5, 2.5):
            d = Gamma(shape, 1.3)
            for x in (0.01, 1.0, 7.0):
                num, _ = quad(d.tail, 0.0, x, epsabs=1e-14, epsrel=1e-13, limit=200)
                assert d.integrated_tail(x) == pytest.approx(num, rel=1e-12)

    def test_noninteger_shape_uses_quadrature(self):
        d = Gamma(2.5, 2.0)
        x = np.array([0.2, 1.0, 3.0])
        h = d.h3_cdf(x, 2.02)
        assert np.all(np.diff(h) > 0)
        assert np.all((h >= 0) & (h <= 1))
        # the density must integrate to the cdf
        dens_int, _ = quad(lambda y: d.h3_density(y, 2.02), 0.0, 1.0, epsabs=1e-11)
        assert dens_int == pytest.approx(d.h3_cdf(1.0, 2.02), abs=1e-9)


class TestMixedExponential:
    def test_moments(self):
        d = MixedExponential(MIX_WEIGHTS, MIX_RATES)
        assert d.raw_moment(1) == pytest.approx(0.9999976960873319, rel=1e-12)
        assert d.raw_moment(2) == pytest.approx(43.198174728985094, rel=1e-12)
        assert d.raw_moment(3) == pytest.approx(7717.234564371244, rel=1e-12)
        assert d.raw_moment(4) == pytest.approx(2086093.3814550573, rel=1e-12)
        # variance of the reference mixture
        var = d.raw_moment(2) - d.raw_moment(1) ** 2
        assert var == pytest.approx(42.198, abs=5e-4)

    def test_mgf_sup_is_smallest_rate(self):
        d = MixedExponential(MIX_WEIGHTS, MIX_RATES)
        assert d.mgf_sup == pytest.approx(0.014631)

    def test_tail_is_weighted_exponentials(self):
        d = MixedExponential((0.25, 0.75), (1.0, 3.0))
        x = 0.8
        expected = 0.25 * math.exp(-x) + 0.75 * math.exp(-3 * x)
        assert d.tail(x) == pytest.approx(expected, rel=1e-14)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            MixedExponential((0.5, 0.4), (1.0, 2.0))

    def test_lengths_must_match(self):
        with pytest.raises(ValueError):
            MixedExponential((0.5, 0.5), (1.0, 2.0, 3.0))

    def test_rates_must_be_positive(self):
        with pytest.raises(ValueError):
            MixedExponential((0.5, 0.5), (1.0, -2.0))
        with pytest.raises(ValueError, match="rate must be finite and positive"):
            MixedExponential((0.5, 0.5), (1.0, math.inf))


@pytest.mark.parametrize(
    "d", [Exponential(2.0), Gamma(2.5, 2.0), MixedExponential(MIX_WEIGHTS, MIX_RATES)], ids=repr
)
def test_mgf_minus_one_keeps_its_digits_near_zero(d):
    # mgf(r) - 1 would leave only about 1e-16 / (r mu) of relative accuracy
    # here; the moment series is exact to far below 1e-14 at these r
    mu = [d.raw_moment(k) for k in (1, 2, 3)]
    for r in (1e-12 * d.mgf_sup, 1e-6 * d.mgf_sup):
        series = r * mu[0] + r**2 * mu[1] / 2 + r**3 * mu[2] / 6
        assert d._mgf_minus_one(r) == pytest.approx(series, rel=1e-14, abs=0.0)
    # away from 0 it is M(r) - 1, up to the 1e-16 that subtraction rounds to
    r = 0.5 * d.mgf_sup
    assert d._mgf_minus_one(r) == pytest.approx(d.mgf(r) - 1.0, rel=1e-14, abs=1e-15)


@pytest.mark.parametrize(
    "d", [Exponential(2.0), Gamma(2.5, 2.0), MixedExponential(MIX_WEIGHTS, MIX_RATES)], ids=repr
)
def test_moment_orders_outside_one_to_five_rejected(d):
    for k in (0, 6):
        with pytest.raises(ValueError, match=f"moment order must be an integer in 1..5, got {k}"):
            d.raw_moment(k)


def test_tail_has_no_default_from_the_cdf():
    # 1 - cdf(x) rounds to 0 where the ladder tail, the bounds and the cause
    # split still need relative accuracy, so each family must give its own
    assert "tail" in ruinkit.ClaimDistribution.__abstractmethods__


class TestEquilibriumLaplace:
    def test_at_zero_exactly_one(self):
        for d in (Exponential(1.0), Gamma(2.0, 2.0), MixedExponential(MIX_WEIGHTS, MIX_RATES)):
            assert d.equilibrium_laplace(0.0) == 1.0

    def test_small_s_series_branch(self):
        # near 0 the value must follow 1 - s*mu2/(2*mu1); the naive
        # (1 - laplace(s))/(mu1*s) form would lose all digits here
        d = Exponential(1.0)
        mu1, mu2 = d.raw_moment(1), d.raw_moment(2)
        for s in (1e-9, 1e-7):
            assert d.equilibrium_laplace(s) == pytest.approx(1.0 - s * mu2 / (2 * mu1), abs=1e-9)

    def test_matches_direct_formula_at_moderate_s(self):
        d = Gamma(2.0, 2.0)
        s = 0.5
        direct = (1.0 - d.laplace(s)) / (d.raw_moment(1) * s)
        assert d.equilibrium_laplace(s) == pytest.approx(direct, rel=1e-12)


class TestLadderCdf:
    """h3_cdf is the claim-caused record-height distribution given tau."""

    TAU = 2.02

    def _quad_cdf(self, d, x, tau):
        # the defining integral: tau * int_0^x exp(-tau(x-y)) B(y) dy with
        # B the equilibrium cdf, plus boundary handling via the density form
        def dens(y):
            val, _ = quad(lambda z: tau * math.exp(-tau * (y - z)) * d.equilibrium_density(z),
                          0.0, y, epsabs=1e-12, limit=200)
            return val
        val, _ = quad(dens, 0.0, x, epsabs=1e-11, limit=200)
        return val

    @pytest.mark.parametrize("dist", [
        Exponential(1.0),
        Gamma(2.0, 2.0),
        MixedExponential(MIX_WEIGHTS, MIX_RATES),
    ], ids=["exp", "gamma", "mixture"])
    def test_closed_form_matches_quadrature(self, dist):
        for x in (0.3, 1.0, 2.5):
            assert dist.h3_cdf(x, self.TAU) == pytest.approx(
                self._quad_cdf(dist, x, self.TAU), abs=1e-8
            )

    def test_density_integrates_to_cdf(self):
        d = Exponential(1.0)
        val, _ = quad(lambda y: d.h3_density(y, self.TAU), 0.0, 2.0, epsabs=1e-12)
        assert val == pytest.approx(d.h3_cdf(2.0, self.TAU), abs=1e-10)

    def test_tends_to_one(self):
        for d in (Exponential(1.0), Gamma(2.0, 2.0)):
            assert d.h3_cdf(200.0, self.TAU) == pytest.approx(1.0, abs=1e-8)

    def test_rate_equal_tau_singular_branch(self):
        # tau == claim rate collapses the two-exponential difference to the
        # x*exp(-x) form; the implementation must not 0/0 there
        d = Exponential(1.0)
        near = d.h3_cdf(np.array([0.5, 1.0, 2.0]), 1.0 + 1e-6)
        at = d.h3_cdf(np.array([0.5, 1.0, 2.0]), 1.0 + 1e-12)
        assert np.all(np.isfinite(at))
        np.testing.assert_allclose(at, near, atol=1e-5)

    def test_zero_is_zero(self):
        assert Exponential(1.0).h3_cdf(0.0, self.TAU) == 0.0


def _oracle_family(name):
    if name == "mix":
        return MixedExponential(MIX_WEIGHTS, MIX_RATES)
    if name.startswith("exp"):
        return Exponential(float(name[3:]))
    shape = float(name[5:])
    return Gamma(shape, shape)


@pytest.mark.parametrize("tau", [880.0, 400.0])
def test_exponential_ladder_density_at_large_tau(tau):
    # sigma = 0.05 and 0.1 put tau near these values. The scan's lags must be
    # differences of positions inside a block: lags read off one global
    # tau * x lose digits here (2e-11 relative at tau = 880)
    x = np.linspace(0.01, 700.0, 4001)
    closed = tau * np.exp(-x) * -np.expm1(-(tau - 1.0) * x) / (tau - 1.0)
    np.testing.assert_allclose(Exponential(1.0).h3_density(x, tau), closed, rtol=1e-13, atol=0.0)


class TestLadderGenericPath:
    """One panel recurrence on tail() serves every family."""

    @pytest.mark.parametrize("name", ref.ORACLE_FAMILIES)
    def test_matches_mpmath_oracle(self, name):
        d = _oracle_family(name)
        for tau in ref.ORACLE_TAUS:
            x = np.array(ref.ORACLE_XS)
            cdf = np.array([ref.LADDER_ORACLE[name, tau, xi][0] for xi in ref.ORACLE_XS])
            dens = np.array([ref.LADDER_ORACLE[name, tau, xi][1] for xi in ref.ORACLE_XS])
            np.testing.assert_allclose(d.h3_cdf(x, tau), cdf, rtol=5e-12, atol=0.0, err_msg=f"{name} tau={tau}")
            np.testing.assert_allclose(d.h3_density(x, tau), dens, rtol=1e-12, atol=0.0, err_msg=f"{name} tau={tau}")

    # the lattice grids of the benchmark's strict-bounds and cause-split jobs
    # (tau = 2.02); the gamma closed form subtracts terms of size up to
    # rate / (tau - rate)^2 = 5000, which leaves it an absolute error of
    # about 6e-13, so the cdf comparison carries atol 1e-12
    @pytest.mark.parametrize("case", [
        ("exp", 0.005, 42001),
        ("mixture", 0.005, 42001),
        ("gamma", 0.01, 12001),
        ("exp", 0.0025, 40001),
        ("mixture", 0.0025, 40001),
    ], ids=["exp-w0.005", "mixture-w0.005", "gamma-w0.01", "exp-h0.0025", "mixture-h0.0025"])
    def test_matches_reference_closed_forms(self, case):
        family, width, n = case
        tau = 2.02
        x = np.arange(n) * width
        if family == "exp":
            d, (cdf, dens) = Exponential(1.0), ref.exponential_ladder(x, 1.0, tau)
        elif family == "mixture":
            d, (cdf, dens) = MixedExponential(MIX_WEIGHTS, MIX_RATES), ref.mixture_ladder(x, MIX_WEIGHTS, MIX_RATES, tau)
        else:
            d, (cdf, dens) = Gamma(2.0, 2.0), ref.gamma_integer_ladder(x, 2.0, 2.0, tau)
        np.testing.assert_allclose(d.h3_cdf(x, tau), cdf, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(d.h3_density(x, tau), dens, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("dist", [
        Exponential(1.0),
        Gamma(0.5, 0.5),
        MixedExponential(MIX_WEIGHTS, MIX_RATES),
    ], ids=["exp", "gamma0.5", "mixture"])
    def test_any_order_and_shape_equals_scalar_calls(self, dist):
        tau = 2.02
        x = np.array([[3.0, 0.3, 0.0], [0.3, -1.0, 12.5], [1e-9, 3.0, 0.05]])
        cdf = dist.h3_cdf(x, tau)
        dens = dist.h3_density(x, tau)
        assert cdf.shape == dens.shape == x.shape
        for idx, xi in np.ndenumerate(x):
            assert cdf[idx] == pytest.approx(dist.h3_cdf(float(xi), tau), rel=1e-13, abs=1e-300)
            assert dens[idx] == pytest.approx(dist.h3_density(float(xi), tau), rel=1e-13, abs=1e-300)
        assert cdf[1, 1] == dens[1, 1] == 0.0  # nothing below 0
        assert cdf[0, 2] == dens[0, 2] == 0.0

    @pytest.mark.parametrize("dist", [Exponential(1.0), Gamma(0.5, 0.5)], ids=["exp", "gamma0.5"])
    def test_zero_dim_array_and_scalar_inputs(self, dist):
        tau = 2.02
        for method in (dist.h3_cdf, dist.h3_density):
            scalar = method(1.0, tau)
            zero_dim = method(np.array(1.0), tau)
            assert type(scalar) is float
            assert isinstance(zero_dim, np.ndarray) and zero_dim.shape == ()
            assert zero_dim == scalar == method(np.array([1.0]), tau)[0]

    def test_sparse_points_match_a_dense_grid(self):
        # Gamma(50, 50) concentrates within a standard deviation of 0.14
        # around its mean 1, so panels as wide as the mean would miss it
        d = Gamma(50.0, 50.0)
        dense = np.arange(3001) * 0.001
        sparse = np.array([0.8, 1.0, 1.2, 3.0])
        idx = [800, 1000, 1200, 3000]
        for tau in (0.5, 7.0):
            np.testing.assert_allclose(d.h3_cdf(sparse, tau), d.h3_cdf(dense, tau)[idx], rtol=1e-13)
            np.testing.assert_allclose(d.h3_density(sparse, tau), d.h3_density(dense, tau)[idx], rtol=1e-13)

    @pytest.mark.parametrize("name", ref.ORACLE_FAMILIES)
    def test_tail_matches_mpmath_oracle_down_to_1e300(self, name):
        d = _oracle_family(name)
        keys = [key for key in ref.LADDER_TAIL_ORACLE if key[0] == name]
        assert min(ref.LADDER_TAIL_ORACLE[key] for key in keys) < 1e-299
        for _, tau, x in keys:
            want = ref.LADDER_TAIL_ORACLE[name, tau, x]
            got = d._ladder(np.array([x]), tau)[0][0]
            # the gamma upper integrated tail cancels a factor rate * x
            # (claims.py); the exponential forms do not cancel
            rtol = 1.5e-13 * max(1.0, d.rate * x) if isinstance(d, Gamma) else 1e-13
            assert got == pytest.approx(want, rel=rtol, abs=0.0), f"{name} tau={tau} x={x}"
            assert 1.0 - d.h3_cdf(x, tau) == pytest.approx(want, rel=1e-10, abs=1e-15)

    def test_far_points_stay_finite_and_cheap(self):
        d = Gamma(2.5, 2.5)
        x = np.array([1.0, 1e6, 1e300])
        np.testing.assert_array_equal(d.h3_density(x, 7.0)[1:], 0.0)
        np.testing.assert_allclose(d.h3_cdf(x, 7.0)[1:], 1.0, rtol=1e-15)
        mix = MixedExponential(MIX_WEIGHTS, MIX_RATES)
        # the slow component decays as e^{-0.014631 x}
        far = mix.h3_density(3000.0, 0.5)
        assert far == pytest.approx(mix.h3_density(np.array([1.0, 3000.0]), 0.5)[1], rel=1e-13)
        _, dens = ref.mixture_ladder(3000.0, MIX_WEIGHTS, MIX_RATES, 0.5)
        assert far == pytest.approx(float(dens), rel=1e-11)

    def test_non_finite_input_rejected(self):
        d = Gamma(2.5, 2.5)
        for method in (d.h3_cdf, d.h3_density):
            for x in ([math.nan, 1.0], [1.0, math.inf], -math.inf):
                with pytest.raises(ValueError, match="x must be finite"):
                    method(x, 2.0)
            for tau in (math.nan, math.inf, 0.0, -1.0):
                with pytest.raises(ValueError, match="tau must be finite and positive"):
                    method(1.0, tau)

    @pytest.mark.parametrize("module", ["scipy", "scipy.special", "scipy.integrate", "scipy.optimize"])
    def test_cli_import_does_not_load(self, module):
        # none is needed to import the CLI, and each costs every call a
        # share of its start-up time
        code = f"import sys, ruinkit.cli; print({module!r} in sys.modules)"
        assert run_fresh(code).strip() == "False"


LADDER_FAMILIES = {
    "exp": Exponential(1.0),
    "mix": MixedExponential(MIX_WEIGHTS, MIX_RATES),
    **{f"gamma{a:g}": Gamma(a, a) for a in (0.2, 0.5, 1.5, 2.0, 2.5, 8.0)},
}
LADDER_GRIDS = {
    **{f"step{h:g}": np.arange(1, 4001) * h for h in (0.0025, 0.005, 0.01, 0.05)},
    "geometric": np.geomspace(1e-6, 200.0, 2000),
}


def _tail_calls(monkeypatch, d, x, tau):
    # (nodes, panels) of each tail() call that one ladder evaluation makes
    seen = []
    tail = type(d).tail
    with monkeypatch.context() as mp:
        mp.setattr(type(d), "tail", lambda self, t: seen.append(t.shape) or tail(self, t))
        d._ladder(x, tau)
    return [(nodes, panels) for panels, nodes in seen]


class TestPanelRule:
    """Each ladder panel takes the fewest Gauss-Legendre nodes its relative
    width allows; the 8-node rule on every panel is the oracle."""

    @pytest.mark.parametrize("name", LADDER_FAMILIES)
    def test_matches_the_8_node_rule(self, name):
        d = LADDER_FAMILIES[name]
        for theta, sigma in itertools.product((0.01, 1.0), (0.3, 1.0, 3.0)):
            tau = PerturbedModel(d, lam=1.0, sigma=sigma, loading=theta).tau
            for grid, x in LADDER_GRIDS.items():
                for got, want, what in zip(d._ladder(x, tau), ref.gl8_ladder(d, x, tau), ("tail", "density")):
                    kept = want >= 1e-300
                    np.testing.assert_allclose(
                        got[kept], want[kept], rtol=1e-13, atol=0.0,
                        err_msg=f"{what} theta={theta} sigma={sigma} {grid}",
                    )

    def test_limits_meet_the_remainder_bound(self):
        # c_n (2n)! (rho/2)^{2n} <= 2^-56 at each limit, and not 0.1% above it
        for n, limit in zip(claims._GL_ORDERS, claims._GL_LIMITS):
            c = 2.0 ** (2 * n + 1) * math.factorial(n) ** 4 / ((2 * n + 1) * math.factorial(2 * n) ** 3)
            bound = [c * math.factorial(2 * n) * (rho / 2.0) ** (2 * n) for rho in (limit, 1.001 * limit)]
            assert bound[0] <= 2.0**-56 < bound[1]

    def test_panels_from_zero_and_grading_panels_take_8_nodes(self, monkeypatch):
        # width = min(1/tau, mean, sd) = 1: the panel from 0, the 50 dyadic
        # grading panels up to 1 and the four unit panels up to 5
        assert _tail_calls(monkeypatch, Exponential(1.0), np.array([5.0]), 0.5) == [(8, 55)]

    @pytest.mark.parametrize("tier", range(3))
    def test_each_limit_takes_its_order(self, monkeypatch, tier):
        # a last panel [5, 5 + step] of relative width step / width = step
        limit = claims._GL_LIMITS[tier]
        for step, nodes in ((limit * (1.0 - 1e-9), claims._GL_ORDERS[tier]),
                            (limit * (1.0 + 1e-9), claims._GL_ORDERS[tier + 1])):
            calls = _tail_calls(monkeypatch, Exponential(1.0), np.array([5.0, 5.0 + step]), 0.5)
            assert calls == ([(8, 56)] if nodes == 8 else [(8, 55), (nodes, 1)]), step

    def test_cause_split_grid_takes_fewer_tail_evaluations(self, monkeypatch):
        # decompose --umax 5 on Gamma(1.5, 1.5) claims: 16408 evaluations at
        # 8 nodes a panel; 3 nodes on the 0.0025-wide panels past width. Each
        # panel at its own order would take 6663: the three single narrow
        # panels beside grading knots take the order of the panels after them
        sizes = []
        tail = Gamma.tail
        monkeypatch.setattr(Gamma, "tail", lambda self, t: sizes.append(t.size) or tail(self, t))
        decompose_ruin(PerturbedModel(Gamma(1.5, 1.5), lam=1.0, sigma=1.0, loading=0.01), 5.0)
        assert sum(sizes) <= 6668

    def test_irregular_grid_takes_one_call_a_rule(self, monkeypatch):
        # on sorted random points the order a panel needs flips from panel to
        # panel; each panel takes the largest order at or after it, so the
        # panels still run as at most four slices and the values stay exact
        d = Gamma(1.5, 1.5)
        x = np.sort(np.random.default_rng(5).uniform(0.0, 100.0, 3000))
        assert len(_tail_calls(monkeypatch, d, x, 2.02)) <= len(claims._GL_ORDERS)
        for got, want in zip(d._ladder(x, 2.02), ref.gl8_ladder(d, x, 2.02)):
            kept = want >= 1e-300
            np.testing.assert_allclose(got[kept], want[kept], rtol=1e-13, atol=0.0)


GAMMA_BOUNDS = ["bounds", "--model", "lambda=1,theta=0.1,sigma=1,claims=gamma:shape=2.5,rate=2",
                "--lattice", "0.05", "--u", "0,1,5,20"]


class TestScipyLoadedByGammaOnly:
    def test_exponential_and_mixture_jobs_leave_scipy_unloaded(self):
        # only the gamma law's incomplete gamma functions need scipy
        code = (
            "import contextlib, io, sys, ruinkit.cli\n"
            "jobs = [['exact', '--model', 'lambda=1,theta=0.01,sigma=1,claims=exp:rate=1', '--u', '0,1,10'],\n"
            "        ['bounds', '--model', 'lambda=1,theta=0.1,sigma=1,"
            "claims=mexp:w=0.6,0.4;b=2,0.5', '--lattice', '0.05', '--u', '1,5']]\n"
            "for argv in jobs:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert ruinkit.cli.main(argv) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        assert run_fresh(code).strip() == "[]"

    def test_gamma_job_in_fresh_interpreter_matches_in_process(self, capsys):
        # the first tail evaluation loads scipy.special; the numbers are the
        # ones an interpreter that already holds it prints
        code = (
            "import sys, ruinkit.cli\n"
            "assert 'scipy.special' not in sys.modules\n"
            f"assert ruinkit.cli.main({GAMMA_BOUNDS!r}) == 0\n"
            "assert 'scipy.special' in sys.modules\n"
        )
        fresh = run_fresh(code)
        assert main(GAMMA_BOUNDS) == 0
        in_process = capsys.readouterr().out
        assert fresh == in_process
        assert fresh.startswith("u,lower,upper,width\n") and fresh.count("\n") == 5
