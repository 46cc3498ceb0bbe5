"""Ruin probabilities by transform inversion, and the two-cause split."""

import math

import numpy as np
import pytest

from ruinkit import (
    Exponential,
    Gamma,
    InversionError,
    PerturbedModel,
    RuinCurve,
    de_vylder_ruin,
    decompose_ruin,
    exact_ruin,
    mixture_exact_ruin,
)

from conftest import MIX_RATES, MIX_WEIGHTS


def test_u_zero_exact_one(exp_model):
    assert exact_ruin(exp_model, 0.0) == 1.0


def test_u_zero_classical():
    m = PerturbedModel(Exponential(1.0), lam=1.0, sigma=0.0, loading=0.1)
    assert exact_ruin(m, 0.0) == 1.0 - m.q


def test_negative_u_rejected(exp_model):
    with pytest.raises(ValueError):
        exact_ruin(exp_model, -0.5)
    for u in (np.nan, np.inf, [1.0, np.nan]):
        with pytest.raises(ValueError, match="u must be"):
            exact_ruin(exp_model, u)


@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
def test_matches_closed_form_for_exponential_claims(sigma):
    # the four-moment fit is an identity for exponential claims, so its
    # two-exponential formula is the exact answer and the strongest
    # available accuracy oracle for the inversion
    m = PerturbedModel(Exponential(1.0), lam=1.0, sigma=sigma, loading=0.01)
    u = np.linspace(0.0, 100.0, 41)
    got = exact_ruin(m, u)
    np.testing.assert_allclose(got, de_vylder_ruin(m, u), atol=1e-8)


def test_sigma_zero_classical_formula():
    m = PerturbedModel(Exponential(1.0), lam=1.0, sigma=0.0, loading=0.1)
    for u in (0.5, 1.0, 5.0):
        expected = (1.0 / 1.1) * math.exp(-0.1 * u / 1.1)
        assert exact_ruin(m, u) == pytest.approx(expected, abs=1e-9)


def test_gamma_frozen_values(gamma_model):
    assert exact_ruin(gamma_model, 1.0) == pytest.approx(0.988866, abs=5e-7)
    assert exact_ruin(gamma_model, 10.0) == pytest.approx(0.920397, abs=5e-7)
    assert exact_ruin(gamma_model, 50.0) == pytest.approx(0.669029, abs=5e-7)


def test_mixture_matches_partial_fraction_solution(mix_model):
    u = np.array([0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0])
    closed = mixture_exact_ruin(1.0, mix_model.c, 1.0, MIX_WEIGHTS, MIX_RATES, u)
    inverted = exact_ruin(mix_model, u)
    np.testing.assert_allclose(inverted, closed, atol=1e-9)


def test_euler_agrees_with_talbot(exp_model):
    for u in (0.5, 5.0, 50.0):
        a = exact_ruin(exp_model, u, method="talbot")
        b = exact_ruin(exp_model, u, method="euler")
        assert a == pytest.approx(b, abs=1e-8)


def test_array_input(exp_model):
    u = np.array([0.0, 1.0, 10.0])
    vals = exact_ruin(exp_model, u)
    assert isinstance(vals, np.ndarray)
    assert vals[0] == 1.0
    assert vals[1] == pytest.approx(0.989188, abs=5e-7)
    grid = exact_ruin(exp_model, np.array([[1.0, 0.0], [10.0, 0.0]]))
    assert grid.shape == (2, 2)
    np.testing.assert_array_equal(grid, [[vals[1], 1.0], [vals[2], 1.0]])
    # a 0-d array is a scalar u: a float comes back, as for a python float
    for u0, expected in ((0.0, 1.0), (1.0, vals[1])):
        value = exact_ruin(exp_model, np.array(u0))
        assert type(value) is float
        assert value == expected


@pytest.mark.parametrize("method, degree, atol", [("talbot", None, 1e-14), ("talbot", 33, 1e-14), ("euler", None, 1e-8)])
def test_grid_matches_pointwise(method, degree, atol, exp_model, gamma_model, mix_model):
    # one inversion over the grid against one call per point; u = 0 is
    # filled from the closed value on both pathways
    classical = PerturbedModel(Gamma(2.0, 2.0), lam=1.0, sigma=0.0, loading=0.1)
    u = np.array([0.0, 0.1, 1.0, 5.0, 25.0, 100.0])
    for m in (exp_model, gamma_model, mix_model, classical):
        grid = exact_ruin(m, u, method=method, degree=degree)
        pointwise = [exact_ruin(m, x, method=method, degree=degree) for x in u]
        np.testing.assert_allclose(grid, pointwise, rtol=0.0, atol=atol)
        assert grid[0] == exact_ruin(m, 0.0)


def test_unrepresentable_transform_is_an_inversion_error():
    # sigma = 1e-150 puts tau near 2e300: at u = 1e-100 the contour sits near
    # |s| = 1e101, s * (s + tau) overflows and the transform is NaN; the
    # self-check must raise rather than return it
    m = PerturbedModel(Exponential(1.0), lam=1.0, sigma=1e-150, loading=0.01)
    with pytest.raises(InversionError, match="disagree at t=1e-100: nan vs nan"):
        exact_ruin(m, 1e-100)
    with pytest.raises(InversionError, match="t=1e-100"):
        exact_ruin(m, [0.0, 1e-100, 1.0])


@pytest.mark.parametrize(
    "claims, loading", [(Exponential(1.0), 1.0), (Gamma(2.0, 2.0), 0.01)], ids=["exp.theta1", "gamma2.theta0.01"]
)
def test_tiny_u_is_exactly_one(claims, loading):
    # psi(u) = 1 - tau*q*u + O(u^2): below tau*q*u = 2**-54 the value is 1.0,
    # where the transform on the contour (|s| near 2M/(5u)) would overflow
    m = PerturbedModel(claims, lam=1.0, sigma=1.0, loading=loading)
    tiny = [1e-300, 1e-200, 1e-153, 1e-100]
    for method in ("talbot", "euler"):
        for u in tiny:
            assert exact_ruin(m, u, method=method) == 1.0
        grid = exact_ruin(m, [0.0, *tiny, 1.0], method=method)
        assert grid[:-1].tolist() == [1.0] * 5
        assert grid[-1] == exact_ruin(m, 1.0, method=method)
    # the first u that is inverted meets the fill within the inversion's
    # absolute accuracy
    edge = 2.0**-54 / (m.tau * m.q)
    assert exact_ruin(m, edge) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("u", [3e-17, 1e-16, 1e-14])
def test_tiny_u_never_passes_the_value_at_zero(u):
    # just above the fill, the inversion's absolute noise (about 1e-11) is
    # larger than 1 - psi; psi is nonincreasing, so psi(0) caps it
    m = PerturbedModel(Exponential(1.0), lam=1.0, sigma=1.0, loading=1.0)
    closed = mixture_exact_ruin(m.lam, m.c, m.sigma, (1.0,), (1.0,), u)
    for value in (exact_ruin(m, u), exact_ruin(m, [u, 1.0])[0]):
        assert value <= 1.0
        assert value == pytest.approx(closed, abs=1e-11)
    # the classical pathway's cap is psi(0) = 1 - q
    m0 = PerturbedModel(Exponential(1.0), lam=1.0, sigma=0.0, loading=1.0)
    value = exact_ruin(m0, u)
    assert value <= 1.0 - m0.q
    assert value == pytest.approx((1.0 - m0.q) * math.exp(-m0.q * u), abs=1e-11)


def test_scalar_returns_float(exp_model):
    v = exact_ruin(exp_model, 1.0)
    assert isinstance(v, float)


def test_monotone_decreasing(exp_model):
    u = np.linspace(0.0, 30.0, 31)
    vals = exact_ruin(exp_model, u)
    assert np.all(np.diff(vals) < 0)


class TestRuinCurve:
    def test_validates_shapes(self):
        with pytest.raises(ValueError):
            RuinCurve("x", np.array([0.0, 1.0]), np.array([1.0]))

    def test_validates_monotone_grid(self):
        with pytest.raises(ValueError):
            RuinCurve("x", np.array([0.0, 2.0, 1.0]), np.array([1.0, 0.5, 0.4]))

    def test_iterates_pairs(self):
        c = RuinCurve("x", np.array([0.0, 1.0]), np.array([1.0, 0.5]))
        assert list(c) == [(0.0, 1.0), (1.0, 0.5)]


class TestDecomposition:
    def test_boundary_values(self, exp_model):
        dec = decompose_ruin(exp_model, 1.0, step=0.01)
        assert dec.psi1.values[0] == pytest.approx(1.0, abs=1e-12)
        assert dec.psi2.values[0] == pytest.approx(0.0, abs=1e-12)

    def test_frozen_split_at_one(self, exp_model):
        dec = decompose_ruin(exp_model, 1.0, step=0.01)
        assert dec.psi1.values[-1] == pytest.approx(0.36109069253360404, rel=1e-10)
        assert dec.psi2.values[-1] == pytest.approx(0.6280961350848746, rel=1e-10)

    def test_sum_matches_exact(self, exp_model):
        dec = decompose_ruin(exp_model, 5.0, step=0.01)
        total = dec.psi1.values + dec.psi2.values
        exact = de_vylder_ruin(exp_model, dec.psi1.u)
        assert np.max(np.abs(total - exact)) < 1e-5

    def test_refinement_helps(self, exp_model):
        u_ref = None
        errs = {}
        for refine in (1, 4):
            dec = decompose_ruin(exp_model, 5.0, step=0.01, refine=refine)
            total = dec.psi1.values + dec.psi2.values
            if u_ref is None:
                u_ref = de_vylder_ruin(exp_model, dec.psi1.u)
            errs[refine] = np.max(np.abs(total - u_ref))
        assert errs[4] < errs[1]
        assert errs[1] < 1e-4  # coarse march is still usable

    def test_oscillation_part_decreasing(self, exp_model):
        dec = decompose_ruin(exp_model, 5.0, step=0.05)
        assert np.all(np.diff(dec.psi1.values) < 0)

    def test_claim_part_nonnegative(self, gamma_model):
        dec = decompose_ruin(gamma_model, 5.0, step=0.05)
        assert np.all(dec.psi2.values >= 0)

    def test_validation(self, exp_model):
        with pytest.raises(ValueError):
            decompose_ruin(exp_model, -1.0)
        with pytest.raises(ValueError):
            decompose_ruin(exp_model, 1.0, step=0.0)
        with pytest.raises(ValueError):
            decompose_ruin(exp_model, 1.0, step=0.01, refine=0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="u_max"):
                decompose_ruin(exp_model, bad)
            with pytest.raises(ValueError, match="step"):
                decompose_ruin(exp_model, 1.0, step=bad)

    @pytest.mark.parametrize("refine", [2.5, 4.0, True, "4"])
    def test_refine_must_be_an_integer(self, monkeypatch, exp_model, refine):
        # refused before the ladder is evaluated: 2.5 and 4.0 once ran the
        # whole march and failed at the subsampling slice, and True ran as 1
        def no_ladder(*args):
            raise AssertionError("the ladder was evaluated")

        monkeypatch.setattr(type(exp_model.claims), "_ladder", no_ladder)
        with pytest.raises(ValueError, match=f"refine must be an integer, got {refine!r}"):
            decompose_ruin(exp_model, 1.0, step=0.05, refine=refine)

    def test_refine_may_be_a_numpy_integer(self, exp_model):
        dec = decompose_ruin(exp_model, 1.0, step=0.05, refine=np.int64(2))
        ref = decompose_ruin(exp_model, 1.0, step=0.05, refine=2)
        assert np.array_equal(dec.psi1.values, ref.psi1.values)
        assert np.array_equal(dec.psi2.values, ref.psi2.values)

    def test_sigma_zero_has_no_split(self):
        classical = PerturbedModel(Exponential(1.0), lam=1.0, sigma=0.0, loading=0.1)
        with pytest.raises(ValueError, match=r"the cause split requires a diffusion term \(sigma > 0\)"):
            decompose_ruin(classical, 1.0)

    def test_step_too_coarse_for_tau(self, exp_model):
        # tau = 2.02: h = step / refine must stay below 1 / tau = 0.495
        with pytest.raises(ValueError, match="step too coarse: tau \\* step / refine must be < 1"):
            decompose_ruin(exp_model, 10.0, step=2.0)
        with pytest.raises(ValueError, match="step too coarse"):
            decompose_ruin(exp_model, 10.0, step=0.5, refine=1)
        assert decompose_ruin(exp_model, 10.0, step=0.5, refine=2).psi1.u[-1] == 10.0

    @pytest.mark.parametrize("u_max, step, last", [
        (1.0, 0.6, 0.6),  # 1/0.6 rounds up to 2, and the grid once ended at 1.2
        (1.0, 0.3, 0.9),
        (1.0, 0.25, 1.0),
        (0.3, 0.1, 0.3),  # 0.3/0.1 is 2.9999999999999996
        (218.64, 0.01, 218.64),  # 21863.999999999996, 4e-12 below 21864
        (218.645, 0.01, 218.64),
        (100.0, 0.01, 100.0),
        (0.1, 0.01, 0.1),
    ])
    def test_grid_ends_at_the_last_step_not_above_u_max(self, exp_model, u_max, step, last):
        u = decompose_ruin(exp_model, u_max, step=step).psi1.u
        assert u.size == round(last / step) + 1
        assert u[-1] == pytest.approx(last, rel=1e-12)

    def test_labels(self, exp_model):
        dec = decompose_ruin(exp_model, 1.0, step=0.1)
        assert dec.psi1.method == "oscillation_ruin"
        assert dec.psi2.method == "claim_ruin"
