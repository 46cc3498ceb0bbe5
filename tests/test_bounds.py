"""Lattice discretization bounds via the compound-geometric recursion."""

from math import ceil

import numpy as np
import pytest

import ruinkit.bounds
from ruinkit import (
    Exponential,
    Gamma,
    MixedExponential,
    PerturbedModel,
    de_vylder_ruin,
    discretize_ladder,
    exact_ruin,
    panjer_bounds,
)
from ruinkit.approx import mixture_exact_ruin

from _reference_kernels import _lattice_convolve_py, _panjer_compound_py
from conftest import MIX_RATES, MIX_WEIGHTS


U11 = np.array([0.1, 0.2, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0, 25.0, 50.0])


class TestDiscretizeLadder:
    def test_cell_masses(self, exp_model):
        lad = discretize_ladder(exp_model, 0.1, 50)
        assert lad.lattice_width == 0.1
        assert np.all(lad.p_lower >= 0) and np.all(lad.p_upper >= 0)
        # ceil cells shift mass down one index: cell 0 is empty
        assert lad.p_upper[0] == 0.0
        assert lad.p_lower.sum() <= 1.0 + 1e-12

    def test_upper_cells_stochastically_dominate(self, gamma_model):
        lad = discretize_ladder(gamma_model, 0.1, 80)
        # partial sums of the ceil cells never exceed those of the floor cells
        assert np.all(np.cumsum(lad.p_upper) <= np.cumsum(lad.p_lower) + 1e-12)

    def test_mass_deficit_shrinks_with_points(self, exp_model):
        small = discretize_ladder(exp_model, 0.1, 50).mass_deficit
        large = discretize_ladder(exp_model, 0.1, 500).mass_deficit
        assert 0.0 <= large < small

    def test_validation(self, exp_model):
        with pytest.raises(ValueError):
            discretize_ladder(exp_model, 0.0, 50)
        with pytest.raises(ValueError):
            discretize_ladder(exp_model, 0.1, 0)
        for width in (np.nan, np.inf):
            with pytest.raises(ValueError, match="lattice_width"):
                discretize_ladder(exp_model, width, 50)

    @pytest.mark.parametrize("n_points", [2.5, 3.0, True, "3"])
    def test_n_points_must_be_an_integer(self, monkeypatch, exp_model, n_points):
        # refused before the ladder is evaluated, not inside numpy
        def no_ladder(*args):
            raise AssertionError("the ladder was evaluated")

        monkeypatch.setattr(type(exp_model.claims), "_ladder", no_ladder)
        with pytest.raises(ValueError, match=f"n_points must be an integer, got {n_points!r}"):
            discretize_ladder(exp_model, 0.1, n_points)

    def test_n_points_may_be_a_numpy_integer(self, exp_model):
        lad = discretize_ladder(exp_model, 0.1, np.int64(50))
        ref = discretize_ladder(exp_model, 0.1, 50)
        assert np.array_equal(lad.p_lower, ref.p_lower) and np.array_equal(lad.p_upper, ref.p_upper)
        assert np.array_equal(lad.tail, ref.tail)


class TestPublishedConvention:
    """Replicates the external tabulation's bound columns (see the frozen
    reference module); those columns bound the record-free compound
    geometric, not the full ruin probability."""

    def test_exp_frozen_cells(self, exp_model):
        pair = panjer_bounds(exp_model, 0.1, np.array([1.0, 50.0]), convention="published")
        assert pair.lower.values[0] == pytest.approx(0.984570, abs=2e-4)
        assert pair.upper.values[0] == pytest.approx(0.985410, abs=2e-4)
        assert pair.lower.values[1] == pytest.approx(0.698694, abs=2e-4)
        assert pair.upper.values[1] == pytest.approx(0.714842, abs=2e-4)

    def test_lower_below_upper(self, mix_model):
        pair = panjer_bounds(mix_model, 0.1, U11, convention="published")
        assert np.all(pair.lower.values <= pair.upper.values + 1e-15)

    def test_rejects_unit_loading(self, heavy_loading_model):
        # the published geometric parameter theta/(1-theta) breaks down here
        with pytest.raises(ValueError):
            panjer_bounds(heavy_loading_model, 0.1, np.array([1.0]), convention="published")

    @pytest.mark.parametrize("loading", [0.5, 0.6, 0.9])
    def test_rejects_loading_from_one_half(self, loading):
        # theta/(1-theta) >= 1 is no probability; the result was clipped noise
        # (all zeros at 0.5 and 0.6, lower 1, 0, 0.016, 0 at 0.9)
        model = PerturbedModel(Exponential(1.0), lam=1.0, sigma=1.0, loading=loading)
        with pytest.raises(ValueError, match=r"loading < 0\.5"):
            panjer_bounds(model, 0.1, np.array([0.5, 1.0, 2.0, 5.0]), convention="published")

    def test_loading_just_below_one_half(self):
        model = PerturbedModel(Exponential(1.0), lam=1.0, sigma=1.0, loading=0.49)
        pair = panjer_bounds(model, 0.1, np.array([0.5, 1.0, 2.0, 5.0]), convention="published")
        lower, upper = pair.lower.values, pair.upper.values
        assert np.all((0.0 < lower) & (lower <= upper) & (upper < 1.0))
        assert np.all(np.diff(lower) < 0.0) and np.all(np.diff(upper) < 0.0)


class TestStrictConvention:
    def test_sandwich_exponential(self, exp_model):
        width = 0.1
        u = width * np.arange(1, 101)
        pair = panjer_bounds(exp_model, width, u, convention="strict")
        exact = de_vylder_ruin(exp_model, u)  # closed form, exact here
        assert np.all(pair.lower.values <= exact + 1e-12)
        assert np.all(exact <= pair.upper.values + 1e-12)

    def test_sandwich_gamma(self, gamma_model):
        width = 0.1
        u = width * np.arange(1, 51)
        pair = panjer_bounds(gamma_model, width, u, convention="strict")
        exact = exact_ruin(gamma_model, u)
        assert np.all(pair.lower.values <= exact + 1e-12)
        assert np.all(exact <= pair.upper.values + 1e-12)

    def test_width_shrinks_with_lattice(self, exp_model):
        widths = []
        for w in (0.2, 0.1, 0.05):
            pair = panjer_bounds(exp_model, w, np.array([1.0]), convention="strict")
            widths.append(pair.upper.values[0] - pair.lower.values[0])
        assert widths[0] > widths[1] > widths[2] > 0

    def test_frozen_regression_values(self, exp_model, gamma_model):
        pair = panjer_bounds(exp_model, 0.1, np.array([0.5, 1.0, 2.0]), convention="strict")
        np.testing.assert_allclose(
            pair.lower.values,
            [0.9921741686429114, 0.9881761781137677, 0.9812447626949384],
            rtol=1e-12,
        )
        np.testing.assert_allclose(
            pair.upper.values,
            [0.9933570056492113, 0.9894513836380866, 0.9829339030467033],
            rtol=1e-12,
        )
        pg = panjer_bounds(gamma_model, 0.1, np.array([1.0]), convention="strict")
        assert pg.lower.values[0] == pytest.approx(0.9877050846693548, rel=1e-12)
        assert pg.upper.values[0] == pytest.approx(0.9891784985659039, rel=1e-12)

    def test_unit_loading_allowed(self, heavy_loading_model):
        pair = panjer_bounds(heavy_loading_model, 0.1, np.array([1.0]), convention="strict")
        exact = de_vylder_ruin(heavy_loading_model, 1.0)
        assert pair.lower.values[0] <= exact <= pair.upper.values[0]


class TestDeepTail:
    """Each bound is a tail series of positive terms, so the strict pair keeps
    bracketing the exact curve far below the 1e-15 where 1 - cumsum(pmf)
    turns to rounding noise."""

    U = np.array([40.0, 80.0, 120.0, 200.0])

    def _assert_brackets(self, model, exact):
        pair = panjer_bounds(model, 0.05, self.U, convention="strict")
        assert np.all(pair.lower.values > 0.0)
        assert np.all(pair.lower.values <= exact)
        assert np.all(exact <= pair.upper.values)

    def test_exponential(self, heavy_loading_model):
        exact = de_vylder_ruin(heavy_loading_model, self.U)  # closed form, exact here
        assert exact[-1] < 1e-38
        self._assert_brackets(heavy_loading_model, exact)

    def test_two_component_mixture(self):
        weights, rates = (0.5, 0.5), (1.0, 3.0)
        model = PerturbedModel(MixedExponential(weights, rates), lam=1.0, sigma=1.0, loading=1.0)
        exact = mixture_exact_ruin(model.lam, model.c, model.sigma, weights, rates, self.U)
        assert exact[-1] < 1e-39
        self._assert_brackets(model, exact)


def _pmf_partial_sum_tails(model, width, n, convention):
    """The bounds as they were once formed: the compound pmf from the scalar
    Panjer loop, the record convolved in for the strict convention, then
    1 - cumsum(pmf)."""
    lad = discretize_ladder(model, width, n)
    if convention == "published":
        q = model.loading / (1.0 - model.loading)
        pmfs = [_panjer_compound_py(p, q) for p in (lad.p_lower, lad.p_upper)]
    else:
        rec_lower = -np.diff(np.exp(-model.tau * width * np.arange(n + 1)))
        rec_upper = np.concatenate(([0.0], rec_lower[:-1]))
        pmfs = [
            _lattice_convolve_py(rec, _panjer_compound_py(p, model.q))
            for rec, p in ((rec_lower, lad.p_lower), (rec_upper, lad.p_upper))
        ]
    return [1.0 - np.cumsum(pmf) for pmf in pmfs]


@pytest.mark.parametrize("family, loading, convention", [
    ("exp", 1.0, "strict"),
    ("mixture", 0.01, "strict"),
    ("gamma", 1.0, "strict"),
    ("exp", 0.3, "published"),
    ("mixture", 0.3, "published"),
    ("gamma", 0.01, "published"),
])
def test_tail_series_matches_pmf_partial_sums(family, loading, convention):
    claims = {
        "exp": Exponential(1.0),
        "mixture": MixedExponential(MIX_WEIGHTS, MIX_RATES),
        "gamma": Gamma(2.0, 2.0),
    }[family]
    model = PerturbedModel(claims, lam=1.0, sigma=1.0, loading=loading)
    width, n = 0.25, 400
    pair = panjer_bounds(model, width, width * np.arange(n), convention=convention)
    for new, old in zip((pair.lower.values, pair.upper.values), _pmf_partial_sum_tails(model, width, n, convention)):
        keep = old > 1e-12
        assert keep.sum() > 100
        # the partial sums carry up to about n * eps of absolute rounding
        np.testing.assert_allclose(new[keep], old[keep], rtol=1e-12, atol=5e-14)


class TestSnapping:
    def test_off_lattice_u_is_conservative(self, exp_model):
        # u strictly inside a cell: the upper bound takes the cell below,
        # the lower bound the cell above, widening the pair
        on = panjer_bounds(exp_model, 0.1, np.array([1.0]), convention="strict")
        off = panjer_bounds(exp_model, 0.1, np.array([1.04]), convention="strict")
        assert off.upper.values[0] >= on.upper.values[0] - 1e-15
        lo_next = panjer_bounds(exp_model, 0.1, np.array([1.1]), convention="strict")
        assert off.lower.values[0] == pytest.approx(lo_next.lower.values[0], rel=1e-14)

    def test_float_noise_rounds_to_lattice(self, exp_model):
        a = panjer_bounds(exp_model, 0.1, np.array([1.0]), convention="strict")
        b = panjer_bounds(exp_model, 0.1, np.array([1.0 * (1 + 2e-10)]), convention="strict")
        assert a.lower.values[0] == b.lower.values[0]
        assert a.upper.values[0] == b.upper.values[0]


class TestLatticeSize:
    """The default lattice holds the cells the u grid reads and no more. Every
    step is causal (cell k of the ladder, of the Panjer tail and of the
    record reads only cells 0..k), so padding past the last read cell
    changes no value beyond rounding."""

    U = np.array([0.0, 0.05, 0.1, 0.33, 1.0, 2.47, 10.0, 31.4159])  # off-lattice points too
    WIDTH = 0.1
    NEED = ceil(31.4159 / 0.1 - 1e-12) + 1  # cells 0..315; u = 31.4159 snaps up to 315

    @staticmethod
    def spy_cells(monkeypatch):
        cells = []
        real = ruinkit.bounds.discretize_ladder

        def spy(model, width, n_points):
            cells.append(n_points)
            return real(model, width, n_points)

        monkeypatch.setattr(ruinkit.bounds, "discretize_ladder", spy)
        return cells

    @pytest.mark.parametrize("convention", ["published", "strict"])
    @pytest.mark.parametrize("family", ["exp", "mixture", "gamma0.5"])
    def test_padding_changes_nothing(self, monkeypatch, family, convention):
        claims = {
            "exp": Exponential(1.0),
            "mixture": MixedExponential(MIX_WEIGHTS, MIX_RATES),
            "gamma0.5": Gamma(0.5, 0.5),
        }[family]
        model = PerturbedModel(claims, lam=1.0, sigma=1.0, loading=0.1)
        cells = self.spy_cells(monkeypatch)
        default = panjer_bounds(model, self.WIDTH, self.U, convention)
        # one more grid point, 2000 cells past the last one: a longer lattice
        padded_u = np.append(self.U, (self.NEED + 1999) * self.WIDTH)
        padded = panjer_bounds(model, self.WIDTH, padded_u, convention)
        assert cells == [self.NEED, self.NEED + 2000]
        for got, want in ((default.lower, padded.lower), (default.upper, padded.upper)):
            assert np.all(want.values > 0.0)
            np.testing.assert_allclose(got.values, want.values[:-1], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("convention", ["published", "strict"])
    def test_origin_and_empty_grid(self, monkeypatch, exp_model, convention):
        cells = self.spy_cells(monkeypatch)
        # u = 0 reads one cell; it was once padded to 2000, with the same bits
        origin = panjer_bounds(exp_model, self.WIDTH, [0.0], convention)
        padded = panjer_bounds(exp_model, self.WIDTH, [0.0, 1999 * self.WIDTH], convention)
        assert cells == [1, 2000]
        np.testing.assert_array_equal(origin.lower.values, padded.lower.values[:1])
        np.testing.assert_array_equal(origin.upper.values, padded.upper.values[:1])
        empty = panjer_bounds(exp_model, self.WIDTH, [], convention)
        for curve in (empty.lower, empty.upper):
            assert curve.u.shape == curve.values.shape == (0,)


def test_validation(exp_model):
    with pytest.raises(ValueError):
        panjer_bounds(exp_model, 0.1, np.array([-1.0]))
    with pytest.raises(ValueError):
        panjer_bounds(exp_model, 0.1, np.array([1.0]), convention="fuzzy")
    for u in (np.nan, np.inf):
        with pytest.raises(ValueError, match="u values must be"):
            panjer_bounds(exp_model, 0.1, np.array([1.0, u]))
    for width in (np.nan, np.inf, 0.0):
        with pytest.raises(ValueError, match="lattice_width"):
            panjer_bounds(exp_model, width, np.array([1.0]))


def test_curve_metadata(exp_model):
    pair = panjer_bounds(exp_model, 0.1, np.array([1.0, 2.0]))
    assert pair.lower.method == "dg_lower"
    assert pair.upper.method == "dg_upper"
    assert pair.lattice_width == 0.1
