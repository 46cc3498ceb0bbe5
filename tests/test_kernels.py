"""The numpy kernels against the scalar reference loops in _reference_kernels."""

import numpy as np
import pytest

from ruinkit import Exponential, PerturbedModel
from ruinkit.bounds import discretize_ladder, lattice_convolve, panjer_compound
from ruinkit.exact import volterra_march

from _reference_kernels import _lattice_convolve_py, _panjer_compound_py, _volterra_march_py


@pytest.fixture(scope="module")
def ladder():
    m = PerturbedModel(Exponential(1.0), lam=1.0, sigma=1.0, loading=0.1)
    return discretize_ladder(m, 0.1, 400)


def test_panjer_unit_mass_is_geometric():
    # unit claims collapse the compound law: g[k] = (1-q') q'^k with q' = 1-q
    p = np.zeros(12)
    p[1] = 1.0
    g = panjer_compound(p, 0.5)
    np.testing.assert_allclose(g, 0.5 ** (np.arange(12) + 1), rtol=1e-14)


def test_panjer_matches_reference_loop(ladder):
    q = 1.0 / 101.0
    np.testing.assert_allclose(
        panjer_compound(ladder.p_lower, q), _panjer_compound_py(ladder.p_lower, q), rtol=1e-12
    )


def test_convolve_matches_reference_loop(ladder):
    a, b = ladder.p_lower, ladder.p_upper
    r = lattice_convolve(a, b)
    np.testing.assert_allclose(r, _lattice_convolve_py(a, b), rtol=1e-12, atol=1e-18)
    # length is truncated to the first argument's
    assert r.shape == a.shape


def test_convolve_against_numpy_reference(ladder):
    # the contract any faster kernel must keep: the full convolution, truncated
    a, b = ladder.p_lower, ladder.p_upper
    np.testing.assert_allclose(lattice_convolve(a, b), np.convolve(a, b)[: a.size], rtol=1e-12, atol=1e-18)


def test_volterra_matches_reference_loop():
    x = np.linspace(0.0, 5.0, 501)
    kern = x * np.exp(-x)  # vanishes at 0 as the march requires
    forcing = np.exp(-2.0 * x)
    np.testing.assert_allclose(
        volterra_march(forcing, kern, 0.9, 0.01), _volterra_march_py(forcing, kern, 0.9, 0.01), rtol=1e-12
    )


def test_volterra_rejects_nonzero_kernel_origin():
    forcing = np.ones(10)
    kern = np.ones(10)
    with pytest.raises(ValueError):
        volterra_march(forcing, kern, 1.0, 0.1)
