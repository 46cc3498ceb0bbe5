"""The numpy kernels against the scalar reference loops in _reference_kernels."""

import numpy as np
import pytest

from ruinkit import Exponential, Gamma, MixedExponential, PerturbedModel, _kernels
from ruinkit._kernels import _bisect, _decay_scan
from ruinkit.bounds import discretize_ladder, lattice_convolve, panjer_compound
from ruinkit.exact import volterra_march

from _reference_kernels import _decay_scan_py, _lattice_convolve_py, _panjer_compound_py, _volterra_march_py
from conftest import MIX_RATES, MIX_WEIGHTS


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


@pytest.mark.parametrize("n", [1, 2, 3, 33, 63, 64, 65, 1000, 1537, 66, 128, 129, 130, 192, 193, 191, 194])
def test_division_matches_reference_loops_across_the_head(n):
    # every size runs the quotient: one or two terms, sizes where its step
    # stays direct, and uneven Newton doubling steps; from 66 on, the
    # reciprocal's Newton levels fall on both sides of the 64 terms where
    # direct products give way to FFTs. At 128 and 129 (even, then odd) the
    # quotient's step splits at h = ceil(n / 2) = 64, then 65, on either
    # side of that limit
    m = PerturbedModel(Exponential(1.0), lam=1.0, sigma=1.0, loading=0.1)
    p = discretize_ladder(m, 0.1, n).p_lower
    np.testing.assert_allclose(panjer_compound(p, m.q), _panjer_compound_py(p, m.q), rtol=1e-12)
    x = np.linspace(0.0, 5.0, n)
    kern = x * np.exp(-x)
    forcing = np.exp(-2.0 * x)
    h = x[1] if n > 1 else 0.01
    np.testing.assert_allclose(
        volterra_march(forcing, kern, 0.9, h), _volterra_march_py(forcing, kern, 0.9, h), rtol=1e-12
    )


@pytest.mark.parametrize("n", [40, 64, 65, 1000, 40001, 80001])
def test_volterra_stacked_forcing_matches_row_by_row(n):
    # one march on an (r, n) forcing shares the reciprocal of the kernel;
    # each row is the one-row march, bit for bit, and meets the scalar loop
    # where that O(n^2) python loop is affordable
    x = np.linspace(0.0, 5.0, n)
    kern = x * np.exp(-x)
    forcing = np.stack((np.exp(-2.0 * x), 0.3 * (1.0 + x) * np.exp(-3.0 * x)))
    h = x[1]
    both = volterra_march(forcing, kern, 0.9, h)
    assert both.shape == forcing.shape
    for row, f in zip(both, forcing):
        assert np.array_equal(row, volterra_march(f, kern, 0.9, h))
        if n <= 1000:
            np.testing.assert_allclose(row, _volterra_march_py(f, kern, 0.9, h), rtol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 64, 65, 1000])
def test_first_term_is_the_right_hand_side(ladder, n):
    # y[0] = rhs[0] exactly, as D[0] = 1, and a zero there stays +0.0
    p = ladder.p_lower[:n]
    q = 0.1
    g = panjer_compound(p, q)
    assert g[0] == q / (1.0 - (1.0 - q) * p[0])
    tail = np.linspace(1.0, 0.5, n)
    assert panjer_compound(p, q, tail)[0] == (1.0 - q) / (1.0 - (1.0 - q) * p[0]) * tail[0]
    tail[0] = 0.0
    assert not np.signbit(panjer_compound(p, q, tail)[0])
    x = np.linspace(0.0, 5.0, n)
    kern = x * np.exp(-x)
    forcing = np.stack((np.exp(-2.0 * x), x * np.exp(-x)))
    y = volterra_march(forcing, kern, 0.9, 0.01)
    assert y[0, 0] == 1.0
    assert y[1, 0] == 0.0 and not np.signbit(y[1, 0])


def test_tilt_is_the_sign_times_the_exp_of_the_log(ladder):
    # the in-place steps give the bits of the expression they stand for
    rng = np.random.default_rng(27)
    x = np.stack((ladder.p_lower, rng.normal(size=ladder.p_lower.size)))
    x[:, ::7] = 0.0
    k = np.arange(x.shape[-1])
    for b in (0.0, 0.3, -0.3, 1.7):
        with np.errstate(divide="ignore"):
            expected = np.sign(x) * np.exp(np.log(np.abs(x)) + b * k)
        assert np.array_equal(_kernels._tilt(x, b), expected)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_panjer_deep_tail_matches_closed_form():
    # geometric ladder p[k] = (1-rho) rho^(k-1): the compound pmf is
    # g[0] = q, g[k] = q (1-q) (1-rho) s^(k-1) with s = rho + (1-q)(1-rho).
    # At n = 3500 the Lundberg tilt e^(b k) itself would pass the float range.
    q = rho = 0.5
    n = 3500
    k = np.arange(1, n)
    p = np.zeros(n)
    p[1:] = (1.0 - rho) * rho ** (k - 1.0)
    s = rho + (1.0 - q) * (1.0 - rho)
    exact = np.concatenate(([q], q * (1.0 - q) * (1.0 - rho) * s ** (k - 1.0)))
    g = panjer_compound(p, q)
    big = exact >= 1e-290
    assert big[:2000].all()
    np.testing.assert_allclose(g[big], exact[big], rtol=1e-12)
    assert np.all(np.isfinite(g))
    assert np.all((g[~big] >= 0.0) & (g[~big] <= 1e-290))


def test_panjer_lattice_size_matches_closed_form():
    # the geometric ladder of test_panjer_deep_tail_matches_closed_form at
    # the size of the benchmark's fine lattices, where the quotient's
    # Karp-Markstein step and its 5 * 2^k transforms run: 40001 cells,
    # too many for the O(n^2) scalar loop
    q, rho = 0.01, 0.99
    n = 40001
    k = np.arange(1, n)
    p = np.zeros(n)
    p[1:] = (1.0 - rho) * rho ** (k - 1.0)
    s = rho + (1.0 - q) * (1.0 - rho)
    exact = np.concatenate(([q], q * (1.0 - q) * (1.0 - rho) * s ** (k - 1.0)))
    np.testing.assert_allclose(panjer_compound(p, q), exact, rtol=1e-12)


def test_fft_len_is_the_smallest_fast_size():
    sizes = np.unique([c << a for c in (1, 3, 5) for a in range(19)])
    m = np.arange(1, 2**17 + 1)
    expected = sizes[np.searchsorted(sizes, m)]
    assert [_kernels._fft_len(int(i)) for i in m] == expected.tolist()


def test_division_transforms_no_longer_than_the_quotient(monkeypatch):
    # no product of the n-term quotient is longer than _fft_len(n), none of
    # the double length 2n - 1
    model = PerturbedModel(Exponential(1.0), lam=1.0, sigma=1.0, loading=0.01)
    n = 40001
    lad = discretize_ladder(model, 0.005, n)
    x = np.linspace(0.0, 200.0, n)
    forcing = np.stack((np.exp(-2.0 * x), 0.3 * (1.0 + x) * np.exp(-3.0 * x)))
    lengths = []

    def spy(transform):
        def call(a, n=None, *args, **kwargs):
            lengths.append(len(a) if n is None else n)
            return transform(a, n, *args, **kwargs)

        return call

    monkeypatch.setattr(np.fft, "rfft", spy(np.fft.rfft))
    monkeypatch.setattr(np.fft, "irfft", spy(np.fft.irfft))
    limit = _kernels._fft_len(n)
    panjer_compound(lad.p_lower, model.q)
    assert lengths and max(lengths) == limit
    lengths.clear()
    volterra_march(forcing, x * np.exp(-x), 0.9, x[1])
    assert lengths and max(lengths) == limit
    assert limit == 40960  # 5 * 2^13; the smallest 2^k or 3 * 2^k is 49152


def _scan_cases():
    rng = np.random.default_rng(15)
    n = 5000
    x = rng.uniform(0.0, 1.0, n) * np.exp(-rng.uniform(0.0, 50.0, n))
    x[rng.integers(0, n, 50)] = 0.0
    # uniform grids over several blocks (rate * span = 2500 and 2600 against a
    # block span of 300; the second has lags that round), irregular increasing
    # positions with a gap wider than a block, and a rate so large that every
    # block holds one point
    irregular = np.cumsum(rng.exponential(0.3, n))
    irregular[n // 2 :] += 5000.0
    return {
        "uniform": (x, np.arange(n, dtype=float), 0.5),
        "uniform-fine": (x, np.arange(n) * 0.004, 130.0),
        "irregular": (x, irregular, 1.7),
        "one-per-block": (x[:300], np.arange(300.0), 900.0),
    }


@pytest.mark.parametrize("case", ["uniform", "uniform-fine", "irregular", "one-per-block"])
def test_decay_scan_matches_reference_loop(case):
    x, pos, rate = _scan_cases()[case]
    np.testing.assert_allclose(_decay_scan(x, pos, rate), _decay_scan_py(x, pos, rate), rtol=1e-13, atol=0.0)


def test_decay_scan_of_nothing_is_empty():
    assert _decay_scan(np.zeros(0), np.zeros(0), 1.0).shape == (0,)


def test_volterra_rejects_nonzero_kernel_origin():
    forcing = np.ones(10)
    kern = np.ones(10)
    with pytest.raises(ValueError):
        volterra_march(forcing, kern, 1.0, 0.1)


class TestBisect:
    @staticmethod
    def counted(f):
        calls = []

        def wrapped(x):
            calls.append(x)
            return f(x)

        return wrapped, calls

    def test_stops_at_tol_with_the_sign_kept(self):
        f, calls = self.counted(lambda x: x - 0.3)
        lo, hi, iterations = _bisect(f, 0.0, 1.0, 2.0**-10)
        assert iterations == len(calls) == 10  # halved from width 1 to tol
        assert hi - lo == 2.0**-10
        assert lo - 0.3 < 0.0 <= hi - 0.3

    def test_tol_zero_runs_to_adjacent_floats(self):
        step = 0.1  # f changes sign exactly at this float
        f, calls = self.counted(lambda x: -1.0 if x < step else 1.0)
        lo, hi, iterations = _bisect(f, 0.0, 1.0, 0.0)
        assert (lo, hi) == (np.nextafter(step, 0.0), step)
        assert iterations == len(calls) > 50

    def test_root_on_a_midpoint_stays_the_upper_end(self):
        # f(mid) = 0 counts as not negative, so hi takes it
        lo, hi, iterations = _bisect(lambda x: x - 0.5, 0.0, 1.0, 0.25)
        assert (lo, hi, iterations) == (0.25, 0.5, 2)

    def test_no_step_when_the_bracket_is_within_tol(self):
        assert _bisect(lambda x: x, -1.0, 1.0, 2.0) == (-1.0, 1.0, 0)


@pytest.mark.parametrize("n, width", [(501, 0.1), (40001, 0.005)])
@pytest.mark.parametrize("family", ["exp", "mixture", "gamma"])
def test_lundberg_exponent_keeps_its_contract(monkeypatch, family, n, width):
    # the Panjer tilt of the benchmark models' ladders (loading 0.01): below
    # the root, within 0.1/n of it, from a tangent bracket in a few halvings
    claims = {
        "exp": Exponential(1.0),
        "mixture": MixedExponential(MIX_WEIGHTS, MIX_RATES),
        "gamma": Gamma(2.0, 2.0),
    }[family]
    model = PerturbedModel(claims, lam=1.0, sigma=1.0, loading=0.01)
    kern = discretize_ladder(model, width, n).p_lower
    a = (1.0 - model.q) / (1.0 - (1.0 - model.q) * kern[0])  # as panjer_compound forms it
    i = np.flatnonzero(kern[1:] > 0.0) + 1
    logw = np.log(a) + np.log(kern[i])

    def log_mass(b):
        v = logw + b * i
        return v.max() + np.log(np.exp(v - v.max()).sum())

    evaluations = []

    def spy(f, lo, hi, tol):
        def counted(b):
            evaluations.append(b)
            return f(b)

        return _bisect(counted, lo, hi, tol)

    monkeypatch.setattr(_kernels, "_bisect", spy)
    b = _kernels._lundberg_exponent(a, kern, n)
    # the log-mass at 0, with its slope, is one evaluation before the halvings
    assert 1 + len(evaluations) <= 8
    assert log_mass(b) < 0.0
    root = _bisect(log_mass, 0.0, float(np.min(-logw / i)), 0.0)[1]
    assert 0.0 < root - b <= 0.1 / n
