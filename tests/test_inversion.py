"""Numerical transform inversion against known transform/original pairs."""

import math

import numpy as np
import pytest

from ruinkit import euler, invert, talbot
from ruinkit import InversionError


DECAY = lambda s: 1.0 / (s + 0.5)  # original: exp(-t/2)
RAMP = lambda s: 1.0 / (s * s)  # original: t
STEP = lambda s: 1.0 / s  # original: 1
OSC = lambda s: 1.0 / (s * s + 1.0)  # original: sin(t)


GRID = np.array([[0.1, 1.0], [5.0, 10.0]])


@pytest.mark.parametrize("t", [0.1, 1.0, 5.0, 10.0, GRID])
def test_talbot_decay(t):
    got = talbot(DECAY, t)
    assert np.shape(got) == np.shape(t)
    assert got == pytest.approx(np.exp(-0.5 * t), abs=1e-10)


@pytest.mark.parametrize("t", [0.1, 1.0, 5.0, 10.0, GRID])
def test_euler_decay(t):
    got = euler(DECAY, t)
    assert np.shape(got) == np.shape(t)
    assert got == pytest.approx(np.exp(-0.5 * t), abs=1e-9)


def test_ramp_and_step():
    assert talbot(RAMP, 3.0) == pytest.approx(3.0, abs=1e-10)
    assert euler(RAMP, 3.0) == pytest.approx(3.0, abs=1e-9)
    assert talbot(STEP, 7.0) == pytest.approx(1.0, abs=1e-10)
    assert euler(STEP, 7.0) == pytest.approx(1.0, abs=1e-9)


def test_oscillatory():
    assert talbot(OSC, 2.0) == pytest.approx(math.sin(2.0), abs=1e-9)
    assert euler(OSC, 2.0) == pytest.approx(math.sin(2.0), abs=1e-9)


def test_t_must_be_positive():
    with pytest.raises(ValueError):
        talbot(DECAY, 0.0)
    with pytest.raises(ValueError):
        euler(DECAY, -1.0)
    with pytest.raises(ValueError):
        talbot(DECAY, [1.0, 0.0])


@pytest.mark.parametrize("method", ["talbot", "euler"])
def test_degree_must_be_an_integer(method):
    # int() would run 2.5 as the 2-node rule and True as the 1-node rule
    for degree in (2.5, 24.0, True, "24"):
        with pytest.raises(ValueError, match=f"inversion degree must be an integer, got {degree!r}"):
            invert(DECAY, 1.0, method=method, degree=degree)
    assert invert(DECAY, 1.0, method=method, degree=np.int64(24)) == invert(DECAY, 1.0, method=method, degree=24)


@pytest.mark.parametrize("method", ["talbot", "euler"])
def test_degree_below_one_rejected(method):
    for degree in (0, -3):
        with pytest.raises(ValueError, match=f"degree must be at least 1, got {degree}"):
            invert(DECAY, 1.0, method=method, degree=degree)


def test_invert_dispatch():
    assert invert(DECAY, 2.0, method="talbot") == pytest.approx(math.exp(-1.0), abs=1e-10)
    assert invert(DECAY, 2.0, method="euler") == pytest.approx(math.exp(-1.0), abs=1e-9)
    with pytest.raises(ValueError):
        invert(DECAY, 2.0, method="stehfest")
    for method in ("talbot", "euler"):
        got = invert(DECAY, GRID, method=method, check_tol=1e-6)
        assert isinstance(got, np.ndarray) and got.shape == GRID.shape
        assert isinstance(invert(DECAY, 2.0, method=method, check_tol=1e-6), float)


def test_methods_agree():
    for t in (0.5, 2.0, 20.0):
        assert talbot(DECAY, t) == pytest.approx(euler(DECAY, t), abs=1e-9)


def test_check_mode_passes_clean_transform():
    v = invert(DECAY, 1.0, check_tol=1e-6)
    assert v == pytest.approx(math.exp(-0.5), abs=1e-10)


def test_check_mode_flags_inconsistent_transform():
    # perturbation that varies with the quadrature nodes, so the two
    # evaluation orders cannot agree
    noisy = lambda s: DECAY(s) + 1e-3 * np.sin(123.456 * abs(s))
    with pytest.raises(InversionError) as exc_info:
        invert(noisy, 1.0, check_tol=1e-6)
    diag = exc_info.value.diagnostics
    assert diag["t"] == 1.0
    assert "value" in diag and "value_high_order" in diag


def test_check_mode_rejects_nan():
    # NaN compares false against any tolerance; the check must not let it by
    nan_transform = lambda s: DECAY(s) * np.nan
    assert math.isnan(invert(nan_transform, 1.0))
    for method in ("talbot", "euler"):
        with pytest.raises(InversionError, match="disagree at t=1.0: nan vs nan"):
            invert(nan_transform, 1.0, method=method, check_tol=1e-6)


def test_check_mode_names_first_failing_t_of_a_grid():
    # NaN wherever a node lies right of Re s = 5: the real Talbot node s = r
    # is 9.6/t at degree 24 and 13.2/t at degree 33, so t = 2 is the first
    # point of the grid where one order fails, and t = 1 fails at both
    clipped = lambda s: np.where(np.real(s) > 5.0, np.nan, DECAY(s))
    with pytest.raises(InversionError, match=r"orders 24/33 disagree at t=2\.0: ") as exc_info:
        invert(clipped, [5.0, 3.0, 2.0, 1.0], check_tol=1e-6)
    diag = exc_info.value.diagnostics
    assert diag["t"] == 2.0
    assert diag["value"] == pytest.approx(math.exp(-1.0), abs=1e-10)
    assert math.isnan(diag["value_high_order"])


def test_higher_degree_stays_accurate():
    # accuracy does not improve monotonically (round-off grows with the
    # contour size) but it must not collapse either
    err24 = abs(talbot(DECAY, 1.0, degree=24) - math.exp(-0.5))
    err40 = abs(talbot(DECAY, 1.0, degree=40) - math.exp(-0.5))
    assert err24 < 1e-11
    assert err40 < 1e-9
