"""One input rule for every scalar argument: _kernels._positive for one finite
number above 0 (or at least 0), _kernels._count for an integer in a range.
A bool, a string, None, a complex number, an array of more than one element,
NaN, infinity and the first value past the range are refused with a
ValueError whose message starts with the argument's name; the numpy
spellings of an accepted value give bitwise the result of the Python one.
The CLI flags read the same helpers and exit 1 with their message."""

import dataclasses
from typing import Callable, NamedTuple

import numpy as np
import pytest

from ruinkit import (
    Exponential,
    Gamma,
    MixedExponential,
    PerturbedModel,
    SimConfig,
    decompose_ruin,
    discretize_ladder,
    euler,
    invert,
    lundberg_bound,
    panjer_bounds,
    simulate_ruin,
    talbot,
)
from ruinkit.approx import pkdv_coefficients
from ruinkit.cli import main

EXP = Exponential(1.0)
MODEL = PerturbedModel(EXP, lam=1.0, sigma=1.0, loading=0.1)
WIDE = PerturbedModel(EXP, lam=1.0, sigma=2.0, loading=0.1)  # tau = 0.55: a step of 2 marches
POINTS = np.array([0.5, 1.0, 2.0])


def _decay(s):
    return 1.0 / (s + 1.0)  # e^{-t}


def _simulate(**given):
    config = {"u": 1.0, "n_paths": 20, "seed": 3, "horizon": 5.0, **given}
    return simulate_ruin(SimConfig(PerturbedModel(EXP, lam=1.0, sigma=1.0, loading=1.0), **config))


class Arg(NamedTuple):
    call: Callable  # the route run with the argument at the given value
    name: str  # the start of every message that refuses it
    good: float | int  # an accepted value; a float takes _positive, an int _count
    outside: tuple  # the first values past its range
    optional: bool = False  # None means not given


ARGS = {
    "Gamma.shape": Arg(lambda v: Gamma(v, 1.0).tail(POINTS), "shape", 2.0, (0,)),
    "Gamma.rate": Arg(lambda v: Gamma(2.0, v).tail(POINTS), "rate", 2.0, (0,)),
    "MixedExponential.weights": Arg(lambda v: MixedExponential((v,), (1.0,)).tail(POINTS), "weight", 1.0, (0,)),
    "MixedExponential.rates": Arg(lambda v: MixedExponential((1.0,), (v,)).tail(POINTS), "rate", 2.0, (0,)),
    "raw_moment.k": Arg(lambda k: Gamma(2.0, 1.0).raw_moment(k), "moment order", 2, (0, 6)),
    "h3_density.tau": Arg(lambda v: EXP.h3_density(POINTS, v), "tau", 2.0, (0,)),
    "PerturbedModel.lam": Arg(
        lambda v: PerturbedModel(EXP, lam=v, sigma=1.0, loading=0.1).central_moments(1.0, 1.0),
        "claim intensity lam", 2.0, (0,),
    ),
    "PerturbedModel.sigma": Arg(
        lambda v: PerturbedModel(EXP, lam=1.0, sigma=v, loading=0.1).central_moments(1.0, 1.0), "sigma", 2.0, (-1,)
    ),
    "PerturbedModel.loading": Arg(
        lambda v: PerturbedModel(EXP, lam=1.0, sigma=1.0, loading=v).central_moments(1.0, 1.0),
        "loading", 2.0, (0,), True,
    ),
    "PerturbedModel.premium_rate": Arg(
        lambda v: PerturbedModel(EXP, lam=1.0, sigma=1.0, premium_rate=v).central_moments(1.0, 1.0),
        "premium_rate", 2.0, (0,), True,
    ),
    "central_moments.u": Arg(lambda v: MODEL.central_moments(v, 1.0), "u", 2.0, (-1,)),
    "central_moments.t": Arg(lambda v: MODEL.central_moments(1.0, v), "t", 2.0, (0,)),
    "discretize_ladder.lattice_width": Arg(lambda v: discretize_ladder(MODEL, v, 3), "lattice_width", 2.0, (0,)),
    "discretize_ladder.n_points": Arg(lambda n: discretize_ladder(MODEL, 0.5, n), "n_points", 2, (0,)),
    "panjer_bounds.lattice_width": Arg(lambda v: panjer_bounds(MODEL, v, POINTS), "lattice_width", 2.0, (0,)),
    "decompose_ruin.u_max": Arg(lambda v: decompose_ruin(WIDE, v, step=0.5), "u_max", 2.0, (0,)),
    "decompose_ruin.step": Arg(lambda v: decompose_ruin(WIDE, 4.0, step=v), "step", 2.0, (0,)),
    "decompose_ruin.refine": Arg(lambda n: decompose_ruin(WIDE, 2.0, step=0.5, refine=n), "refine", 2, (0,)),
    "SimConfig.u": Arg(lambda v: _simulate(u=v), "initial surplus u", 2.0, (-1,)),
    "SimConfig.n_paths": Arg(lambda n: _simulate(n_paths=n), "n_paths", 2, (0,)),
    "SimConfig.seed": Arg(lambda n: _simulate(seed=n), "seed", 2, (-1, 2**64)),
    "SimConfig.horizon": Arg(lambda v: _simulate(horizon=v), "horizon", 2.0, (0,), True),
    "talbot.degree": Arg(lambda n: talbot(_decay, POINTS, n), "inversion degree", 2, (0,)),
    "euler.degree": Arg(lambda n: euler(_decay, POINTS, n), "inversion degree", 2, (0,)),
    "invert.degree": Arg(lambda n: invert(_decay, POINTS, degree=n), "inversion degree", 2, (0,), True),
    "pkdv_coefficients.order": Arg(lambda n: pkdv_coefficients(MODEL, n), "order", 3, (2, 6)),
    "lundberg_bound.R": Arg(lambda v: lundberg_bound(MODEL, POINTS, R=v), "R", 2.0, (0,), True),
}
REFUSED = (True, np.True_, "2", None, 1 + 0j, np.array([1.0, 2.0]), np.nan, np.inf)


@pytest.mark.parametrize("name", ARGS)
def test_every_bad_value_is_refused_by_name(name):
    arg = ARGS[name]
    for value in REFUSED + arg.outside:
        if value is None and arg.optional:
            continue
        with pytest.raises(ValueError) as info:
            arg.call(value)
        assert str(info.value).startswith(f"{arg.name} must be "), (value, str(info.value))


def _bits(value):
    """value's types and bytes, through tuples and dataclass fields."""
    if dataclasses.is_dataclass(value):
        value = [getattr(value, field.name) for field in dataclasses.fields(value)]
    if isinstance(value, (tuple, list)):
        return [_bits(v) for v in value]
    return type(value).__name__, np.asarray(value).tobytes()


@pytest.mark.parametrize("name", ARGS)
def test_numpy_spellings_give_the_python_result(name):
    arg = ARGS[name]
    if isinstance(arg.good, float):
        whole = int(arg.good)
        spellings = (whole, np.int64(whole), np.float64(arg.good), np.array(arg.good))
    else:
        spellings = (np.int64(arg.good),)
    want = _bits(arg.call(arg.good))
    for value in spellings:
        assert _bits(arg.call(value)) == want, value


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["exact", "--u", "1", "--precision"], "precision"),
        (["exact", "--u", "1", "--degree"], "--degree"),
        (["bounds", "--u", "1", "--lattice"], "--lattice"),
        (["decompose", "--umax"], "--umax"),
        (["decompose", "--umax", "1", "--step"], "--step"),
    ],
)
def test_flags_take_the_same_rule(argv, flag, capsys):
    integer = flag in ("precision", "--degree")
    for value in ("0", "-1") if integer else ("0", "-1", "nan", "inf"):
        assert main([*argv, value, "--model", "lambda=1,theta=0.1,sigma=1,claims=exp:rate=1"]) == 1
        rule, got = ("at least 1", int(value)) if integer else ("finite and positive", float(value))
        assert capsys.readouterr().err == f"error: {flag} must be {rule}, got {got!r}\n"
