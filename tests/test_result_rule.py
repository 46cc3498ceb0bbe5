"""One result rule for every route and pointwise claim method: a scalar or
0-d argument gives a Python float (complex at a complex point), an array
keeps its shape and its order, and each value is the one the same points
give as one sorted 1-d array (so a complex scalar Gamma.mgf is its
one-element array's value). The rule lives in _kernels._like alone, as the
input rule of every scalar argument lives in _kernels._positive and _count
(tests/test_input_rule.py)."""

import ast
from pathlib import Path

import numpy as np
import pytest

import ruinkit
from ruinkit import (
    Exponential,
    Gamma,
    MixedExponential,
    PerturbedModel,
    euler,
    exact_ruin,
    invert,
    mixture_exact_ruin,
    panjer_bounds,
    relative_error,
    talbot,
)
from ruinkit.cli import _FITS

from conftest import MIX_RATES, MIX_WEIGHTS

POINTS = np.array([0.5, 1.0, 2.0, 3.0, 5.0, 8.0])
# a Python float, a 0-d array, an array, the same unsorted, and a 2-d array
INPUTS = {
    "float": float(POINTS[0]),
    "0-d": np.array(POINTS[1]),
    "(3,)": POINTS[:3],
    "unsorted": POINTS[[4, 0, 2]],
    "(2,3)": POINTS[[5, 1, 3, 0, 4, 2]].reshape(2, 3),
}

EXP = PerturbedModel(Exponential(1.0), lam=1.0, sigma=1.0, loading=0.1)


def _decay(s):
    return 1.0 / (s + 1.0)  # e^{-t}


ROUTES = {
    "exact_ruin": lambda u: exact_ruin(EXP, u),
    **{f"fit.{name}": lambda u, fit=fit: fit(EXP, u) for name, fit in _FITS.items()},
    "mixture_exact_ruin": lambda u: mixture_exact_ruin(1.0, 2.0, 1.0, MIX_WEIGHTS, MIX_RATES, u),
    "panjer_bounds.lower": lambda u: panjer_bounds(EXP, 0.1, u, "strict").lower,
    "panjer_bounds.upper": lambda u: panjer_bounds(EXP, 0.1, u, "strict").upper,
    "invert": lambda u: invert(_decay, u, method="euler", check_tol=1e-6),
    "talbot": lambda u: talbot(_decay, u),
    "euler": lambda u: euler(_decay, u),
    "relative_error": lambda u: relative_error(u, 1.0 + u),
}

LAWS = {
    "exp": Exponential(1.0),
    "gamma0.5": Gamma(0.5, 0.5),
    "mixture": MixedExponential(MIX_WEIGHTS, MIX_RATES),
}
POINTWISE = (
    "laplace",
    "equilibrium_laplace",
    "cdf",
    "tail",
    "integrated_tail",
    "upper_integrated_tail",
    "equilibrium_density",
    "h3_cdf",
    "h3_density",
)
# method -> map from the points to its arguments; "@complex" ones take complex points
METHODS = {
    "mgf": lambda x: -x,
    **{name: lambda x: x for name in POINTWISE},
    "mgf@complex": lambda x: x * (-1.0 + 1.0j),
    "laplace@complex": lambda x: x * (1.0 + 1.0j),
    "equilibrium_laplace@complex": lambda x: x * (1.0 - 1.0j),
}


def _law_method(law, name):
    method = getattr(LAWS[law], name.split("@")[0])
    return (lambda x: method(x, 2.0)) if name.startswith("h3_") else method


def _check(fn, x, kind):
    got = fn(x)
    order = np.argsort(np.ravel(x), kind="stable")
    sorted_values = np.asarray(fn(np.ravel(x)[order]))
    if np.ndim(x) == 0:
        assert type(got) is kind
    else:
        assert isinstance(got, np.ndarray) and got.shape == np.shape(x)
    want = np.empty_like(sorted_values)
    want[order] = sorted_values  # back in x's order
    np.testing.assert_array_equal(np.ravel(got), want)


@pytest.mark.parametrize("given", INPUTS)
@pytest.mark.parametrize("route", ROUTES)
def test_every_route_returns_psi_in_u_shape(route, given):
    _check(ROUTES[route], INPUTS[given], float)


@pytest.mark.parametrize("given", INPUTS)
@pytest.mark.parametrize("name", METHODS)
@pytest.mark.parametrize("law", LAWS)
def test_every_pointwise_method_returns_values_in_x_shape(law, name, given):
    x = INPUTS[given]
    args = METHODS[name](x)
    if isinstance(x, np.ndarray):
        args = np.asarray(args)  # arithmetic on a 0-d array gives a numpy scalar
    _check(_law_method(law, name), args, complex if name.endswith("@complex") else float)


def _rule_copies(path):
    """np.isscalar, np.ndim, .item() and [()] outside _kernels._like."""
    tree = ast.parse(path.read_text())
    allowed = set()
    if path.name == "_kernels.py":
        like = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_like")
        allowed = {id(n) for n in ast.walk(like)}
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if isinstance(node, ast.Attribute) and node.attr in ("isscalar", "ndim"):
            if isinstance(node.value, ast.Name) and node.value.id == "np":
                yield f"{path.name}:{node.lineno}: np.{node.attr}"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "item" and not node.args:
                yield f"{path.name}:{node.lineno}: .item()"
        elif isinstance(node, ast.Subscript):
            if isinstance(node.slice, ast.Tuple) and not node.slice.elts:
                yield f"{path.name}:{node.lineno}: [()]"


def test_the_result_rule_lives_in_like_alone():
    src = Path(ruinkit.__file__).resolve().parent
    copies = [line for path in sorted(src.rglob("*.py")) for line in _rule_copies(path)]
    assert copies == []
    named = [path.name for path in sorted(src.parent.rglob("*.py")) if "RuinCurve" in path.read_text()]
    assert named == []


def _input_rule_copies(path):
    """isinstance(..., bool), a check's message or an old check's name."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
            kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else node.args[1:]
            if any(isinstance(kind, ast.Name) and kind.id == "bool" for kind in kinds):
                yield f"{path.name}:{node.lineno}: isinstance(..., bool)"
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if "must be finite and" in node.value or "must be an integer" in node.value:
                yield f"{path.name}:{node.lineno}: {node.value!r}"
        name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
        if name in ("_check_parameter", "_check_width"):
            yield f"{path.name}:{node.lineno}: {name}"


def test_the_input_rule_lives_in_the_two_helpers_alone():
    # every scalar check is _kernels._positive or _kernels._count, beside _points
    src = Path(ruinkit.__file__).resolve().parent
    copies = [line for path in sorted(src.rglob("*.py")) if path.name != "_kernels.py" for line in _input_rule_copies(path)]
    assert copies == []
