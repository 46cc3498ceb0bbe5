"""The benchmark's trace (perfbench/tracing.py) rebinds ruinkit functions by
attribute name. A rename or a move in the package must fail here, not only
in a traced benchmark run."""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

from ruinkit import cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
EXP_MODEL = "lambda=1,theta=0.01,sigma=1,claims=exp:rate=1"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_binding_is_an_attribute_of_its_owner(tracing):
    assert tracing.BINDINGS
    for owner, attr, span, _ in tracing.BINDINGS:
        # installed() reads owner.__dict__[attr], so inherited names do not count
        assert attr in owner.__dict__, f"span {span}: {owner.__name__}.{attr} is gone"


def test_the_trace_sees_every_route(tracing):
    # a method table holding the functions it captured at import would
    # bypass the rebound names, and these counts would read 0
    model_u = ["--model", EXP_MODEL, "--u", "1,2"]
    argvs = [
        ["table", *model_u, "--methods", ",".join(cli._method_names("table")), "--lattice", "0.1"],
        ["errors", *model_u, "--methods", "4me", "--lattice", "0.1"],
    ] + [["approx", *model_u, "--method", m] for m in cli._method_names("approx")]
    tracer = tracing.Tracer()
    with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
        for argv in argvs:
            assert cli.main(argv) == 0
    calls = tracer.layer_totals({None})
    assert calls["cli.main.calls"] == len(argvs)
    assert calls["exact.exact_ruin.calls"] == 2  # table and errors
    assert calls["bounds.panjer_bounds.calls"] == 1
    assert calls["approx.calls"] == 6 + 1 + 6  # table's fits, errors' 4me, approx's fits
    assert calls["coefficients.adjustment_coefficient.calls"] == 2  # lundberg in table and approx
