"""The benchmark's trace (perfbench/tracing.py) rebinds ruinkit functions by
attribute name. A rename or a move in the package must fail here, not only
in a traced benchmark run."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_trace_binding_is_an_attribute_of_its_owner():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.BINDINGS
    for owner, attr, span, _ in tracing.BINDINGS:
        # installed() reads owner.__dict__[attr], so inherited names do not count
        assert attr in owner.__dict__, f"span {span}: {owner.__name__}.{attr} is gone"
