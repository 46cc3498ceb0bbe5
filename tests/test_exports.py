"""The package namespace re-exports each public name from the module that
declares it public."""

import ast
import importlib
from pathlib import Path

import ruinkit


def _reexports() -> dict[str, str]:
    """name -> submodule for every `from .module import name` in ruinkit/__init__.py."""
    tree = ast.parse(Path(ruinkit.__file__).read_text())
    return {
        alias.asname or alias.name: node.module
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def test_every_exported_name_is_public_where_it_comes_from():
    sources = _reexports()
    for name in ruinkit.__all__:
        if name == "__version__":
            continue
        assert name in sources, f"{name} is in ruinkit.__all__ but not imported from a submodule"
        module = importlib.import_module(f"ruinkit.{sources[name]}")
        assert name in module.__all__, f"{name} is missing from ruinkit.{sources[name]}.__all__"
