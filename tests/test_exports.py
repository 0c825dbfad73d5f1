"""The export lists name what the package really holds.

A deleted function must leave no name behind in a module's ``__all__``
or in the package's, and the package's list must stay the names its
``__init__`` imports.
"""

import ast
import importlib
import pathlib

import pytest

import fermiselect

MODULES = ("pauli", "circuit_ir", "gadgets", "select_synth", "simulator", "resources")


@pytest.mark.parametrize("module", ["__init__", *MODULES])
def test_every_exported_name_resolves(module):
    m = fermiselect if module == "__init__" else importlib.import_module(f"fermiselect.{module}")
    assert len(set(m.__all__)) == len(m.__all__)
    for name in m.__all__:
        assert hasattr(m, name), f"{module}.__all__ names missing {name!r}"


def test_package_exports_what_it_imports():
    tree = ast.parse(pathlib.Path(fermiselect.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert set(fermiselect.__all__) == imported | {"__version__"}
