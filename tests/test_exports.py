"""Every name a module exports in ``__all__`` exists."""

import importlib

import pytest

MODULES = [
    "crosszone",
    "crosszone.cli",
    "crosszone.config",
    "crosszone.dynamics",
    "crosszone.estimator",
    "crosszone.linalg",
    "crosszone.lp",
    "crosszone.model",
    "crosszone.scenario",
    "crosszone.svgplot",
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"
