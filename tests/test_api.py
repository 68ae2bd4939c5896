"""Public API: every name a module exports resolves."""

import importlib
import pkgutil

import pytest

import brlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(brlab.__path__, "brlab."))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists undefined names: {missing}"
