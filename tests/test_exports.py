"""Every name a uban module lists in __all__ exists in that module."""

import importlib
import pkgutil

import pytest

import uban

MODULES = [m for m in (importlib.import_module(f"uban.{info.name}")
                       for info in pkgutil.iter_modules(uban.__path__))
           if hasattr(m, "__all__")]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
