"""Every name a uban module lists in __all__ exists in that module, and every
public name one uban module imports from another is listed there."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import uban

MODULES = [importlib.import_module(f"uban.{info.name}")
           for info in pkgutil.iter_modules(uban.__path__)]


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_imported_names_are_exported(module):
    imports = [node for node in ast.walk(ast.parse(inspect.getsource(module)))
               if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module]
    assert [f"{node.module}.{a.name}" for node in imports for a in node.names
            if not a.name.startswith("_")
            and a.name not in importlib.import_module(f"uban.{node.module}").__all__] == []
