"""The public surface: each module's ``__all__`` and the package's exports."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import fredsolve

MODULES = sorted(m.name for m in pkgutil.iter_modules(fredsolve.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_star_import_gives_every_name_in_all(name):
    module = importlib.import_module(f"fredsolve.{name}")
    namespace = {}
    exec(f"from fredsolve.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def _package_imports():
    tree = ast.parse(pathlib.Path(fredsolve.__file__).read_text())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def test_package_exports_only_names_in_their_modules_all():
    imports = _package_imports()
    assert {module for module, _ in imports} <= set(MODULES)
    stale = [f"{module}.{name}" for module, name in imports
             if name not in importlib.import_module(f"fredsolve.{module}").__all__]
    assert stale == []
