"""Every exported name resolves: each module's __all__ and the package imports."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import qpolar

# every module but the entry points declares its exports
MODULES = sorted(
    m.name for m in pkgutil.iter_modules(qpolar.__path__) if m.name not in ("__main__", "cli")
)


@pytest.mark.parametrize("module", MODULES)
def test_module_all_resolves(module):
    mod = importlib.import_module(f"qpolar.{module}")
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


def test_package_imports_resolve():
    tree = ast.parse(pathlib.Path(qpolar.__file__).read_text())
    names = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert names
    assert [n for n in names if not hasattr(qpolar, n)] == []
