import importlib
import pkgutil

import pytest

import drclqr as d

MODULES = sorted(m.name for m in pkgutil.iter_modules(d.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_are_defined(name):
    module = importlib.import_module(f"drclqr.{name}")
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert not missing


def test_package_all_resolves():
    assert not [attr for attr in d.__all__ if not hasattr(d, attr)]
