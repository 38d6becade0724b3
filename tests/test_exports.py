import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

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


def test_gramian_power_bound_lives_in_bounds():
    assert d.gramian_power_bound is d.bounds.gramian_power_bound
    assert not hasattr(d.lyapunov, "gramian_power_bound")


def test_no_model_lyapunov_import_cycle():
    lyapunov = ast.parse(inspect.getsource(d.lyapunov))
    assert not [n for n in ast.walk(lyapunov) if isinstance(n, ast.ImportFrom) and n.module == "model"]
    model = ast.parse(inspect.getsource(d.model))
    local = [
        n
        for f in ast.walk(model)
        if isinstance(f, ast.FunctionDef)
        for n in ast.walk(f)
        if isinstance(n, (ast.Import, ast.ImportFrom))
    ]
    assert not local


def test_every_public_exception_is_raised_somewhere():
    # a public exception must not outlive its last raise site: each one is
    # called (instantiated) somewhere in the package source
    exceptions = {
        name
        for name in d.__all__
        if isinstance(getattr(d, name), type) and issubclass(getattr(d, name), d.DrclqrError)
    } - {"DrclqrError"}
    called = set()
    for path in Path(d.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                called.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
    assert exceptions and not sorted(exceptions - called)


def _private_uses(name, tree):
    """(importer, module, name) for every underscore name taken from a sibling module."""
    aliases, uses = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:  # from . import bounds as bounds_mod
                    aliases[alias.asname or alias.name] = alias.name
                elif alias.name.startswith("_"):
                    uses.add((name, node.module, alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            if node.attr.startswith("_") and not node.attr.startswith("__"):
                uses.add((name, aliases[node.value.id], node.attr))
    return uses


def test_no_module_reaches_into_another_modules_private_names():
    uses = set()
    for path in Path(d.__file__).parent.glob("*.py"):
        uses |= _private_uses(path.stem, ast.parse(path.read_text()))
    assert uses == set()


def _linalg_cholesky_uses(tree):
    """Line numbers of every ``<x>.linalg.cholesky`` and ``from numpy.linalg import cholesky``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "cholesky":
            if isinstance(node.value, ast.Attribute) and node.value.attr == "linalg":
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            lines.extend(node.lineno for alias in node.names if alias.name == "cholesky")
    return lines


def test_only_model_factors_by_cholesky():
    # model.cholesky is the one refusal of a matrix that is not positive
    # definite: every other module factors through it, so every refusal
    # raises NotPositiveDefinite with its lambda_min estimate
    uses = {
        path.stem: lines
        for path in Path(d.__file__).parent.glob("*.py")
        if (lines := _linalg_cholesky_uses(ast.parse(path.read_text())))
    }
    assert uses.keys() == {"model"}
