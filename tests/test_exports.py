import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import drclqr as d
from conftest import SYSTEMS_DIR
from drclqr.cli import load_system_file, run_sweep
from numpy.random import default_rng
from oracles import scaled_orthogonal, system_with_dynamics

MODULES = sorted(m.name for m in pkgutil.iter_modules(d.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_are_defined(name):
    module = importlib.import_module(f"drclqr.{name}")
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert not missing


def test_package_all_resolves():
    assert not [attr for attr in d.__all__ if not hasattr(d, attr)]


def test_every_package_name_is_its_home_modules_binding():
    homes = {name: importlib.import_module(getattr(d, name).__module__) for name in d.__all__}
    assert not [name for name, home in homes.items() if getattr(d, name) is not getattr(home, name)]


def test_package_names_are_looked_up_anew_on_every_access(monkeypatch):
    # perfbench's tracer patches the home modules and restores them; a value
    # cached in the package would outlive the patch or miss it
    original = d.drc.assemble

    def spy(*args, **kwargs):
        return original(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(d.drc, "assemble", spy)
        assert d.assemble is spy
    assert d.assemble is original
    assert "assemble" not in vars(d)


def test_package_dir_star_import_and_submodules():
    assert set(d.__all__) <= set(dir(d))
    namespace = {}
    exec("from drclqr import *", namespace)
    assert not [name for name in d.__all__ if namespace.get(name) is not getattr(d, name)]
    assert not [m for m in MODULES if d.__getattr__(m) is not importlib.import_module(f"drclqr.{m}")]
    with pytest.raises(AttributeError, match="no_such_name"):
        d.no_such_name


def test_the_cli_calls_the_solver_its_home_module_binds_now(monkeypatch, capsys):
    real, calls = d.riccati.solve_dare, []

    def spy(sys_):
        calls.append(sys_)
        return real(sys_)

    monkeypatch.setattr(d.riccati, "solve_dare", spy)
    assert d.cli.dispatch(["sweep", str(SYSTEMS_DIR / "demo3x3.json"), "--h-max", "3"]) == 0
    assert capsys.readouterr().out.startswith("H,")
    assert len(calls) == 1


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


def _k0_raises(path):
    """(module, function, whether K0 is a name there) for every raise whose message names K0."""
    found = []
    for func in ast.walk(ast.parse(path.read_text())):
        if not isinstance(func, ast.FunctionDef):
            continue
        names = {a.arg for a in func.args.args + func.args.kwonlyargs} | {
            n.id for n in ast.walk(func) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
        }
        for node in ast.walk(func):
            if isinstance(node, ast.Raise) and node.exc is not None:
                text = [c.value for c in ast.walk(node.exc) if isinstance(c, ast.Constant) and isinstance(c.value, str)]
                if any("K0" in t for t in text):
                    found.append((path.stem, func.name, "K0" in names))
    return found


def test_only_code_that_holds_a_k0_names_it_in_an_error():
    # an error that asks for a K0 is raised where a K0 is known: the system
    # file's reader and the pre-stabilizer, never a routine that takes none
    raises = [r for path in Path(d.__file__).parent.glob("*.py") for r in _k0_raises(path)]
    assert raises
    assert {module for module, _, _ in raises} <= {"cli", "prestabilize"}
    assert [(module, func) for module, func, knows_k0 in raises if not knows_k0] == []


def _callers_of(names):
    """{module: sorted called names} for every package module that calls one of ``names``."""
    callers = {}
    for path in Path(d.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called in names:
                    callers.setdefault(path.stem, set()).add(called)
    return {module: sorted(called) for module, called in callers.items()}


def test_no_module_solves_or_prices_through_the_dense_system():
    # solve_drc and cost_of_drc serve the paper's equation, the tests and the
    # benchmark: every command reads the order-H optimum off the Riccati
    # recursion (order_gaps, optimal_drc) and factors no M
    assert _callers_of({"solve_drc", "cost_of_drc"}) == {}


def _linalg_uses(tree, func):
    """Line numbers of every ``<x>.linalg.<func>`` and ``from numpy.linalg import <func>``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == func:
            if isinstance(node.value, ast.Attribute) and node.value.attr == "linalg":
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            lines.extend(node.lineno for alias in node.names if alias.name == func)
    return lines


def _modules_using(func):
    return {
        path.stem
        for path in Path(d.__file__).parent.glob("*.py")
        if _linalg_uses(ast.parse(path.read_text()), func)
    }


def test_only_model_factors_by_cholesky():
    # model.cholesky is the one refusal of a matrix that is not positive
    # definite: every other module factors through it, so every refusal
    # raises NotPositiveDefinite with its lambda_min estimate
    assert _modules_using("cholesky") == {"model"}


def test_only_lyapunov_takes_eigenvalues():
    # lyapunov.spectral_radius is the one eigenvalue pass: every radius in
    # the package is its single eigvals call
    assert _modules_using("eigvals") == {"lyapunov"}


def _two_norm_calls(tree):
    """Line numbers of every ``<x>.linalg.norm`` call whose ord is 2, positional or keyword."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _linalg_uses(node.func, "norm"):
            ords = node.args[1:2] + [k.value for k in node.keywords if k.arg == "ord"]
            if any(isinstance(o, ast.Constant) and o.value == 2 for o in ords):
                lines.append(node.lineno)
    return lines


def test_only_model_takes_singular_values():
    # model.spectral_norm is the one singular-value kernel: no other module
    # calls svd, or norm with ord 2, which makes the same LAPACK call
    trees = {path.stem: ast.parse(path.read_text()) for path in Path(d.__file__).parent.glob("*.py")}
    assert {name for name, tree in trees.items() if _linalg_uses(tree, "svd") or _two_norm_calls(tree)} == {"model"}
    assert not [name for name, tree in trees.items() if _two_norm_calls(tree)]


@pytest.fixture
def cholesky_inputs(monkeypatch):
    """Every matrix handed to model.cholesky, by every module that imports it."""
    real, seen = d.model.cholesky, []

    def spy(M, what):
        seen.append((what, np.array(M)))
        return real(M, what)

    for name in MODULES:
        module = importlib.import_module(f"drclqr.{name}")
        if getattr(module, "cholesky", None) is real:
            monkeypatch.setattr(module, "cholesky", spy)
    return seen


def test_cholesky_receives_exactly_symmetric_matrices(cholesky_inputs):
    # model.cholesky reads only the lower triangle, so each caller must make
    # its matrix symmetric where it builds it; the system files have one
    # input, so a three-input plant gives R and R + B'PB off-diagonal entries
    rng = default_rng(24)
    three_inputs = system_with_dynamics(rng, scaled_orthogonal(rng, 4, 0.9), 3)
    for sys_ in (d.load_system(SYSTEMS_DIR / "demo3x3.json"), three_inputs):
        sol = d.solve_dare(sys_)  # the README pipeline
        G = d.gramian(sys_.A, sys_.Q)
        policy = d.solve_drc(d.assemble(sys_, G, H=10))
        d.BoundInputs.from_system(sys_, sol.K, d.joint_certificate(sys_.A, sys_.A + sys_.B @ sol.K))
        d.cost_of_drc(sys_, G, policy)
    for path in sorted(SYSTEMS_DIR.glob("*.json")):
        d.solve_dare(d.load_system(path))
    unstable, K0 = load_system_file(SYSTEMS_DIR / "scalar_unstable.json")
    run_sweep(d.transform(unstable, K0).transformed, 10)
    assert {what for what, _ in cholesky_inputs} == {"R", "R + B'PB", "assembled M", "joint weight block"}
    assert not [what for what, M in cholesky_inputs if not np.array_equal(M, M.T)]


def _transposed_product_operands(func):
    """(loops, line numbers) of the ``for`` loops in ``func`` and of every ``@`` in them with an operand ``<x>.T``."""
    loops = [node for node in ast.walk(func) if isinstance(node, ast.For)]
    lines = [
        node.lineno
        for loop in loops
        for node in ast.walk(loop)
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.MatMult)
        and any(isinstance(o, ast.Attribute) and o.attr == "T" for o in (node.left, node.right))
    ]
    return loops, lines


def test_the_rollout_block_loop_multiplies_no_transposed_view():
    # OpenBLAS runs the block loop's skinny products 1.5-2x slower on a
    # transposed view: simulate copies F', the L_k' and B' once, before it
    loops, lines = _transposed_product_operands(ast.parse(inspect.getsource(d.cost.simulate)))
    assert loops and lines == []
