import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.random import default_rng

import drclqr as d
from conftest import SYSTEMS_DIR
from drclqr import riccati
from drclqr.cli import load_system_file
from oracles import random_system, scipy_dare, sda_iterations, value_iteration_dare


def scalar_system(a=0.5, b=1.0, q=1.0, r=1.0, s=0.0):
    return d.LQRSystem(A=[[a]], B=[[b]], Q=[[q]], R=[[r]], S=[[s]])


def test_memoryless_plant_gain_vanishes():
    sol = d.solve_dare(scalar_system(a=0.0))
    assert sol.P[0, 0] == pytest.approx(1.0, abs=1e-14)
    assert abs(sol.K[0, 0]) <= 1e-14


def test_scalar_closed_form():
    # P solves P^2 - P/4 - 1 = 0, so P = (1/4 + sqrt(1/16 + 4)) / 2
    sol = d.solve_dare(scalar_system(a=0.5))
    P_exact = (0.25 + np.sqrt(0.0625 + 4.0)) / 2.0
    K_exact = -(0.5 * P_exact) / (1.0 + P_exact)
    assert sol.P[0, 0] == pytest.approx(P_exact, rel=1e-12)
    assert sol.K[0, 0] == pytest.approx(K_exact, rel=1e-12)
    assert sol.iterations > 0


def test_demo_matches_value_iteration(demo_system, demo_solution):
    P_vi, K_vi = value_iteration_dare(demo_system, steps=200)
    assert np.linalg.norm(demo_solution.K - K_vi, 2) <= 1e-8
    assert np.linalg.norm(demo_solution.P - P_vi, 2) <= 1e-8 * (1 + np.linalg.norm(P_vi, 2))


def test_gain_recomputed_from_p_matches(demo_system, demo_solution):
    sys_, P = demo_system, demo_solution.P
    K = -np.linalg.solve(sys_.R + sys_.B.T @ P @ sys_.B, sys_.B.T @ P @ sys_.A + sys_.S)
    assert np.linalg.norm(K - demo_solution.K, 2) <= 1e-12


def test_residual_within_tolerance_budget(demo_system, demo_solution):
    tol = 1e-12
    res = d.dare_residual(demo_solution.P, demo_system)
    assert res == demo_solution.residual_norm
    assert res <= 10 * tol * (1 + np.linalg.norm(demo_solution.P, 2))


def test_residual_trivial_cases():
    assert d.dare_residual([[1.0]], scalar_system(a=0.0)) == 0.0
    # P = 0 reduces the defect to Q itself
    assert d.dare_residual([[0.0]], scalar_system(a=0.5)) == pytest.approx(1.0, abs=1e-15)


def test_random_systems_stable_and_consistent():
    rng = default_rng(21)
    for _ in range(20):
        sys_ = random_system(rng)
        sol = d.solve_dare(sys_)
        assert d.spectral_radius(sys_.A + sys_.B @ sol.K) < 1.0
        assert sol.residual_norm <= 1e-9 * (1 + np.linalg.norm(sol.P, 2))
        assert np.linalg.eigvalsh(sol.P)[0] >= -1e-10
        assert np.array_equal(sol.P, sol.P.T)


def _rel_error(sys_):
    P = scipy_dare(sys_)
    return np.linalg.norm(d.solve_dare(sys_).P - P, 2) / np.linalg.norm(P, 2)


@st.composite
def near_marginal_systems(draw):
    """random_system weights (cross term S != 0) around an A with spectral radius in [0.99, 0.9995]."""
    rng = default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_system(rng, sr_range=(0.99, 0.9995))


@settings(max_examples=40, deadline=None)
@given(sys_=near_marginal_systems())
@example(sys_=scalar_system(a=0.999, b=0.01))
# doubling alone ends 1.05e-12 off here; the closing Newton step brings it to 1e-14
@example(sys_=random_system(default_rng(8), sr_range=(0.99, 0.9995)))
def test_near_marginal_matches_scipy(sys_):
    assert _rel_error(sys_) <= 1e-12


def test_doubling_step_count(demo_system, demo_solution):
    # doubling step k covers 2^k steps of a plain fixed-point iteration, which
    # needed 112 steps on the demo and 1210 on the near-marginal scalar
    assert demo_solution.iterations <= 10
    assert d.solve_dare(scalar_system(a=0.999, b=0.01)).iterations <= 15


def _file_problems(path):
    sys_, K0 = load_system_file(path)
    return [sys_] if K0 is None else [sys_, d.transform(sys_, K0).transformed]


@pytest.mark.parametrize("path", sorted(SYSTEMS_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_step_count_follows_the_max_entry_rule_on_system_files(path):
    for problem in _file_problems(path):
        assert d.solve_dare(problem).iterations == sda_iterations(problem)


def test_step_count_follows_the_max_entry_rule_near_marginal():
    rng = default_rng(97)
    for _ in range(120):
        sys_ = random_system(rng, sr_range=(0.9, 0.9995))
        assert d.solve_dare(sys_).iterations == sda_iterations(sys_)


@pytest.mark.parametrize("step_tol", [1e-8, 1e-16])
def test_gain_does_not_depend_on_the_stop_constant(step_tol, monkeypatch):
    # the Newton step after the doubling fixes K, so a looser or tighter stop
    # constant ends at the same gain: the reason the rule has no knob
    rng = default_rng(131)
    problems = [p for path in sorted(SYSTEMS_DIR.glob("*.json")) for p in _file_problems(path)]
    problems += [random_system(rng, sr_range=(0.99, 0.9995)) for _ in range(120)]
    gains = [d.solve_dare(problem).K for problem in problems]
    monkeypatch.setattr(riccati, "_STEP_TOL", step_tol)
    for problem, K in zip(problems, gains):
        assert np.linalg.norm(d.solve_dare(problem).K - K, 2) <= 1e-12 * np.linalg.norm(K, 2)


@pytest.mark.parametrize("path", sorted(SYSTEMS_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_two_riccati_steps_per_solve(path, monkeypatch):
    # one step prices the doubling's gain, one at the final P gives both K
    # and the residual
    calls = []
    real = riccati._dare_step
    monkeypatch.setattr(riccati, "_dare_step", lambda sys_, P: calls.append(P) or real(sys_, P))
    for problem in _file_problems(path):
        calls.clear()
        sol = d.solve_dare(problem)
        assert len(calls) == 2
        assert sol.residual_norm == d.dare_residual(sol.P, problem)


@pytest.mark.parametrize("path", sorted(SYSTEMS_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_gramian_is_a_symmetric_array(path, monkeypatch):
    # the Newton step is the one symmetric Stein route: P = gramian(F, stage
    # weight) for the gain the first Riccati step returns
    gains = []
    real = riccati._dare_step

    def spy(sys_, P):
        P_next, K = real(sys_, P)
        gains.append(K)
        return P_next, K

    monkeypatch.setattr(riccati, "_dare_step", spy)
    for problem in _file_problems(path):
        if d.spectral_radius(problem.A) < 1.0:  # an unstable plant has no Gramian
            G = d.gramian(problem.A, problem.Q)
            assert type(G) is np.ndarray
            assert np.array_equal(G, G.T)
        gains.clear()
        sol = d.solve_dare(problem)
        K = gains[0]
        F = problem.A + problem.B @ K
        weight = problem.Q + K.T @ problem.R @ K + problem.S.T @ K + K.T @ problem.S
        assert np.array_equal(sol.P, d.gramian(F, weight))


def test_unstabilizable_pair_raises():
    unreachable = d.LQRSystem(A=[[1.5]], B=[[0.0]], Q=[[1.0]], R=[[1.0]], S=[[0.0]])
    with pytest.raises(d.NoConvergence):
        d.solve_dare(unreachable)


def test_doubling_cap_raises_no_convergence(demo_system, monkeypatch):
    # demo3x3 needs 8 doubling steps
    monkeypatch.setattr(riccati, "_DOUBLING_CAP", 2)
    with pytest.raises(d.NoConvergence, match="cap of 2 steps"):
        d.solve_dare(demo_system)


def test_indefinite_inner_matrix_raises():
    # P = -10 makes R + B'PB = -9 on the scalar system
    with pytest.raises(d.NotPositiveDefinite, match=r"R \+ B'PB") as info:
        d.dare_residual([[-10.0]], scalar_system(a=0.5))
    assert info.value.lambda_min == pytest.approx(-9.0)
