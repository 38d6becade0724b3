"""End-to-end acceptance gate.

Each test here checks one numbered release criterion at its stated tolerance;
the terminal summary (see conftest) prints one PASS/FAIL line per criterion.
Criteria are deliberately re-stated with inline constants rather than
imported ones, so a regression in a default cannot silently weaken the gate.

Criterion 8 is split into three tests.  Its positive-semidefinite domination
clause is false as stated: the covariance exceeds the closed-form lower bound
in the (1,1) entry that drives the blow-up, which is what the witness's
``holds`` reports, but full PSD domination fails for some policies, and the
first test exhibits one.  The two companion clauses - geometric trace growth
and the overflowing rollout - pass and carry the substance of the claim.
"""

import time

import numpy as np
import pytest
from numpy.random import default_rng

import drclqr as d
from drclqr.cli import run_sweep
from oracles import (
    random_system,
    random_unstable_system,
    value_iteration_dare,
)


def scalar_system(a=0.5, b=1.0, q=1.0, r=1.0, s=0.0):
    return d.LQRSystem(A=[[a]], B=[[b]], Q=[[q]], R=[[r]], S=[[s]])


# -- 1: bundled-system sweep: bounds hold, decay is exponential, and fast ----

def test_criterion_1_sweep_decay_and_bounds(demo_system):
    t0 = time.perf_counter()
    result = run_sweep(demo_system, 30)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"sweep took {elapsed:.2f}s"

    assert len(result.err_L1_K) == 30
    assert np.all(result.err_L1_K <= result.bound_thm1)
    assert np.all((-1e-9 <= result.cost_gap) & (result.cost_gap <= result.bound_perf))
    gaps = result.cost_gap
    assert all(nxt <= cur + 1e-9 for cur, nxt in zip(gaps, gaps[1:]))

    hs = np.arange(5, 31, dtype=float)
    errs = result.err_L1_K[4:30]
    slope = float(np.polyfit(hs, np.log(errs), 1)[0])
    assert slope <= -0.8 * result.rho


# -- 2: the Riccati solver against a value-iteration oracle, at scale --------

def test_criterion_2_dare_random_batch():
    rng = default_rng(12345)
    t0 = time.perf_counter()
    for _ in range(100):
        sys_ = random_system(rng, n_max=6, m_max=3, sr_range=(0.285, 0.95))
        sol = d.solve_dare(sys_)
        assert d.dare_residual(sol.P, sys_) <= 1e-9 * (1 + np.linalg.norm(sol.P, 2))
        assert d.spectral_radius(sys_.A + sys_.B @ sol.K) < 1.0
        _, K_vi = value_iteration_dare(sys_, steps=200)
        assert np.linalg.norm(sol.K - K_vi, 2) <= 1e-7
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"batch took {elapsed:.2f}s"


# -- 3: scalar closed forms ---------------------------------------------------

def test_criterion_3_memoryless_scalar_is_exactly_zero():
    sys_ = scalar_system(a=0.0)
    sol = d.solve_dare(sys_)
    assert abs(sol.K[0, 0]) <= 1e-12
    G = d.gramian(sys_.A, sys_.Q)
    for H in range(1, 11):
        policy = d.solve_drc(d.assemble(sys_, G, H))
        assert abs(policy.first[0, 0]) <= 1e-12


def test_criterion_3_half_scalar_closed_forms():
    sys_ = scalar_system(a=0.5)
    P_exact = (0.25 + np.sqrt(4.0625)) / 2.0
    K_exact = -0.5 * P_exact / (1.0 + P_exact)

    sol = d.solve_dare(sys_)
    assert sol.P[0, 0] == pytest.approx(P_exact, rel=1e-9)
    assert sol.K[0, 0] == pytest.approx(K_exact, rel=1e-9)

    G = d.gramian(sys_.A, sys_.Q)
    assert G[0, 0] == pytest.approx(4.0 / 3.0, rel=1e-9)

    mats = d.assemble(sys_, G, H=1)
    assert mats.M[0, 0] == pytest.approx(7.0 / 3.0, rel=1e-9)
    assert mats.J[0, 0] == pytest.approx(2.0 / 3.0, rel=1e-9)
    assert d.solve_drc(mats).first[0, 0] == pytest.approx(-2.0 / 7.0, rel=1e-9)


# -- 4: the three cost routes agree -------------------------------------------

def test_criterion_4_analytic_cost_identity(demo_system, scalar_stable):
    systems = [demo_system, scalar_stable]
    rng = default_rng(4444)
    systems += [random_system(rng) for _ in range(20)]
    for sys_ in systems:
        sol = d.solve_dare(sys_)
        value = d.cost_of_gain(sys_, sol.K).value
        assert value == pytest.approx(sol.trace_P, rel=1e-8)


def test_criterion_4_monte_carlo_agreement(demo_system, demo_solution, demo_gramian):
    mc_gain = d.simulate(demo_system, demo_solution.K, steps=200_000, burn_in=1000, seed=0)
    assert abs(mc_gain.value - demo_solution.trace_P) <= 3.0 * mc_gain.std_error

    policy = d.solve_drc(d.assemble(demo_system, demo_gramian, H=10))
    analytic = d.cost_of_drc(demo_system, demo_gramian, policy).value
    mc_drc = d.simulate(demo_system, policy, steps=200_000, burn_in=1000, seed=0)
    assert abs(mc_drc.value - analytic) <= 3.0 * mc_drc.std_error


# -- 5: the closed-form truncation defect equals direct substitution ----------

def test_criterion_5_truncation_defect_identity(demo_system):
    rng = default_rng(777)
    systems = [demo_system] + [random_system(rng, sr_range=(0.6, 0.9)) for _ in range(20)]
    for sys_ in systems:
        sol = d.solve_dare(sys_)
        G = d.gramian(sys_.A, sys_.Q)
        n_u = sys_.n_u
        for H in (1, 3, 5, 10):
            mats = d.assemble(sys_, G, H)
            induced = d.induced_drc(sol.K, sys_, H)
            direct = mats.M @ induced.stacked() + mats.J
            blocks = d.truncation_residual(sys_, G, sol.K, H)
            for k, block in enumerate(blocks):
                ref = direct[k * n_u : (k + 1) * n_u]
                gap = np.linalg.norm(block - ref, 2)
                assert gap <= 1e-8 * (1 + np.linalg.norm(ref, 2))


# -- 6: the eigenvalue floor and the Gramian-power bound ----------------------

def test_criterion_6_m_eigenvalue_floor(demo_system, demo_gramian):
    floor = d.schur_lambda_min(demo_system)
    for H in range(1, 31):
        mats = d.assemble(demo_system, demo_gramian, H)
        lam = float(np.linalg.eigvalsh((mats.M + mats.M.T) / 2.0)[0])
        assert lam >= floor - 1e-8


def test_criterion_6_gramian_power_norm_bound(demo_system, demo_gramian):
    cert = d.estimate_certificate(demo_system.A)
    normQ = np.linalg.norm(demo_system.Q, 2)
    power = np.eye(demo_system.n_x)
    for m in range(51):
        measured = np.linalg.norm(demo_gramian @ power, 2)
        assert measured <= d.gramian_power_bound(cert, normQ, m)
        power = power @ demo_system.A


def test_criterion_6_schur_floor_random_batch():
    rng = default_rng(2024)
    for _ in range(100):
        sys_ = random_system(rng)
        lam_joint = float(np.linalg.eigvalsh(sys_.joint_weight())[0])
        assert d.schur_lambda_min(sys_) >= lam_joint - 1e-10


# -- 7: pre-stabilized synthesis on unstable plants ----------------------------

def _check_prestabilized_sweep(sys_, K0):
    ps = d.transform(sys_, K0)
    result = run_sweep(ps.transformed, 30)
    assert np.all(result.err_L1_K <= result.bound_thm1)

    direct = d.solve_dare(sys_)
    G_bar = d.gramian(ps.transformed.A, ps.transformed.Q)
    policy = d.solve_drc(d.assemble(ps.transformed, G_bar, 30))
    recovered = d.recover_gain(K0, policy.first)
    assert np.linalg.norm(recovered - direct.K, 2) <= result.bound_thm1[29]


def test_criterion_7_scalar_unstable(scalar_unstable_with_gain):
    sys_, K0 = scalar_unstable_with_gain
    assert sys_.A[0, 0] == 1.5 and K0[0, 0] == -1.0
    _check_prestabilized_sweep(sys_, K0)


def test_criterion_7_random_unstable():
    sys_ = random_unstable_system(default_rng(7))
    assert d.spectral_radius(sys_.A) > 1.0
    K0 = d.default_prestabilizer(sys_)
    _check_prestabilized_sweep(sys_, K0)


# -- 8: the instability witness ------------------------------------------------

def _witness_policies(n, H, count, rng):
    return [
        d.DRCPolicy(blocks=tuple(rng.uniform(-1.0, 1.0, (1, n)) for _ in range(H)))
        for _ in range(count)
    ]


def test_criterion_8_psd_domination_refuted():
    # PSD domination of the covariance by the witness lower bound is false as
    # stated: the bound c * sum A^j e1 e1' (A^j)' concentrates on the first
    # coordinate, and x' Cov x >= Cov_11 x_1^2 fails for generic PSD matrices,
    # so some policies give lambda_min(Cov - bound) < 0 even though the (1,1)
    # growth claim, which `holds` reports, is true
    rng = default_rng(8)
    lam_min = np.inf
    for H in range(1, 5):
        for policy in _witness_policies(4, H, 50, rng):
            for t in range(H, 13):
                bound, _, cov = d.instability_witness(4, H, policy, t)
                lam_min = min(lam_min, float(np.linalg.eigvalsh(cov - bound)[0]))
    assert lam_min < -1e-8


def test_criterion_8_trace_blowup():
    rng = default_rng(8)
    sys_ = d.witness_plant(4)
    for H in range(1, 5):
        for policy in _witness_policies(4, H, 50, rng):
            traces = [
                float(np.trace(d.drc_state_covariance(sys_, policy, t)))
                for t in range(8, 14)
            ]
            for cur, nxt in zip(traces, traces[1:]):
                assert nxt >= 3.0 * cur


def test_criterion_8_rollout_overflow():
    rng = default_rng(8)
    sys_ = d.witness_plant(4)
    policy = _witness_policies(4, 3, 1, rng)[0]
    with pytest.raises(d.NonFinite) as exc:
        d.simulate(sys_, policy, steps=250, burn_in=0, seed=0)
    assert exc.value.step is not None and exc.value.step < 200


# -- 9: the Sylvester solver ----------------------------------------------------

def test_criterion_9_random_solvable_instances():
    rng = default_rng(99)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        A = rng.normal(size=(n, n))
        A *= rng.uniform(0.3, 0.9) / d.spectral_radius(A)
        B = rng.normal(size=(n, n))
        B *= rng.uniform(0.3, 0.9) / d.spectral_radius(B)
        X_true = rng.normal(size=(n, n))
        C = X_true - A.T @ X_true @ B
        X = d.solve_dsylvester(A, B, C)
        scale = np.linalg.norm(X_true, 2)
        assert np.linalg.norm(X - X_true, 2) <= 1e-9 * (1 + scale)
        assert np.linalg.norm(A.T @ X @ B + C - X, 2) <= 1e-9 * (1 + scale)


def test_criterion_9_singular_pencil_detected():
    with pytest.raises(d.SingularPencil):
        d.solve_dsylvester(np.eye(3), np.eye(3), np.ones((3, 3)))
