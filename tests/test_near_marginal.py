"""Inputs at the edge of the two standing assumptions.

Stability is rho < 1, compared with 1 exactly, and the weights are the
positive-definite joint block [[Q, S'], [S, R]].  These tests pin plants
whose spectral radius sits within delta = 1 - r of 1, down to delta = 1e-12,
and weights whose Q is singular to within 1e-14 of its norm: inputs both
assumptions admit and the solvers must therefore handle.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from numpy.random import default_rng

import drclqr as d
from oracles import assert_envelope, random_system


def geometric_sum(r: float) -> float:
    """sum_k r^{2k} = 1/(1 - r^2), in exact arithmetic on the float r."""
    return float(1 / (1 - Fraction(r) ** 2))


def uncontrollable_mode_plant(r: float, sub: d.LQRSystem) -> d.LQRSystem:
    """``sub`` plus a decoupled, uncontrollable first state x_0' = r x_0 with unit weight.

    Nothing couples x_0 to the rest, so P_00 = 1/(1 - r^2) and K[:, 0] = 0
    exactly, while A and A + BK both keep the spectral radius r.
    """
    n, m = sub.n_x, sub.n_u
    A = np.zeros((n + 1, n + 1))
    A[0, 0] = r
    A[1:, 1:] = sub.A
    Q = np.zeros((n + 1, n + 1))
    Q[0, 0] = 1.0
    Q[1:, 1:] = sub.Q
    return d.LQRSystem(
        A=A,
        B=np.vstack((np.zeros((1, m)), sub.B)),
        Q=Q,
        R=sub.R,
        S=np.hstack((np.zeros((m, 1)), sub.S)),
    )


def orthogonal(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def near_singular_q_system(rng, n: int, log_ratio: float, m: int) -> d.LQRSystem:
    """S = 0 and a Q with lambda_min(Q) / lambda_max(Q) = 10^log_ratio in a random basis."""
    lam = np.sort(10.0 ** rng.uniform(-1.0, 1.0, size=n))
    lam[0] = lam[-1] * 10.0**log_ratio
    U = orthogonal(rng, n)
    M = rng.normal(size=(m, m))
    return d.LQRSystem(
        A=0.5 * np.eye(n),
        B=rng.normal(size=(n, m)),
        Q=(U * lam) @ U.T,
        R=M @ M.T + 0.1 * np.eye(m),
        S=np.zeros((m, n)),
    )


class TestRefusalsWithinTheAssumptions:
    R_EDGE = 1.0 - 3e-11  # rho^2 within 1e-10 of 1, yet stable

    def test_dare_on_an_uncontrollable_near_marginal_mode(self):
        sys_ = d.LQRSystem(
            A=np.diag([self.R_EDGE, 0.5]), B=[[0.0], [1.0]], Q=np.eye(2), R=[[1.0]], S=np.zeros((1, 2))
        )
        sol = d.solve_dare(sys_)
        assert sol.P[0, 0] == pytest.approx(geometric_sum(self.R_EDGE), rel=1e-6)
        assert np.all(sol.K[:, 0] == 0.0)

    def test_certificate_of_a_near_marginal_jordan_block(self):
        J = np.array([[self.R_EDGE, 1.0], [0.0, self.R_EDGE]])
        assert_envelope(d.estimate_certificate(J), J)

    @pytest.mark.parametrize("S, lam", [([[0.0, 0.0]], 1.0), ([[0.0, 0.3]], 0.91)])
    def test_sweep_with_a_near_singular_q(self, S, lam):
        sys_ = d.LQRSystem(
            A=[[0.9, 0.2], [0.0, 0.5]], B=[[0.0], [1.0]], Q=np.diag([1e-15, 1.0]), R=[[1.0]], S=S
        )
        assert d.schur_lambda_min(sys_) == pytest.approx(lam, rel=1e-12)
        assert len(d.run_sweep(sys_, 10).rows) == 10


# delta = 1 - r, log-uniform in [1e-12, 1e-2]
log_deltas = st.floats(-12.0, -2.0)
seeds = st.integers(0, 2**32 - 1)


class TestNearMarginalProperties:
    @settings(max_examples=25, deadline=None)
    @given(log_delta=log_deltas, n=st.integers(1, 6), seed=seeds)
    @example(log_delta=-12.0, n=6, seed=0)
    def test_scaled_orthogonal(self, log_delta, n, seed):
        rng = default_rng(seed)
        A = (1.0 - 10.0**log_delta) * orthogonal(rng, n)
        M = rng.normal(size=(n, n))
        C = M @ M.T
        X = d.solve_dsylvester(A, A, C)
        # one kernel behind both: the same bits, not merely close ones
        assert np.array_equal((X + X.T) / 2.0, d.gramian(A, C).G)
        assert_envelope(d.estimate_certificate(A), A)

    @settings(max_examples=25, deadline=None)
    @given(log_delta=log_deltas, seed=seeds)
    @example(log_delta=-12.0, seed=0)
    def test_uncontrollable_mode(self, log_delta, seed):
        r = 1.0 - 10.0**log_delta
        sys_ = uncontrollable_mode_plant(r, random_system(default_rng(seed), n_max=5))
        sol = d.solve_dare(sys_)
        assert sol.P[0, 0] == pytest.approx(geometric_sum(r), rel=1e-6)
        d.joint_certificate(sys_.A, sys_.A + sys_.B @ sol.K)

    @settings(max_examples=40, deadline=None)
    @given(log_ratio=st.floats(-15.5, -14.0), n=st.integers(2, 6), m=st.integers(1, 3), seed=seeds)
    def test_near_singular_q_floor_is_lambda_min_r(self, log_ratio, n, m, seed):
        sys_ = near_singular_q_system(default_rng(seed), n, log_ratio, m)
        try:
            d.validate_system(sys_)
        except d.NotPositiveDefinite:
            # near 10^-15.5, lambda_min(Q) is below eps ||Q|| and the joint
            # floor can round to <= 0: the assumption's own refusal, outside
            # the property
            reject()
        expected = float(np.linalg.eigvalsh(sys_.R)[0])
        assert d.schur_lambda_min(sys_) == pytest.approx(expected, rel=1e-12)
