import numpy as np
import pytest
from numpy.random import default_rng

import drclqr as d
from drclqr.bounds import schur_lambda_min
from oracles import (
    direct_assemble,
    extended_drc_rows,
    mp_riccati_drc,
    random_system,
    scaled_orthogonal,
    series_truncation_residual,
    similar_jordan,
    system_with_dynamics,
)

# n = 40 dynamics: rho times an orthogonal matrix, up to 1 - 1e-6, and five
# similarity-transformed Jordan blocks J_8(0.5) (eigenvalues spread to 0.51)
SCALE_DYNAMICS = {
    "rho0.95": lambda rng: scaled_orthogonal(rng, 40, 0.95),
    "rho0.999": lambda rng: scaled_orthogonal(rng, 40, 0.999),
    "rho1-1e-6": lambda rng: scaled_orthogonal(rng, 40, 1.0 - 1e-6),
    "jordan8": lambda rng: similar_jordan(rng, 40, 0.5, 8),
}


def scalar_system(a=0.5, b=1.0, q=1.0, r=1.0, s=0.0):
    return d.LQRSystem(A=[[a]], B=[[b]], Q=[[q]], R=[[r]], S=[[s]])


def assert_matches_direct_assembly(sys_, H):
    G = d.gramian(sys_.A, sys_.Q)
    mats = d.assemble(sys_, G, H)
    ref = direct_assemble(sys_, G, H)
    assert mats.H == ref.H == H
    assert np.array_equal(mats.M, mats.M.T)
    assert np.linalg.norm(mats.M - ref.M) <= 1e-12 * np.linalg.norm(ref.M)
    assert np.linalg.norm(mats.J - ref.J) <= 1e-12 * np.linalg.norm(ref.J)


def assert_matches_dense_solve(sys_, orders):
    sol = d.solve_dare(sys_)
    G = d.gramian(sys_.A, sys_.Q)
    for H in orders:
        policy = d.optimal_drc(sys_, sol.P, sol.K, H)
        dense = d.solve_drc(direct_assemble(sys_, G, H)).stacked()
        assert policy.blocks.shape == (H, sys_.n_u, sys_.n_x)
        # the dense route's own round-off sets the tolerance, as for
        # order_gaps: on the Jordan plants its blocks are off by ~1e-12
        assert np.linalg.norm(policy.stacked() - dense, 2) <= 1e-11 * (1 + np.linalg.norm(dense, 2))


def assert_matches_series_residual(sys_, H):
    K = d.solve_dare(sys_).K
    G = d.gramian(sys_.A, sys_.Q)
    blocks = d.truncation_residual(sys_, G, K, H)
    oracle = series_truncation_residual(sys_, G, K, H)
    assert len(blocks) == H
    for b, o in zip(blocks, oracle):
        assert np.linalg.norm(b - o, 2) <= 1e-9 * (1 + np.linalg.norm(o, 2))


class TestAssemble:
    def test_scalar_order_one_closed_form(self):
        sys_ = scalar_system()
        G = d.gramian(sys_.A, sys_.Q)  # 1/(1 - 0.25) = 4/3
        mats = d.assemble(sys_, G, H=1)
        assert mats.M[0, 0] == pytest.approx(7.0 / 3.0, rel=1e-12)
        assert mats.J[0, 0] == pytest.approx(2.0 / 3.0, rel=1e-12)
        L = d.solve_drc(mats)
        assert L.first[0, 0] == pytest.approx(-2.0 / 7.0, rel=1e-12)

    def test_memoryless_plant_decouples(self):
        # A = 0 kills every coupling term: M is block diagonal and J vanishes.
        sys_ = d.LQRSystem(
            A=np.zeros((2, 2)),
            B=[[1.0, 0.0], [0.0, 1.0]],
            Q=np.eye(2),
            R=2 * np.eye(2),
            S=np.zeros((2, 2)),
        )
        G = d.gramian(sys_.A, sys_.Q)
        mats = d.assemble(sys_, G, H=3)
        diag = mats.M[:2, :2]
        assert np.allclose(diag, 3 * np.eye(2), atol=1e-14)
        off = mats.M - np.kron(np.eye(3), diag)
        assert np.linalg.norm(off, 2) == 0.0
        assert np.linalg.norm(mats.J, 2) == 0.0
        L = d.solve_drc(mats)
        assert np.linalg.norm(L.stacked(), 2) == 0.0

    def test_demo_symmetry(self, demo_system, demo_gramian):
        mats = d.assemble(demo_system, demo_gramian, H=2)
        asym = np.linalg.norm(mats.M - mats.M.T, 2)
        assert asym <= 1e-10 * np.linalg.norm(mats.M, 2)

    @pytest.mark.parametrize("H", [1, 5, 10])
    def test_demo_eigenvalue_floor(self, demo_system, demo_gramian, H):
        mats = d.assemble(demo_system, demo_gramian, H=H)
        lam = np.linalg.eigvalsh((mats.M + mats.M.T) / 2.0)[0]
        assert lam >= schur_lambda_min(demo_system) - 1e-8

    def test_invalid_horizon(self, demo_system, demo_gramian):
        with pytest.raises(d.InvalidHorizon):
            d.assemble(demo_system, demo_gramian, H=0)

    @pytest.mark.parametrize("H", [1, 2, 7, 30])
    def test_toeplitz_matches_direct_oracle(self, H):
        rng = default_rng(40 + H)
        for _ in range(6):
            assert_matches_direct_assembly(random_system(rng), H)

    @pytest.mark.parametrize("dynamics", sorted(SCALE_DYNAMICS))
    @pytest.mark.parametrize("H", [100, 300])
    @pytest.mark.parametrize("n_u", [2, 10])
    def test_toeplitz_matches_direct_oracle_at_scale(self, n_u, H, dynamics):
        rng = default_rng([n_u, H, sorted(SCALE_DYNAMICS).index(dynamics)])
        assert_matches_direct_assembly(system_with_dynamics(rng, SCALE_DYNAMICS[dynamics](rng), n_u), H)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="long double is float64 here")
    @pytest.mark.parametrize("lam, size, cond", [(0.9, 4, 10.0), (0.99, 2, 1.0)])
    def test_rows_keep_extended_precision_on_jordan_blocks(self, lam, size, cond):
        # transient growth ||A^k|| up to ~200: float64 routes through n x n
        # powers, running or squared, leave 2e-12 to 1e-10 here
        rng = default_rng(16)
        sys_ = system_with_dynamics(rng, similar_jordan(rng, 40, lam, size, cond), 2)
        G = d.gramian(sys_.A, sys_.Q)
        J = d.assemble(sys_, G, 300).J
        ref = extended_drc_rows(sys_, G, 300)
        assert np.linalg.norm(J - ref) <= 1e-12 * np.linalg.norm(ref)


class TestSolveDrc:
    def test_demo_solve_residual(self, demo_system, demo_gramian):
        mats = d.assemble(demo_system, demo_gramian, H=10)
        L = d.solve_drc(mats)
        resid = np.linalg.norm(mats.M @ L.stacked() + mats.J, 2)
        assert resid <= 1e-10 * (1 + np.linalg.norm(mats.J, 2))

    def test_indefinite_m_rejected(self):
        bad = d.DRCSystemMatrices(
            M=np.array([[1.0, 0.0], [0.0, -1.0]]), J=np.zeros((2, 1)), H=2
        )
        with pytest.raises(d.NotPositiveDefinite) as exc:
            d.solve_drc(bad)
        assert exc.value.lambda_min == pytest.approx(-1.0, abs=1e-12)


class TestOrderGaps:
    def test_every_order_matches_its_own_solve(self):
        rng = default_rng(11)
        for _ in range(4):
            sys_ = random_system(rng)
            sol = d.solve_dare(sys_)
            G = d.gramian(sys_.A, sys_.Q)
            gains, costs = d.order_gaps(sys_, sol.P, sol.K, 8)
            assert gains.shape == (8, sys_.n_u, sys_.n_x) and costs.shape == (8,)
            for H, (gain, cost) in enumerate(zip(gains, costs), start=1):
                mats = direct_assemble(sys_, G, H)
                policy = d.solve_drc(mats)
                L = policy.stacked()
                scale = 1 + np.linalg.norm(L, 2)
                assert np.linalg.norm(gain - (policy.first - sol.K), 2) <= 1e-10 * scale
                # at the optimum trace(L'J + L'ML) = -trace(L'J)
                saved = -np.trace(L.T @ mats.J)
                assert cost == pytest.approx(np.trace(G) - saved - sol.trace_P, abs=1e-10 * np.trace(G))

    # at rho = 1 - 1e-6 the dense oracle itself loses ~6 digits of L_1
    @pytest.mark.parametrize("dynamics", sorted(set(SCALE_DYNAMICS) - {"rho1-1e-6"}))
    @pytest.mark.parametrize("n_u", [2, 10])
    def test_matches_dense_oracle_at_scale(self, n_u, dynamics):
        rng = default_rng([n_u, 100, sorted(SCALE_DYNAMICS).index(dynamics)])
        sys_ = system_with_dynamics(rng, SCALE_DYNAMICS[dynamics](rng), n_u)
        sol = d.solve_dare(sys_)
        G = d.gramian(sys_.A, sys_.Q)
        gains, costs = d.order_gaps(sys_, sol.P, sol.K, 100)
        for H in (1, 7, 30, 100):
            mats = direct_assemble(sys_, G, H)
            policy = d.solve_drc(mats)
            gap = np.trace(G) + np.trace(policy.stacked().T @ mats.J) - sol.trace_P
            # the dense route's own round-off sets both tolerances: on the
            # Jordan plants its first block is off by ~1e-12
            assert np.linalg.norm(gains[H - 1] - (policy.first - sol.K), 2) <= 1e-11 * (1 + np.linalg.norm(sol.K, 2))
            assert abs(costs[H - 1] - gap) <= 1e-13 * np.trace(G)

    def test_invalid_horizon(self, demo_system, demo_solution):
        with pytest.raises(d.InvalidHorizon):
            d.order_gaps(demo_system, demo_solution.P, demo_solution.K, 0)


class TestOptimalDrc:
    def test_random_systems_match_the_dense_solve(self):
        rng = default_rng(27)
        for _ in range(4):
            assert_matches_dense_solve(random_system(rng), (1, 7, 30, 100))

    @pytest.mark.parametrize("dynamics", sorted(set(SCALE_DYNAMICS) - {"rho1-1e-6"}))
    @pytest.mark.parametrize("n_u", [2, 10])
    def test_matches_the_dense_solve_at_scale(self, n_u, dynamics):
        rng = default_rng([n_u, 100, sorted(SCALE_DYNAMICS).index(dynamics)])
        assert_matches_dense_solve(system_with_dynamics(rng, SCALE_DYNAMICS[dynamics](rng), n_u), (1, 7, 30, 100))

    @pytest.mark.parametrize("H", [7, 30])
    def test_keeps_its_digits_near_marginal_stability(self, H):
        # at rho(A) = 1 - 1e-6 the dense solve's L_1 is ~1e-7 off
        rng = default_rng(6)
        sys_ = system_with_dynamics(rng, scaled_orthogonal(rng, 6, 1.0 - 1e-6), 2)
        sol = d.solve_dare(sys_)
        ref = mp_riccati_drc(sys_, H)
        errs = d.spectral_norm(d.optimal_drc(sys_, sol.P, sol.K, H).blocks - ref) / d.spectral_norm(ref)
        assert errs[0] <= 1e-13
        assert errs.max() <= 1e-10

    def test_first_block_is_the_sweeps_gain(self, demo_system, demo_solution):
        # L_1 is the recursion's gain K_{H-1} = K + gain gap, bit for bit
        P, K = demo_solution.P, demo_solution.K
        gains, _ = d.order_gaps(demo_system, P, K, 10)
        assert np.array_equal(d.optimal_drc(demo_system, P, K, 10).first, K + gains[-1])

    def test_invalid_horizon(self, demo_system, demo_solution):
        with pytest.raises(d.InvalidHorizon):
            d.optimal_drc(demo_system, demo_solution.P, demo_solution.K, 0)


class TestDRCPolicy:
    def test_stack_round_trip(self):
        rng = default_rng(3)
        blocks = tuple(rng.normal(size=(2, 3)) for _ in range(4))
        policy = d.DRCPolicy(blocks=blocks)
        assert policy.H == 4 and policy.n_u == 2 and policy.n_x == 3
        again = d.DRCPolicy.from_stacked(policy.stacked(), 4)
        for a, b in zip(again.blocks, policy.blocks):
            assert np.array_equal(a, b)

    def test_mismatched_blocks_rejected(self):
        with pytest.raises(d.InvalidHorizon):
            d.DRCPolicy(blocks=(np.zeros((1, 2)), np.zeros((1, 3))))

    def test_empty_rejected(self):
        with pytest.raises(d.InvalidHorizon):
            d.DRCPolicy(blocks=())

    def test_blocks_that_are_not_matrices_rejected(self):
        # (2, 1, 3, 4) is no stack of matrices: it must not be read as (H, n_u, n_x) = (2, 1, 3)
        with pytest.raises(d.InvalidHorizon):
            d.DRCPolicy(blocks=np.zeros((2, 1, 3, 4)))

    def test_ragged_unstack_rejected(self):
        with pytest.raises(d.InvalidHorizon):
            d.DRCPolicy.from_stacked(np.zeros((5, 2)), 2)

    def test_blocks_are_one_read_only_array(self):
        policy = d.DRCPolicy(blocks=[default_rng(4).normal(size=(2, 3)) for _ in range(4)])
        assert isinstance(policy.blocks, np.ndarray) and policy.blocks.shape == (4, 2, 3)
        assert np.shares_memory(policy.first, policy.blocks)
        with pytest.raises(ValueError):
            policy.blocks[0, 0, 0] = 1.0

    def test_stacked_is_a_view_of_the_blocks(self):
        policy = d.DRCPolicy(blocks=default_rng(5).normal(size=(4, 2, 3)))
        stacked = policy.stacked()
        assert stacked.shape == (8, 3) and np.shares_memory(stacked, policy.blocks)
        assert np.array_equal(stacked[2:4], policy.blocks[1])

    def test_scalar_and_vector_blocks_read_as_atleast_2d(self):
        scalar = d.DRCPolicy(blocks=(0.5, -0.25))
        assert (scalar.H, scalar.n_u, scalar.n_x) == (2, 1, 1)
        assert np.array_equal(scalar.stacked(), [[0.5], [-0.25]])
        vector = d.DRCPolicy(blocks=(np.arange(3.0), np.ones(3)))
        assert (vector.H, vector.n_u, vector.n_x) == (2, 1, 3)
        assert np.array_equal(vector.stacked(), [[0.0, 1.0, 2.0], [1.0, 1.0, 1.0]])

    def test_generator_of_blocks(self):
        policy = d.DRCPolicy(blocks=(np.full((1, 2), k) for k in range(3)))
        assert (policy.H, policy.n_u, policy.n_x) == (3, 1, 2)
        assert np.array_equal(policy.stacked()[:, 0], [0.0, 1.0, 2.0])


class TestInducedDrc:
    def test_first_block_is_the_gain(self, demo_system, demo_solution):
        policy = d.induced_drc(demo_solution.K, demo_system, H=6)
        assert np.array_equal(policy.first, demo_solution.K)

    def test_scalar_second_block(self):
        sys_ = scalar_system()
        sol = d.solve_dare(sys_)
        k = sol.K[0, 0]
        policy = d.induced_drc(sol.K, sys_, H=2)
        assert policy.blocks[1][0, 0] == pytest.approx(k * (0.5 + k), rel=1e-12)

    def test_zero_gain_gives_zero_policy(self, demo_system):
        policy = d.induced_drc(np.zeros((1, 3)), demo_system, H=5)
        assert np.linalg.norm(policy.stacked(), 2) == 0.0

    def test_invalid_horizon(self, demo_system, demo_solution):
        with pytest.raises(d.InvalidHorizon):
            d.induced_drc(demo_solution.K, demo_system, H=0)


class TestTruncationResidual:
    def test_memoryless_plant_leaves_nothing(self):
        sys_ = d.LQRSystem(
            A=np.zeros((2, 2)), B=np.eye(2), Q=np.eye(2), R=np.eye(2), S=np.zeros((2, 2))
        )
        G = d.gramian(sys_.A, sys_.Q)
        K = d.solve_dare(sys_).K
        for block in d.truncation_residual(sys_, G, K, H=3):
            assert np.linalg.norm(block, 2) == 0.0

    def test_scalar_matches_direct_substitution(self):
        sys_ = scalar_system()
        sol = d.solve_dare(sys_)
        G = d.gramian(sys_.A, sys_.Q)
        mats = d.assemble(sys_, G, H=1)
        expected = mats.M[0, 0] * sol.K[0, 0] + mats.J[0, 0]
        blocks = d.truncation_residual(sys_, G, sol.K, H=1)
        assert blocks[0][0, 0] == pytest.approx(expected, rel=1e-9)

    def test_non_normal_closed_loop_matches_series(self):
        # A + BK = [[0.99, 0], [5, 0.5]]: its largest entry is five times A's
        # although both radii are 0.99, and the defect pencil still sums
        sys_ = d.LQRSystem(A=np.diag([0.99, 0.5]), B=[[0.0], [1.0]], Q=np.eye(2), R=[[1.0]], S=[[0.0, 0.0]])
        G = d.gramian(sys_.A, sys_.Q)
        K = np.array([[5.0, 0.0]])
        blocks = d.truncation_residual(sys_, G, K, H=3)
        for b, o in zip(blocks, series_truncation_residual(sys_, G, K, H=3), strict=True):
            assert np.linalg.norm(b - o, 2) <= 1e-9 * (1 + np.linalg.norm(o, 2))

    @pytest.mark.parametrize("H", [1, 3, 5])
    def test_demo_substitution_identity(self, demo_system, demo_solution, demo_gramian, H):
        mats = d.assemble(demo_system, demo_gramian, H=H)
        induced = d.induced_drc(demo_solution.K, demo_system, H=H)
        direct = mats.M @ induced.stacked() + mats.J
        blocks = d.truncation_residual(demo_system, demo_gramian, demo_solution.K, H=H)
        n_u = demo_system.n_u
        for k, block in enumerate(blocks):
            ref = direct[k * n_u : (k + 1) * n_u]
            err = np.linalg.norm(block - ref, 2)
            assert err <= 1e-8 * (1 + np.linalg.norm(ref, 2))

    @pytest.mark.parametrize("H", [1, 5, 30])
    def test_sylvester_solution_is_g_minus_p(self, H):
        # for the DARE's gain, Y = A'Y(A+BK) - (A'GB + S')K is solved by
        # G - P, the Delta_0 of order_gaps: block k is B'(A')^{H-k}(G - P)(A+BK)^H
        rng = default_rng([63, H])
        plants = [random_system(rng) for _ in range(6)]
        plants.append(system_with_dynamics(rng, scaled_orthogonal(rng, 40, 0.999), 2))
        for sys_ in plants:
            sol = d.solve_dare(sys_)
            G = d.gramian(sys_.A, sys_.Q)
            FH = np.linalg.matrix_power(sys_.A + sys_.B @ sol.K, H)
            expected = [
                sys_.B.T @ np.linalg.matrix_power(sys_.A.T, H - k) @ (G - sol.P) @ FH for k in range(1, H + 1)
            ]
            blocks = d.truncation_residual(sys_, G, sol.K, H)
            scale = np.linalg.norm(G, 2) * np.linalg.norm(sys_.B, 2) * np.linalg.norm(FH, 2)
            for block, ref in zip(blocks, expected, strict=True):
                assert np.linalg.norm(block - ref, 2) <= 1e-12 * scale

    def test_random_systems_match_series_oracle(self):
        rng = default_rng(21)
        for _ in range(8):
            assert_matches_series_residual(random_system(rng, sr_range=(0.3, 0.85)), 4)

    @pytest.mark.parametrize("H", [30, 100])
    @pytest.mark.parametrize("rho", [0.9, 0.99])
    def test_matches_series_oracle_at_scale(self, rho, H):
        rng = default_rng([int(1000 * rho), H])
        assert_matches_series_residual(system_with_dynamics(rng, scaled_orthogonal(rng, 40, rho), 2), H)

    def test_blocks_are_one_array(self, demo_system, demo_gramian, demo_solution):
        blocks = d.truncation_residual(demo_system, demo_gramian, demo_solution.K, H=4)
        assert isinstance(blocks, np.ndarray) and blocks.shape == (4, demo_system.n_u, demo_system.n_x)

    def test_invalid_horizon(self, demo_system, demo_gramian, demo_solution):
        with pytest.raises(d.InvalidHorizon):
            d.truncation_residual(demo_system, demo_gramian, demo_solution.K, H=0)
