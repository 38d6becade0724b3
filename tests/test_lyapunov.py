import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import default_rng

import drclqr as d
from conftest import DEMO_PATH
from drclqr.cli import load_system_file
from oracles import (
    kron_dsylvester,
    kron_gramian,
    random_system,
    scaled_orthogonal,
    series_dsylvester,
    series_gramian,
    series_truncation_residual,
    similar_jordan,
)


def fixed_point_defect(A, Q, G) -> float:
    """||A'GA + Q - G||, how far G is from solving the Gramian equation."""
    return float(np.linalg.norm(A.T @ G @ A + Q - G, 2))


class TestGramian:
    def test_memoryless_plant(self):
        A = np.zeros((2, 2))
        Q = np.array([[2.0, 0.5], [0.5, 1.0]])
        G = d.gramian(A, Q)
        assert np.array_equal(G, Q)
        assert fixed_point_defect(A, Q, G) == 0.0

    def test_scalar_geometric_series(self):
        G = d.gramian([[0.5]], [[1.0]])
        assert G[0, 0] == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_demo_against_kronecker_solve(self, demo_system, demo_gramian):
        G_direct = kron_gramian(demo_system.A, demo_system.Q)
        rel = np.linalg.norm(demo_gramian - G_direct, 2) / np.linalg.norm(G_direct, 2)
        assert rel <= 1e-10
        assert fixed_point_defect(demo_system.A, demo_system.Q, demo_gramian) <= 1e-11

    def test_fixed_point_defect_budget(self):
        rng = default_rng(5)
        for _ in range(15):
            sys_ = random_system(rng)
            G = d.gramian(sys_.A, sys_.Q)
            assert fixed_point_defect(sys_.A, sys_.Q, G) <= 1e-12 * max(1.0, np.linalg.norm(G, 2))

    def test_series_equivalence_on_4x4(self):
        rng = default_rng(8)
        for _ in range(10):
            A = rng.normal(size=(4, 4))
            A *= rng.uniform(0.3, 0.9) / d.spectral_radius(A)
            W = rng.normal(size=(4, 4))
            Q = W @ W.T
            G_series = series_gramian(A, Q)
            assert np.linalg.norm(d.gramian(A, Q) - G_series, 2) <= 1e-10 * np.linalg.norm(G_series, 2)

    def test_eigenvalue_floor(self, demo_system, demo_gramian):
        lam_G = np.linalg.eigvalsh(demo_gramian)[0]
        lam_Q = np.linalg.eigvalsh(demo_system.Q)[0]
        assert lam_G >= lam_Q - 1e-10

    def test_sum_near_the_top_of_the_double_range_stays_finite(self):
        # G_22 ~ 1.26e308, so G + G' would overflow where G/2 + G'/2 does not
        r, c = 0.99, 10**151.35
        G = d.gramian([[r, c], [0.0, r]], np.eye(2))
        assert np.isfinite(G).all() and np.array_equal(G, G.T)
        assert G[1, 1] == pytest.approx(1 / (1 - r * r) + c * c * (1 + r * r) / (1 - r * r) ** 3, rel=1e-12)

    def test_unstable_rejected(self):
        with pytest.raises(d.Unstable):
            d.gramian([[1.01]], [[1.0]])

    def test_shape_mismatch(self):
        with pytest.raises(d.DimensionMismatch, match="gramian needs square A and Q of equal shape"):
            d.gramian(np.eye(2), np.eye(3))


class TestSolveDsylvester:
    def test_memoryless_left_factor(self):
        C = np.array([[1.0, 2.0], [3.0, 4.0]])
        X = d.solve_dsylvester(np.zeros((2, 2)), np.eye(2), C)
        assert np.allclose(X, C, atol=1e-14)

    def test_identity_pencil_is_singular(self):
        with pytest.raises(d.SingularPencil):
            d.solve_dsylvester(np.eye(2), np.eye(2), np.ones((2, 2)))

    def test_random_instances_match_series(self):
        rng = default_rng(13)
        for _ in range(10):
            A = rng.normal(size=(3, 3))
            A *= 0.8 / d.spectral_radius(A)
            B = rng.normal(size=(3, 3))
            B *= 0.8 / d.spectral_radius(B)
            C = rng.normal(size=(3, 3))
            X = d.solve_dsylvester(A, B, C)
            resid = np.linalg.norm(A.T @ X @ B + C - X, 2)
            assert resid <= 1e-10 * (1 + np.linalg.norm(X, 2))
            X_series = series_dsylvester(A, B, C)
            assert np.linalg.norm(X - X_series, 2) <= 1e-9 * (1 + np.linalg.norm(X, 2))

    def test_unstable_factor_with_convergent_product(self):
        # rho(A) = 2 and rho(B) = 0.45: A^k overflows long before the series
        # converges unless the two sides are balanced
        assert d.solve_dsylvester([[2.0]], [[0.45]], [[1.0]])[0, 0] == pytest.approx(10.0, rel=1e-13)
        # the unscaled doubling fails at step 0 (its norm squares 1e160); the radii balance the retry
        assert d.solve_dsylvester([[1e160]], [[1e-161]], [[1.0]])[0, 0] == pytest.approx(1.0 / 0.9, rel=1e-13)
        rng = default_rng(14)
        A = rng.normal(size=(4, 4))
        A *= 1e3 / d.spectral_radius(A)
        B = rng.normal(size=(4, 4))
        B *= 0.9e-3 / d.spectral_radius(B)
        C = rng.normal(size=(4, 4))
        X_ref = kron_dsylvester(A, B, C)
        assert np.linalg.norm(d.solve_dsylvester(A, B, C) - X_ref, 2) <= 1e-10 * np.linalg.norm(X_ref, 2)

    def test_shape_mismatch(self):
        with pytest.raises(d.DimensionMismatch):
            d.solve_dsylvester(np.eye(2), np.eye(3), np.eye(3))

    def test_non_normal_factor_with_a_large_entry(self):
        # A + BK = [[0.99, 0], [5, 0.5]]: both radii 0.99, but the largest
        # entries differ fivefold; a pair balanced by entries (s = 2) has
        # radii 1.98 and 0.495 and overflows, the pair as given converges
        A = np.diag([0.99, 0.5])
        A_cl = np.array([[0.99, 0.0], [5.0, 0.5]])
        C = np.array([[1.0, -2.0], [0.5, 3.0]])
        X_ref = kron_dsylvester(A, A_cl, C)
        assert np.linalg.norm(d.solve_dsylvester(A, A_cl, C) - X_ref, 2) <= 1e-12 * np.linalg.norm(X_ref, 2)


def jordan_block(lam, n=6):
    return lam * np.eye(n) + np.eye(n, k=1)


def rel_err(X, X_ref):
    return np.linalg.norm(X - X_ref, 2) / np.linalg.norm(X_ref, 2)


class TestJordanBlocks:
    """Defective, near-marginal plants.

    A 6 x 6 Jordan block's eigenvalues are perturbed by ~eps^(1/6) in floating
    point, but the Stein solution itself is well determined; the series
    oracles sum it term by term, without any eigen- or Schur decomposition.
    """

    @pytest.mark.parametrize("lam", [0.9, 0.99])
    def test_gramian_matches_series(self, lam):
        A = jordan_block(lam)
        W = default_rng(21).normal(size=(6, 6))
        Q = W @ W.T
        assert rel_err(d.gramian(A, Q), series_gramian(A, Q)) <= 1e-10

    @pytest.mark.parametrize("lam", [0.9, 0.99])
    def test_dsylvester_matches_series(self, lam):
        A = jordan_block(lam)
        C = default_rng(22).normal(size=(6, 6))
        assert rel_err(d.solve_dsylvester(A, A, C), series_dsylvester(A, A, C)) <= 1e-10

    def test_dsylvester_jordan_left_random_right(self):
        rng = default_rng(23)
        A = jordan_block(0.99)
        B = rng.normal(size=(6, 6))
        B *= 0.9 / d.spectral_radius(B)
        C = rng.normal(size=(6, 6))
        assert rel_err(d.solve_dsylvester(A, B, C), series_dsylvester(A, B, C)) <= 1e-10

    def test_n40_against_kronecker_and_residual(self):
        rng = default_rng(24)
        A = rng.normal(size=(40, 40))
        A *= 0.97 / d.spectral_radius(A)
        W = rng.normal(size=(40, 40))
        Q = W @ W.T
        G = d.gramian(A, Q)
        assert rel_err(G, kron_gramian(A, Q)) <= 1e-10
        assert fixed_point_defect(A, Q, G) <= 1e-12 * np.linalg.norm(G, 2)
        B = rng.normal(size=(40, 40))
        B *= 0.97 / d.spectral_radius(B)
        X = d.solve_dsylvester(A, B, W)
        assert np.linalg.norm(A.T @ X @ B + W - X, 2) <= 1e-12 * np.linalg.norm(X, 2)


@st.composite
def stein_problems(draw):
    """(kind, A, B, C) with n from 1 to 8; B is A, an equal copy of A, a
    distinct matrix, or A a 6 x 6 Jordan block with eigenvalue 0.9 or 0.99."""
    rng = default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["same", "copy", "distinct", "jordan"]))
    if kind == "jordan":
        A = jordan_block(draw(st.sampled_from([0.9, 0.99])))
        n = 6
    else:
        n = draw(st.integers(1, 8))
        A = rng.normal(size=(n, n))
        A *= draw(st.floats(0.0, 0.95)) / d.spectral_radius(A)
    if kind == "same" or kind == "jordan":
        B = A
    elif kind == "copy":
        B = A.copy()
    else:
        B = rng.normal(size=(n, n))
        B *= draw(st.floats(0.0, 0.95)) / d.spectral_radius(B)
    return kind, A, B, rng.normal(size=(n, n))


class TestSteinProperties:
    @settings(max_examples=60, deadline=None)
    @given(problem=stein_problems())
    def test_matches_oracle(self, problem):
        kind, A, B, C = problem
        X = d.solve_dsylvester(A, B, C)
        # the series sums a defective block term by term; Kronecker elsewhere
        X_ref = series_dsylvester(A, B, C) if kind == "jordan" else kron_dsylvester(A, B, C)
        assert np.linalg.norm(X - X_ref, 2) <= 1e-10 * (1.0 + np.linalg.norm(X_ref, 2))
        if kind == "copy":
            # squaring an equal copy separately agrees with the shared squaring
            shared = d.solve_dsylvester(A, A, C)
            assert np.linalg.norm(X - shared, 2) <= 1e-12 * (1.0 + np.linalg.norm(shared, 2))


def triangular(radius):
    # upper triangular, so the computed eigenvalues are its diagonal exactly
    return np.array([[radius, 0.3], [0.0, 0.5]])


def identity_input_system(A):
    n = A.shape[0]
    return d.LQRSystem(A=A, B=np.eye(n), Q=np.eye(n), R=np.eye(n), S=np.zeros((n, n)))


def closed_loop_system(radius):
    """A = 0.5 I and a gain K that makes A+BK = triangular(radius)."""
    return identity_input_system(0.5 * np.eye(2)), triangular(radius) - 0.5 * np.eye(2)


@pytest.mark.parametrize("radius", [1.0, 1.0001, 1.5, 1.9])
class TestUnstableFromSpectralRadius:
    def test_gramian(self, radius):
        with pytest.raises(d.Unstable, match="spectral radius"):
            d.gramian(triangular(radius), np.eye(2))

    def test_cost_of_gain_names_the_closed_loop(self, radius):
        # A itself is stable; the gain moves one closed-loop eigenvalue to radius
        sys_, K = closed_loop_system(radius)
        with pytest.raises(d.Unstable, match="closed loop A\\+BK"):
            d.cost_of_gain(sys_, K)

    def test_truncation_residual_names_a(self, radius):
        # K = 0, so A+BK = A and the defect pencil's product is radius^2 >= 1
        sys_ = identity_input_system(triangular(radius))
        product = re.escape(f"{radius * radius:.6g}")
        with pytest.raises(d.SingularPencil, match=f"^rho\\(A\\) rho\\(B\\) = {product} >= 1"):
            d.truncation_residual(sys_, np.eye(2), np.zeros((2, 2)), 3)

    def test_truncation_residual_names_the_closed_loop(self, radius):
        # A+BK has radius >= 1, but the pencil's product 0.5 radius is below 1, so the tail
        # converges; at 1.9 the unscaled powers of A+BK overflow and the balanced retry sums it
        sys_, K = closed_loop_system(radius)
        blocks = d.truncation_residual(sys_, np.eye(2), K, 3)
        for b, o in zip(blocks, series_truncation_residual(sys_, np.eye(2), K, 3), strict=True):
            assert np.linalg.norm(b - o, 2) <= 1e-13 * np.linalg.norm(o, 2)


def test_truncation_residual_refuses_a_divergent_product():
    sys_, K = closed_loop_system(2.5)
    with pytest.raises(d.SingularPencil, match="^rho\\(A\\) rho\\(B\\) = 1.25 >= 1"):
        d.truncation_residual(sys_, np.eye(2), K, 3)


def similar_j8(lam):
    # T J_8(lam) T^{-1} with a Gaussian T: the float64 matrix has eigenvalues
    # spread by ~eps^(1/8), so at lam = 0.999 its eigvals radius is ~1.0097
    J = lam * np.eye(8) + np.eye(8, k=1)
    T = default_rng(0).normal(size=(8, 8))
    return T @ J @ np.linalg.inv(T)


class TestEigenvaluePasses:
    """The Gramian's stop test proves rho < 1, so stable solves take no eigvals."""

    def test_stable_gramian_takes_none(self, eigvals_calls):
        for A in (scaled_orthogonal(default_rng(1), 6, 0.999), similar_jordan(default_rng(2), 8, 0.5, 4)):
            d.gramian(A, np.eye(A.shape[0]))
        # the general route too, on a stable distinct pair
        eigvals_calls.clear()
        d.solve_dsylvester(scaled_orthogonal(default_rng(3), 6, 0.9), similar_jordan(default_rng(4), 6, 0.8, 3), np.eye(6))
        assert eigvals_calls == []

    def test_unbalanced_pencil_takes_the_radii_once(self, eigvals_calls):
        # rho 1e3 times 0.9e-3, the pencil of test_unstable_factor_with_convergent_product:
        # the unscaled doubling overflows, and the radii balance the second sum
        rng = default_rng(14)
        A = rng.normal(size=(4, 4))
        A *= 1e3 / d.spectral_radius(A)
        B = rng.normal(size=(4, 4))
        B *= 0.9e-3 / d.spectral_radius(B)
        eigvals_calls.clear()
        d.solve_dsylvester(A, B, rng.normal(size=(4, 4)))
        assert len(eigvals_calls) == 2

    def test_solve_dare_and_cost_of_gain_take_none(self, demo_system, eigvals_calls):
        sol = d.solve_dare(demo_system)
        d.cost_of_gain(demo_system, sol.K)
        assert eigvals_calls == []

    def test_certify_pipeline_takes_one(self, eigvals_calls):
        # the README pipeline plus the truncation residual, as one certify op:
        # joint_certificate reads A's radius and proves the closed loop's below it;
        # the Gramian and the defect solve prove their own radii
        H = 30
        sys_, _ = load_system_file(DEMO_PATH)
        sol = d.solve_dare(sys_)
        G = d.gramian(sys_.A, sys_.Q)
        cert = d.joint_certificate(sys_.A, sys_.A + sys_.B @ sol.K)
        inp = d.BoundInputs.from_system(sys_, sol.K, cert)
        d.gain_gap_bound(inp, H)
        d.optimal_cost_gap_bound(inp, H)
        policy = d.solve_drc(d.assemble(sys_, G, H))
        d.cost_of_drc(sys_, G, policy)
        d.cost_of_gain(sys_, sol.K)
        d.truncation_residual(sys_, G, sol.K, H)
        assert len(eigvals_calls) == 1

    @pytest.mark.parametrize(
        "A",
        [triangular(1.0), triangular(1.0 + 1e-12), triangular(1.5), triangular(1e3), similar_j8(0.999)],
        ids=["1", "1+1e-12", "1.5", "1e3", "similar-J8(0.999)"],
    )
    def test_refusal_names_the_radius_without_warnings(self, A, eigvals_calls):
        radius = d.spectral_radius(A)
        assert radius >= 1.0
        eigvals_calls.clear()
        message = f"^spectral radius {re.escape(f'{radius:.6g}')} >= 1; the Gramian series diverges$"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(d.Unstable, match=message):
                d.gramian(A, np.eye(A.shape[0]))
        assert len(eigvals_calls) == 1

    def test_failed_doubling_below_radius_one_is_no_convergence(self, eigvals_calls):
        # similar J_8(0.9): radius ~0.913, but ||A^k|| peaks near 5e6 and the
        # round-off of the squared powers overflows; the kernel's error stands
        A = similar_j8(0.9)
        assert d.spectral_radius(A) < 1.0
        eigvals_calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(d.NoConvergence, match="non-finite"):
                d.gramian(A, np.eye(8))
        assert len(eigvals_calls) == 1

    def test_sum_past_the_double_range_is_no_convergence(self, eigvals_calls):
        # rho 0.99, but the true G_22 ~ 2.5e309 is past the double range: the
        # sum overflows to NaN, and the kernel refuses it instead of returning it
        A = np.array([[0.99, 1e152], [0.0, 0.99]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(d.NoConvergence, match="non-finite at step"):
                d.gramian(A, np.eye(2))
            assert len(eigvals_calls) == 1
            with pytest.raises(d.NoConvergence, match="non-finite at step"):
                d.solve_dsylvester(A, A, np.eye(2))
        assert len(eigvals_calls) == 2


def lifted_jordan(r, c):
    # r I + c (e1 e2' + e1 e3'): the Gramian's lower 2 x 2 block is nearly a multiple of all-ones
    return np.array([[r, c, c], [0.0, r, 0.0], [0.0, 0.0, r]])


@pytest.mark.parametrize(
    "M, reason",
    [
        (similar_j8(0.9), "failed: Smith doubling diverged to non-finite powers at step 13"),
        # P is finite, entries up to ~1.3e308, but lambda_max(P) is twice that
        (lifted_jordan(0.9999, 10**147.9), "is not finite \\(lambda_max = inf\\)"),
    ],
    ids=["kernel-fails", "lambda-max-overflows"],
)
def test_failed_lyapunov_fallback_names_the_scan(M, reason):
    message = f"^power scan found no certifying power within 10000 and the Lyapunov fallback {reason}$"
    with pytest.raises(d.NoConvergence, match=message):
        d.joint_certificate(M, M)


def assert_singular_pencil(A, B, C):
    """solve_dsylvester refuses (A, B) with the radii in the message and no RuntimeWarning."""
    product = f"{d.spectral_radius(A) * d.spectral_radius(B):.6g}"
    message = f"^rho\\(A\\) rho\\(B\\) = {re.escape(product)} >= 1; the series solving A'XB \\+ C = X does not converge$"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(d.SingularPencil, match=message):
            d.solve_dsylvester(A, B, C)


class TestSingularPencil:
    def test_shared_form(self):
        # lambda^2 = 1 for lambda = -1, with B is A
        A = np.array([[-1.0, 0.2], [0.0, 0.5]])
        assert_singular_pencil(A, A, np.eye(2))

    def test_distinct_forms(self):
        # 2 * 0.5 = 1 with A unstable and B stable
        A = np.array([[2.0, 0.0], [1.0, 0.3]])
        B = np.array([[0.5, 1.0], [0.0, 0.1]])
        assert_singular_pencil(A, B, np.ones((2, 2)))

    def test_divergent_series_without_unit_product(self):
        # products 1.5, 0.2, 0.225, 0.03: a unique solution exists, but
        # rho(A) rho(B) = 1.5 > 1, so the series does not converge
        A = np.array([[2.0, 0.0], [1.0, 0.3]])
        B = np.array([[0.75, 1.0], [0.0, 0.1]])
        assert_singular_pencil(A, B, np.ones((2, 2)))


class TestGramianPowerBound:
    def test_plug_in_value(self):
        cert = d.StabilityCertificate(tau=1.0, rho=np.log(2.0), k_max=1)
        assert d.gramian_power_bound(cert, 1.0, 0) == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_per_step_factor(self):
        cert = d.StabilityCertificate(tau=2.0, rho=0.3, k_max=1)
        for m in range(5):
            ratio = d.gramian_power_bound(cert, 1.7, m + 1) / d.gramian_power_bound(cert, 1.7, m)
            assert ratio == pytest.approx(np.exp(-0.3), rel=1e-12)

    def test_demo_measured_norms_below_bound(self, demo_system, demo_gramian):
        cert = d.estimate_certificate(demo_system.A)
        normQ = np.linalg.norm(demo_system.Q, 2)
        P = np.eye(3)
        for m in range(51):
            measured = np.linalg.norm(demo_gramian @ P, 2)
            assert measured <= d.gramian_power_bound(cert, normQ, m)
            P = P @ demo_system.A

    def test_negative_power_rejected(self):
        cert = d.StabilityCertificate(tau=1.0, rho=1.0, k_max=1)
        with pytest.raises(ValueError):
            d.gramian_power_bound(cert, 1.0, -1)
