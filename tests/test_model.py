import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.random import default_rng

import drclqr as d
from conftest import SYSTEMS_DIR
from drclqr import model
from drclqr.cli import load_system_file, run_sweep
from oracles import assert_envelope, power_growth_radius, random_system, scan_certificate


def scalar_system(a=0.5, b=1.0, q=1.0, r=1.0, s=0.0):
    return d.LQRSystem(A=[[a]], B=[[b]], Q=[[q]], R=[[r]], S=[[s]])


class TestValidateSystem:
    def test_identity_case(self):
        rep = d.validate_system(scalar_system(a=0.0))
        assert rep.accepted
        assert rep.lambda_min_joint == pytest.approx(1.0, abs=1e-12)

    def test_demo_system_accepted(self, demo_system):
        rep = d.validate_system(demo_system)
        assert rep.accepted
        assert rep.lambda_min_joint > 0.0
        # frozen reference value, computed once by an eigensolve of the
        # 4x4 joint block and pinned here
        assert rep.lambda_min_joint == pytest.approx(0.5494938695158799, rel=1e-9)

    def test_joint_block_with_large_cross_term_rejected(self):
        # joint block [[1, 2], [2, 1]] has eigenvalues 1 +/- 2
        with pytest.raises(d.NotPositiveDefinite) as exc:
            d.validate_system(scalar_system(s=2.0))
        assert exc.value.lambda_min == pytest.approx(-1.0, abs=1e-12)
        assert exc.value.report.lambda_min_joint == pytest.approx(-1.0, abs=1e-12)

    def test_joint_pd_implies_blocks_pd(self):
        rng = default_rng(3)
        for _ in range(25):
            sys_ = random_system(rng)
            rep = d.validate_system(sys_)
            assert rep.lambda_min_joint > 0.0
            assert rep.lambda_min_Q > 0.0
            assert rep.lambda_min_R > 0.0


class TestLQRSystemIngestion:
    def test_small_asymmetry_is_symmetrized(self):
        Q = np.array([[1.0, 1e-13], [0.0, 1.0]])
        sys_ = d.LQRSystem(A=np.zeros((2, 2)), B=np.eye(2), Q=Q, R=np.eye(2), S=np.zeros((2, 2)))
        assert np.array_equal(sys_.Q, sys_.Q.T)

    def test_gross_asymmetry_rejected(self):
        Q = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(d.AsymmetricMatrix):
            d.LQRSystem(A=np.zeros((2, 2)), B=np.eye(2), Q=Q, R=np.eye(2), S=np.zeros((2, 2)))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(A=[[0.0, 0.0]]),  # A not square
            dict(B=[[1.0], [0.0]]),  # B rows != n_x
            dict(S=[[0.0, 0.0]]),  # S cols != n_x
            dict(R=[[1.0, 0.0]]),  # R not square
            dict(A=np.full((1, 1, 1), 0.5)),  # A not a matrix
        ],
    )
    def test_shape_mismatches(self, kwargs):
        base = dict(A=[[0.5]], B=[[1.0]], Q=[[1.0]], R=[[1.0]], S=[[0.0]])
        base.update(kwargs)
        with pytest.raises(d.DimensionMismatch):
            d.LQRSystem(**base)

    @pytest.mark.parametrize("n_x, n_u", [(2, 0), (0, 2)])
    def test_empty_matrices_rejected(self, n_x, n_u):
        # an empty B or A used to construct and then crash validate_system with an IndexError
        with pytest.raises(d.DimensionMismatch, match="no entries"):
            d.validate_system(
                d.LQRSystem(
                    A=np.zeros((n_x, n_x)), B=np.zeros((n_x, n_u)), Q=np.eye(n_x), R=np.eye(n_u), S=np.zeros((n_u, n_x))
                )
            )

    def test_non_finite_entries_rejected(self):
        with pytest.raises(d.DimensionMismatch):
            d.LQRSystem(A=[[np.nan]], B=[[1.0]], Q=[[1.0]], R=[[1.0]], S=[[0.0]])

    def test_matrices_are_frozen(self, demo_system):
        with pytest.raises(ValueError):
            demo_system.A[0, 0] = 99.0


class TestSpectralRadius:
    def test_scalar(self):
        assert d.spectral_radius([[0.5]]) == 0.5

    def test_nilpotent(self):
        assert d.spectral_radius([[0.0, 1.0], [0.0, 0.0]]) == 0.0

    def test_demo_matches_power_growth(self, demo_system):
        sr = d.spectral_radius(demo_system.A)
        assert 0.0 < sr < 1.0
        assert sr == pytest.approx(power_growth_radius(demo_system.A, k=2000), rel=2e-3)

    def test_transpose_invariance(self):
        rng = default_rng(11)
        for _ in range(20):
            M = rng.normal(size=(5, 5))
            assert d.spectral_radius(M.T) == pytest.approx(d.spectral_radius(M), rel=1e-10, abs=1e-12)


class TestSpectralNorm:
    @pytest.mark.parametrize("shape", [(1, 6), (6, 1), (6, 6)], ids=["rows", "columns", "square"])
    def test_a_stack_gives_each_matrix_its_two_norm(self, shape):
        # one batched call, bit for bit the per-matrix np.linalg.norm(., 2)
        stack = default_rng(26).normal(size=(7,) + shape)
        assert np.array_equal(d.spectral_norm(stack), [np.linalg.norm(M, 2) for M in stack])

    def test_a_matrix_gives_one_value(self):
        M = default_rng(27).normal(size=(4, 3))
        for X in (M, M.tolist(), M[0], 2.5):
            value = d.spectral_norm(X)
            assert np.ndim(value) == 0
            assert value == float(np.linalg.norm(np.atleast_2d(X), 2))


class TestStabilityCertificate:
    @pytest.mark.parametrize(
        "tau, rho, method",
        [
            (0.5, 1.0, "scan"),
            (1.0, 0.0, "scan"),
            (np.nan, 1.0, "scan"),
            (1.0, np.nan, "scan"),
            (np.nan, np.nan, "scan"),
            (1.0, 1.0, "x"),
        ],
        ids=["tau-below-one", "rho-zero", "tau-nan", "rho-nan", "both-nan", "unknown-method"],
    )
    def test_out_of_range_or_nan_rejected(self, tau, rho, method):
        with pytest.raises(ValueError):
            d.StabilityCertificate(tau=tau, rho=rho, k_max=1, method=method)


class TestEstimateCertificate:
    def test_scalar_half(self):
        cert = d.estimate_certificate([[0.5]])
        assert cert.rho == pytest.approx(-0.99 * np.log(0.5))
        assert cert.tau == 1.0

    def test_nilpotent_scalar_zero(self):
        cert = d.estimate_certificate([[0.0]])
        assert cert.rho == 10.0
        assert cert.tau == 1.0

    def test_certificate_invariant_rescan(self, demo_system):
        A = demo_system.A
        cert = d.estimate_certificate(A)
        P = np.eye(3)
        for k in range(cert.k_max + 1):
            assert d.spectral_norm(P) <= cert.decay(k) + 1e-12
            P = P @ A

    def test_unstable_rejected(self):
        with pytest.raises(d.Unstable):
            d.estimate_certificate([[1.0]])
        with pytest.raises(d.Unstable):
            d.estimate_certificate([[1.5]])

    def test_near_marginal_scalar_closes_at_first_power(self):
        # 0.999 e^{rho} = 0.999^{0.01} < 1: the first power already certifies
        for cert in (d.estimate_certificate([[0.999]]), d.joint_certificate([[0.5]], [[0.999]])):
            assert cert.method == "scan"
            assert cert.k_max == 1
            assert cert.tau == 1.0
            assert cert.rho == -0.99 * np.log(0.999)

    def test_near_marginal_jordan_takes_lyapunov_fallback(self):
        J = 0.999 * np.eye(6) + np.eye(6, k=1)
        for cert in (d.estimate_certificate(J), d.joint_certificate([[0.5]], J)):
            assert cert.method == "lyapunov"
            assert cert.k_max <= 1
            assert 0.0 < cert.rho < -0.99 * np.log(0.999)
            assert_envelope(cert, J)

    @pytest.mark.parametrize("n, lam", [(6, 0.9), (6, 0.99), (10, 0.5), (10, 0.99)])
    def test_jordan_envelope_holds_beyond_the_scan(self, n, lam):
        # for J_6 a scan stopping at ||J^k|| <= 1e-12 (k = 519 and 6658) leaves
        # the envelope broken at every k from 520 to 3114 and from 6659 on; the
        # powers of J_10(0.5) underflow to exact zeros near k = 1160, before
        # ||J^k|| e^{rho k} falls below 1, and a scan taking those zeros at
        # face value would close with an infinite tau
        J = lam * np.eye(n) + np.eye(n, k=1)
        for cert in (d.estimate_certificate(J), d.joint_certificate([[0.5]], J)):
            assert_envelope(cert, J)
            assert cert.method == "lyapunov"
            assert np.isfinite(cert.tau)

    def test_scan_forms_each_power_once(self, monkeypatch):
        # k_max 565 lies in the chunk of powers 512..575 (chunks of 1, 2, 4,
        # then a quarter of each doubling up to 64), so the scan forms 575
        # powers, no power twice, and takes a singular value of each
        formed, row_powers = [], model.row_powers
        normed, spectral_norm = [], model.spectral_norm

        def counting_row_powers(R, A, H):
            formed.append(H)
            return row_powers(R, A, H)

        def counting_spectral_norm(M):
            normed.append(len(M))
            return spectral_norm(M)

        monkeypatch.setattr(model, "row_powers", counting_row_powers)
        monkeypatch.setattr(model, "spectral_norm", counting_spectral_norm)
        cert = d.estimate_certificate([[0.5, 10.0], [0.0, 0.3]])
        assert cert.method == "scan" and cert.k_max == 565
        assert sum(formed) == 575
        assert sum(formed) == sum(normed)

    def test_scan_takes_norms_up_to_the_certifying_chunk(self, monkeypatch):
        # the batch of powers 512..767 takes its norms in chunks of 64, and
        # 512..575 holds k_max 565, so 575 powers get a singular value, not 767
        normed, spectral_norm = [], model.spectral_norm

        def counting_spectral_norm(M):
            normed.append(len(M))
            return spectral_norm(M)

        monkeypatch.setattr(model, "spectral_norm", counting_spectral_norm)
        cert = d.estimate_certificate([[0.5, 10.0], [0.0, 0.3]])
        assert cert.method == "scan" and cert.k_max == 565
        assert sum(normed) <= 575

    @pytest.mark.parametrize(
        "m, corner",
        [
            (1, 0.02), (2, 0.048), (3, 0.05), (4, 0.053), (5, 0.056), (7, 0.064), (8, 0.068),
            (9, 0.072), (11, 0.08), (12, 0.083), (13, 0.087), (15, 0.094), (16, 0.098), (17, 0.101),
            (63, 0.235), (64, 0.238), (65, 0.24), (255, 1.15), (256, 1.16), (257, 1.166),
        ],
    )
    def test_scan_closes_at_chunk_boundaries(self, m, corner):
        # chunks start at powers 1, 2, 4, 8, 12, 16, ..., 64, 80, ..., 256,
        # 320, ...; each corner lies mid-way in the range of corners whose
        # certifying power is m, which falls just before, on or just after a
        # chunk's first power
        M = [[0.5, corner], [0.0, 0.3]]
        cert = d.estimate_certificate(M)
        tau, rho, k_max = scan_certificate([M])
        assert cert.method == "scan"
        assert cert.k_max == k_max == m
        assert cert.rho == rho
        assert cert.tau == pytest.approx(tau, rel=1e-9)

    def test_overflowing_powers_take_the_fallback(self):
        # stable (spectral radius 0.5), but the second power overflows: the scan
        # must stop there, without numpy's overflow warning, and not hand a
        # non-finite batch to the SVD, which would raise numpy's LinAlgError
        M = 0.5 * np.eye(3) + 1e200 * np.eye(3, k=1)
        with pytest.raises(d.NoConvergence, match="power scan .* Lyapunov fallback"):
            d.estimate_certificate(M)


    @pytest.mark.parametrize("n, lam, tau_proof", [(6, 0.99, 3.83e11), (10, 0.9, 5.53e11)])
    def test_lyapunov_tau_covers_the_exact_proof_constant(self, n, lam, tau_proof):
        # tau_proof is sqrt(cond(P)) for the fallback's P solved in 80-digit
        # arithmetic (mpmath, Kronecker form): 3.8396e11 for J_6(0.99) and
        # 5.5377e11 for J_10(0.9).  Any sound tau from P is at least that; a
        # lambda_min(P) read in floating point came out too large and gave
        # 2.18e11 and 2.68e11.
        cert = d.estimate_certificate(lam * np.eye(n) + np.eye(n, k=1))
        assert cert.method == "lyapunov"
        assert cert.tau >= tau_proof


class TestJointCertificate:
    def test_same_matrix_matches_single(self):
        single = d.estimate_certificate([[0.5]])
        joint = d.joint_certificate([[0.5]], [[0.5]])
        assert joint.rho == single.rho
        assert joint.tau == single.tau

    def test_rho_comes_from_slower_matrix(self):
        joint = d.joint_certificate([[0.5]], [[0.9]])
        assert joint.rho == pytest.approx(-0.99 * np.log(0.9))

    def test_demo_joint_covers_both(self, demo_system, demo_solution, demo_cert):
        A = demo_system.A
        A_cl = A + demo_system.B @ demo_solution.K
        for M in (A, A_cl):
            P = np.eye(3)
            for k in range(demo_cert.k_max + 1):
                assert d.spectral_norm(P) <= demo_cert.decay(k) + 1e-12
                P = P @ M

    def test_unstable_member_rejected(self):
        with pytest.raises(d.Unstable):
            d.joint_certificate([[0.5]], [[1.01]])

    @pytest.mark.parametrize(
        "A, A_cl, tau, rho, k_max",
        [
            ([[0.9, 1.0], [0.0, 0.5]], [[0.5, 0.0], [2.0, 0.9]], "0x1.421827c3119a4p+2", "0x1.ab3db91598344p-4", 1547),
            ([[0.8, 0.3], [0.0, 0.2]], [[0.5, 2.0], [0.0, 0.95]], "0x1.21ada3df14d75p+2", "0x1.9ffe22f5bfa45p-5", 2957),
            ([[0.9]], [[0.5, 1e200], [0.0, 0.3]], "0x1.73366fd10d667p+664", "0x1.ab3db91598344p-4", 785),
        ],
        ids=["equal-radii", "closed-loop-slower", "entries-overflow"],
    )
    def test_closed_loop_not_proven_faster_takes_both_passes(self, A, A_cl, tau, rho, k_max, eigvals_calls):
        # no radius proof can succeed (in the last case A_cl's squared norm
        # overflows at once), so both radii are read; pinned bit for bit
        cert = d.joint_certificate(A, A_cl)
        assert len(eigvals_calls) == 2
        assert (cert.tau, cert.rho, cert.k_max, cert.method) == (float.fromhex(tau), float.fromhex(rho), k_max, "scan")

    @pytest.mark.parametrize("M", [0.1 * np.ones((2, 3)), [0.1, 0.2]], ids=["2x3", "1-D"])
    def test_matrix_that_is_not_square_refused(self, M):
        # small enough for the radius proof's first test, which must not accept it
        with pytest.raises(d.DimensionMismatch, match="spectral radius needs a square matrix"):
            d.joint_certificate([[0.5]], M)

    def test_unstable_closed_loop_keeps_its_refusal(self, eigvals_calls):
        with pytest.raises(d.Unstable, match=r"^spectral radius 1\.2 >= 1; no decay certificate exists$"):
            d.joint_certificate(0.9 * np.eye(2), [[0.5, 3.0], [0.0, 1.2]])
        assert len(eigvals_calls) == 2

    def test_proof_gives_up_where_the_powers_sink(self, eigvals_calls):
        # radius 9e-4 lies below A's 1e-3, but the squared norm of M^64 sinks
        # below the underflow floor before the bound closes, so the proof gives
        # up and M's radius is read; its scan's powers sink at k = 100, so M
        # takes the Lyapunov fallback, which reuses that radius; pinned bit for
        # bit
        A, M = [[1e-3]], np.array([[9e-4, 9e6], [0.0, 9e-4]])
        assert not model._radius_below(M, (1.0 - model._PROOF_MARGIN) * 1e-3)
        cert = d.joint_certificate(A, M)
        assert eigvals_calls == [(1, 1), (2, 2)]
        assert (cert.tau, cert.rho, cert.k_max, cert.method) == (
            float.fromhex("0x1.1269bae49b866p+24"),
            float.fromhex("0x1.626e4687580b4p-1"),
            1,
            "lyapunov",
        )

    def test_proven_matrix_reads_its_radius_in_the_fallback(self, eigvals_calls, monkeypatch):
        # J6(0.99)'s scan fails at A's rate, so it takes the Lyapunov fallback
        # with the radius read in the loop; were it proven instead, the
        # fallback reads that radius itself and gives the same certificate
        A, M = [[0.99]], 0.99 * np.eye(6) + np.eye(6, k=1)
        read = d.joint_certificate(A, M)
        monkeypatch.setattr(model, "_radius_below", lambda M, r: True)
        proven = d.joint_certificate(A, M)
        assert eigvals_calls == [(1, 1), (6, 6)] * 2
        assert read.method == "lyapunov"
        assert proven == read

    def test_radius_proof_gives_up_on_a_rotation(self, monkeypatch):
        # a radius-1 rotation never closes the bound, so the proof stops after
        # _PROOF_SQUARINGS squarings, one squared norm per power
        taken = []
        vdot = np.vdot
        monkeypatch.setattr(np, "vdot", lambda a, b: taken.append(1) or vdot(a, b))
        assert not model._radius_below(np.array([[0.6, -0.8], [0.8, 0.6]]), 0.9)
        assert len(taken) == model._PROOF_SQUARINGS + 1

    @pytest.mark.parametrize(
        "name, tau, rho",
        [
            ("demo3x3", "0x1.4c2db7bb5f9a9p+2", "0x1.b7ef59654720fp-5"),
            ("scalar_stable", "0x1.0000000000000p+0", "0x1.5f57aa5633e79p-1"),
            ("scalar_unstable", "0x1.0000000000000p+0", "0x1.5f57aa5633e79p-1"),
        ],
    )
    def test_system_files_keep_their_certificate(self, name, tau, rho):
        # pinned bit for bit: the bundled systems' certificates must not move
        sys_, K0 = load_system_file(SYSTEMS_DIR / f"{name}.json")
        result = run_sweep(sys_ if K0 is None else d.transform(sys_, K0).transformed, 1)
        assert result.tau == float.fromhex(tau)
        assert result.rho == float.fromhex(rho)


@st.composite
def certifiable_matrices(draw):
    """A random matrix with spectral radius up to 0.99, a 6x6 Jordan block
    with eigenvalue 0.9 or 0.99, a 2x2 upper triangle whose large corner
    makes its scan close late (hundreds to thousands of powers), or an
    exactly nilpotent matrix."""
    rng = default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "jordan", "triangle", "nilpotent"]))
    if kind == "jordan":
        lam = draw(st.sampled_from([0.9, 0.99]))
        return lam * np.eye(6) + np.eye(6, k=1)
    if kind == "triangle":
        a, b = draw(st.floats(0.05, 0.9)), draw(st.floats(0.05, 0.9))
        return np.array([[a, draw(st.floats(1.0, 100.0))], [0.0, b]])
    n = draw(st.integers(1, 6))
    if kind == "nilpotent":
        # strictly upper triangular, relabelled by a permutation: powers vanish exactly
        perm = rng.permutation(n)
        return np.triu(rng.normal(size=(n, n)), k=1)[np.ix_(perm, perm)]
    M = rng.normal(size=(n, n))
    return M * (draw(st.floats(0.01, 0.99)) / d.spectral_radius(M))


class TestCertificateOracle:
    @settings(max_examples=100, deadline=None)
    @given(M=certifiable_matrices(), ratio=st.floats(0.5, 2.0))
    def test_radius_proof_agrees_with_the_eigenvalues(self, M, ratio):
        # the radius proof claims rho(M) < r only where eigvals agrees
        radius = d.spectral_radius(M)
        assume(radius > 0.0)  # the certificate asks for a proof below a positive radius only
        r = ratio * radius
        if model._radius_below(M, r):
            assert radius < r

    @settings(max_examples=50, deadline=None)
    @given(A=certifiable_matrices(), A_cl=certifiable_matrices())
    def test_joint_certificate_matches_brute_force(self, A, A_cl):
        cert = d.joint_certificate(A, A_cl)
        for M in (A, A_cl):
            assert_envelope(cert, M)
        if cert.method == "scan":
            tau, rho, _ = scan_certificate([A, A_cl])
            assert cert.rho == rho
            assert cert.tau == pytest.approx(tau, rel=1e-9)
