"""Independent oracles the tests compare production code against.

Everything here deliberately takes a different computational route from the
package: value iteration and scipy's QZ solver instead of the doubling DARE
solver, Kronecker and plain series summation instead of Smith doubling,
the exact long-run variance from two scipy Lyapunov solves instead of
batch means,
brute-force tail summation instead of the Sylvester closed form, power growth
instead of eigenvalues, fresh matrix powers instead of a running product, the
O(H^2)-block direct formulas instead of the block-Toeplitz assembly, the
same formulas in extended precision instead of thin float64 row products,
the Riccati recursion step by step in exact rationals or in 50-digit
mpmath instead of its float64 closed form, a
per-step rollout instead of the blocked one, the cosine and sine of the
Box-Muller angle instead of its half-angle tangent.  Slow is fine;
independent is the point.  The one exception is ``sda_iterations``, whose
docstring says why.
"""

from fractions import Fraction

import mpmath
import numpy as np
import scipy.linalg

from drclqr import (
    CostReport,
    DRCPolicy,
    DRCSystemMatrices,
    InvalidHorizon,
    LQRSystem,
    NonFinite,
    Unstable,
    spectral_radius,
    witness_plant,
)
from drclqr.cost import OVERFLOW_LIMIT, disturbance


def value_iteration_dare(sys_, steps=200):
    """Finite-horizon backward recursion in Joseph form.

    Each step computes the one-step gain and propagates
    P <- Acl'PAcl + Q + K'RK + K'S + S'K, which is algebraically the same
    fixed point as the production solver but a different code path (explicit
    closed-loop form, numpy solve instead of Cholesky).
    """
    P = sys_.Q.copy()
    K = None
    for _ in range(steps):
        inner = sys_.R + sys_.B.T @ P @ sys_.B
        K = -np.linalg.solve(inner, sys_.B.T @ P @ sys_.A + sys_.S)
        A_cl = sys_.A + sys_.B @ K
        P = A_cl.T @ P @ A_cl + sys_.Q + K.T @ sys_.R @ K + K.T @ sys_.S + sys_.S.T @ K
        P = (P + P.T) / 2.0
    return P, K


def exact_scalar_gaps(a, b, q, r, P, H_max: int):
    """Gain and cost gaps of every order of a scalar plant (S = 0), exactly.

    Runs the finite-horizon Riccati recursion p_{j+1} = Ric(p_j) from the
    Gramian p_0 = q / (1 - a^2) in ``Fraction`` arithmetic, one step per
    order: the order-H gain gap is K_{H-1} - K and the cost gap p_H - P.
    P must be the DARE's solution exactly, so the plant's data must make it
    rational; that is asserted.  Returns two lists of Fractions.
    """
    a, b, q, r, P = map(Fraction, (a, b, q, r, P))

    def gain(p):
        return -a * b * p / (r + b * b * p)

    def ric(p):
        return a * a * p + q + a * b * p * gain(p)

    assert ric(P) == P and abs(a + b * gain(P)) < 1, "P is not the stabilizing DARE solution"
    K = gain(P)
    p = q / (1 - a * a)
    gains, costs = [], []
    for _ in range(H_max):
        gains.append(gain(p) - K)
        p = ric(p)
        costs.append(p - P)
    return gains, costs


def mp_riccati_drc(sys, H: int, dps: int = 50) -> np.ndarray:
    """Blocks of the optimal order-H DRC, (H, n_u, n_x), by the plain recursion in mpmath.

    At ``dps`` digits: G from its Kronecker form (I - A' kron A') vec G =
    vec Q, one dense LU; then the Riccati recursion from P_0 = G, step by
    step, with gains K_j = -(R + B'P_jB)^{-1}(B'P_jA + S); then the blocks
    L_k = K_{H-k} Phi_{k-1}, Phi_0 = I, Phi_k = A Phi_{k-1} + B L_k.  No
    DARE and no closed form: the plant's float64 data, read exactly, are the
    only input, and the result is rounded to float64 once.
    """
    with mpmath.workdps(dps):
        A, B, Q, R, S = (mpmath.matrix(X.tolist()) for X in (sys.A, sys.B, sys.Q, sys.R, sys.S))
        n = A.rows
        # entry (i, j) of A'GA is sum_{k,l} A[k,i] G[k,l] A[l,j]; G[i,j] is unknown i + j n
        coeff = mpmath.eye(n * n)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        coeff[i + j * n, k + l * n] -= A[k, i] * A[l, j]
        g = mpmath.lu_solve(coeff, mpmath.matrix([Q[i, j] for j in range(n) for i in range(n)]))
        P = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(n):
                P[i, j] = g[i + j * n]
        gains = []
        for _ in range(H):
            K = -mpmath.inverse(R + B.T * P * B) * (B.T * P * A + S)
            gains.append(K)
            P = A.T * P * A + Q + (A.T * P * B + S.T) * K
        blocks, Phi = [], mpmath.eye(n)
        for k in range(1, H + 1):
            blocks.append(gains[H - k] * Phi)
            Phi = A * Phi + B * blocks[-1]
        return np.array([np.array(L.tolist(), dtype=float) for L in blocks])


def direct_assemble(sys, G, H: int) -> DRCSystemMatrices:
    """Build the order-H system matrices M ((H n_u) sq.) and J ((H n_u) x n_x).

    With G the infinite-horizon Gramian of (A, Q), block (k, m) of M is

        B'GB + R                                    k = m
        B'G A^{k-m} B + S A^{k-m-1} B               k > m
        B'(A^{m-k})'G B + B'(A^{m-k-1})' S'         k < m

    and block k of J is  B'G A^k + S A^{k-1}.  Powers of A are computed once,
    incrementally, and reused across blocks.  M is symmetric by construction
    up to round-off (the k < m formula is the transpose of the k > m one).
    Every block is its own product chain: O(H^2) products, test use only.
    """
    if H < 1:
        raise InvalidHorizon(f"H must be >= 1, got {H}")
    A, B, S = sys.A, sys.B, sys.S
    n_u = sys.n_u

    # A^0 .. A^H, built incrementally
    powers = [np.eye(sys.n_x)]
    for _ in range(H):
        powers.append(powers[-1] @ A)

    BtG = B.T @ G
    M = np.empty((H * n_u, H * n_u))
    for k in range(1, H + 1):
        for m in range(1, H + 1):
            if k == m:
                block = BtG @ B + sys.R
            elif k > m:
                d = k - m
                block = BtG @ powers[d] @ B + S @ powers[d - 1] @ B
            else:
                d = m - k
                block = B.T @ powers[d].T @ G @ B + B.T @ powers[d - 1].T @ S.T
            M[(k - 1) * n_u : k * n_u, (m - 1) * n_u : m * n_u] = block

    J = np.vstack([BtG @ powers[k] + S @ powers[k - 1] for k in range(1, H + 1)])
    return DRCSystemMatrices(M=M, J=J, H=H)


def extended_drc_rows(sys, G, H: int) -> np.ndarray:
    """J of the order-H system, (H n_u) x n_x, summed in extended precision.

    Block d is B'G A^d + S A^{d-1} with a running n x n power, as in
    :func:`direct_assemble`, but carried in ``np.longdouble`` (a 64-bit
    mantissa on x86) and rounded to float64 once at the end.  On a
    non-normal plant the float64 routes differ from one another by more than
    the better one's error; this one is a few hundred times closer to exact.
    """
    A, B, S, G = (np.asarray(X, dtype=np.longdouble) for X in (sys.A, sys.B, sys.S, G))
    BtG = B.T @ G
    power = np.eye(A.shape[0], dtype=np.longdouble)  # A^{d-1}
    rows = []
    for _ in range(H):
        rows.append(S @ power)
        power = power @ A
        rows[-1] = rows[-1] + BtG @ power
    return np.vstack(rows).astype(float)


def impulse_covariance(sys_, policy, t: int) -> np.ndarray:
    """State second moment after t disturbances under a DRC, from its definition.

    I + sum_{k=1}^{t-1} C_k C_k' with C_k = A^k + sum_{j=1}^{min(k, H)}
    A^{k-j} B L_j, every power of A formed afresh by ``matrix_power``, where
    the package carries one recursion C_k = A C_{k-1} + B L_k.
    """
    A, B, H = sys_.A, sys_.B, policy.H
    cov = np.eye(sys_.n_x)
    for k in range(1, t):
        C = np.linalg.matrix_power(A, k)
        for j in range(1, min(k, H) + 1):
            C = C + np.linalg.matrix_power(A, k - j) @ B @ policy.blocks[j - 1]
        cov += C @ C.T
    return cov


def witness_bound(n: int, H: int, t: int) -> np.ndarray:
    """The instability witness's lower bound from its definition.

    c sum_{k=0}^{t-H} A^k e_1 e_1' (A^k)' with c = ||e_1' A^H||^2 on the
    witness plant, every power formed afresh by ``matrix_power``, where the
    package takes both from running products of one row.
    """
    A = witness_plant(n).A
    row = np.linalg.matrix_power(A, H)[0]
    total = np.zeros((n, n))
    for k in range(t - H + 1):
        column = np.linalg.matrix_power(A, k)[:, 0]
        total += np.outer(column, column)
    return float(row @ row) * total


def kron_dsylvester(A, B, C):
    """Direct vectorized solve of A'XB + C = X (O(n^6), test use only).

    Column-major vec turns A'XB into (B' kron A') vec X.
    """
    n = A.shape[0]
    coeff = np.eye(n * n) - np.kron(B.T, A.T)
    x = np.linalg.solve(coeff, C.flatten(order="F"))
    return x.reshape((n, n), order="F")


def kron_gramian(A, Q):
    """Direct vectorized solve of G = A'GA + Q (O(n^6), test use only)."""
    return kron_dsylvester(A, A, Q)


def series_gramian(A, Q, tail=1e-14):
    """Explicit series sum_{t>=0} (A^t)'QA^t, cut when ||A^t||^2 ||Q|| <= tail."""
    G = np.zeros_like(Q)
    At = np.eye(A.shape[0])
    nq = np.linalg.norm(Q, 2)
    for _ in range(100000):
        G = G + At.T @ Q @ At
        At = At @ A
        if np.linalg.norm(At, 2) ** 2 * nq <= tail:
            break
    return G


def series_dsylvester(A, B, C, tol=1e-14, max_terms=100000):
    """X = sum_{j>=0} (A')^j C B^j, the expansion of A'XB + C = X."""
    X = np.zeros_like(C)
    term = C.copy()
    for _ in range(max_terms):
        X = X + term
        term = A.T @ term @ B
        if np.linalg.norm(term, 2) <= tol * (1.0 + np.linalg.norm(X, 2)):
            break
    return X + term


def series_truncation_residual(sys_, G, K, H, tol=1e-16, max_terms=100000):
    """Brute-force tail sum of the truncation defect blocks.

    Block k accumulates -B'(A')^{H-k+j} (A'GB + S') K (A+BK)^{H+j} over
    j >= 0, stopping when the term norm falls below tol relative to the sum.
    """
    A, B = sys_.A, sys_.B
    A_cl = A + B @ K
    core = -(A.T @ G @ B + sys_.S.T) @ K
    blocks = []
    for k in range(1, H + 1):
        left = np.linalg.matrix_power(A.T, H - k)
        right = np.linalg.matrix_power(A_cl, H)
        total = np.zeros((B.shape[1], A.shape[0]))
        for _ in range(max_terms):
            term = B.T @ left @ core @ right
            total = total + term
            if np.linalg.norm(term, 2) <= tol * max(1e-30, np.linalg.norm(total, 2)):
                break
            left = A.T @ left
            right = right @ A_cl
        blocks.append(total)
    return blocks


def power_growth_radius(M, k=2000):
    """||M^k||^{1/k}: converges to the spectral radius from the norm side."""
    P = np.linalg.matrix_power(M, k)
    return float(np.linalg.norm(P, 2) ** (1.0 / k))


def scipy_dare(sys_):
    """Stabilizing DARE solution from scipy, refined by one Newton step.

    scipy.linalg.solve_discrete_are (a QZ route) alone can sit a few 1e-12
    relative off on near-marginal plants; one Newton (Hewer) step, the cost
    of its gain through scipy.linalg.solve_discrete_lyapunov, brings it to
    round-off level.
    """
    P = scipy.linalg.solve_discrete_are(sys_.A, sys_.B, sys_.Q, sys_.R, s=sys_.S.T)
    K = -np.linalg.solve(sys_.R + sys_.B.T @ P @ sys_.B, sys_.B.T @ P @ sys_.A + sys_.S)
    F = sys_.A + sys_.B @ K
    W = sys_.Q + K.T @ sys_.R @ K + sys_.S.T @ K + K.T @ sys_.S
    P = scipy.linalg.solve_discrete_lyapunov(F.T, W)
    return (P + P.T) / 2.0


def sda_iterations(sys_, tol=1e-12, max_iter=100000):
    """Doubling steps plain SDA takes under the documented max-entry stop rule.

    The same recurrence as ``riccati.solve_dare``, on purpose: what this
    oracle checks is the stop decision and the step count, so the iterates
    must match bit for bit.  The rule is restated from the ``riccati`` docs,
    not imported: stop at the first step with max|H_{k+1} - H_k| <= tol
    max|H_{k+1}|, each side taken as the infinity norm of the flattened
    matrix, and with no cap short of ``max_iter``.
    """
    chol = scipy.linalg.cho_factor(sys_.R, check_finite=False)
    R_inv_S = scipy.linalg.cho_solve(chol, sys_.S, check_finite=False)
    A = sys_.A - sys_.B @ R_inv_S
    G = sys_.B @ scipy.linalg.cho_solve(chol, sys_.B.T, check_finite=False)
    G = (G + G.T) / 2.0
    H = sys_.Q - sys_.S.T @ R_inv_S
    H = (H + H.T) / 2.0
    n = A.shape[0]
    eye = np.eye(n)
    for it in range(1, max_iter + 1):
        solved = np.linalg.solve(eye + G @ H, np.hstack((A, G)))
        H_next = H + A.T @ H @ solved[:, :n]
        G = G + A @ solved[:, n:] @ A.T
        A = A @ solved[:, :n]
        H_next = (H_next + H_next.T) / 2.0
        G = (G + G.T) / 2.0
        done = np.linalg.norm((H_next - H).ravel(), np.inf) <= tol * np.linalg.norm(H_next.ravel(), np.inf)
        H = H_next
        if done:
            return it
    raise AssertionError(f"plain doubling did not meet tol={tol:g} within {max_iter} steps")


def scan_certificate(matrices, cap=10000):
    """Brute-force joint certificate: returns (tau, rho, k_max), or None.

    rho = min over the matrices of min(10, -0.99 ln r), r the largest
    eigenvalue modulus; then every power M^k is formed from scratch by
    np.linalg.matrix_power and its norm read as the top singular value, up to
    the first m >= 1 with ||M^m|| e^{rho m} <= 1.  tau = max ||M^k|| e^{rho k}
    over k < m of every matrix and k_max is the largest m.  None when some
    matrix has no such m <= cap.
    """
    matrices = [np.atleast_2d(np.asarray(M, dtype=float)) for M in matrices]
    rho = 10.0
    for M in matrices:
        r = float(np.max(np.abs(np.linalg.eigvals(M))))
        if r > 0.0:
            rho = min(rho, -0.99 * float(np.log(r)))
    tau, k_max = 1.0, 0
    for M in matrices:
        for m in range(1, cap + 1):
            nrm = float(np.linalg.svd(np.linalg.matrix_power(M, m), compute_uv=False)[0])
            if nrm * float(np.exp(rho * m)) <= 1.0:
                break
            tau = max(tau, nrm * float(np.exp(rho * m)))
        else:
            return None
        k_max = max(k_max, m)
    return tau, rho, k_max


def assert_envelope(cert, M, tol=1e-9):
    """||M^k|| <= tau e^{-rho k} at every k <= max(4 k_max, 2000) and at M^(2^j), j <= 14.

    Compared in log space; powers whose largest entry has left the normal
    floating-point range are skipped, since a subnormal product no longer
    tracks the true power.  n times the largest entry bounds the norm from
    above, so singular values are computed only where that bound is not
    enough.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    K = max(4 * cert.k_max, 2000)
    powers = [np.eye(M.shape[0])]
    for _ in range(K):
        powers.append(powers[-1] @ M)
    squares = [M]
    for _ in range(14):
        squares.append(squares[-1] @ squares[-1])
    powers = np.stack(powers + squares)
    ks = np.concatenate((np.arange(K + 1), 2.0 ** np.arange(15)))
    top = np.abs(powers).max(axis=(1, 2))
    normal = top >= np.finfo(float).tiny
    log_envelope = np.log(cert.tau) - cert.rho * ks[normal] + tol
    loose = np.log(M.shape[0] * top[normal]) > log_envelope
    norms = np.linalg.norm(powers[normal][loose], 2, axis=(1, 2))
    excess = np.log(norms) - log_envelope[loose]
    assert np.all(excess <= 0.0), f"envelope broken at k = {ks[normal][loose][np.argmax(excess)]:g}"


def random_system(rng, n_max=6, m_max=3, sr_range=(0.285, 0.95), margin=0.1):
    """A random accepted system with spectral radius drawn from sr_range."""
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    A = rng.normal(size=(n, n))
    sr = spectral_radius(A)
    while sr == 0.0:
        A = rng.normal(size=(n, n))
        sr = spectral_radius(A)
    return system_with_dynamics(rng, A * (rng.uniform(*sr_range) / sr), m, margin)


def system_with_dynamics(rng, A, m, margin=0.1):
    """A random accepted system around a given A: random B (n x m) and weights.

    The joint weight block is W W' + margin*I, sliced into Q, R, S, so it is
    positive definite by construction with eigenvalue floor >= margin.
    """
    n = A.shape[0]
    B = rng.normal(size=(n, m))
    W = rng.normal(size=(n + m, n + m))
    joint = W @ W.T + margin * np.eye(n + m)
    return LQRSystem(A=A, B=B, Q=joint[:n, :n], R=joint[n:, n:], S=joint[n:, :n])


def scaled_orthogonal(rng, n, radius):
    """radius times a random orthogonal matrix: every eigenvalue has modulus radius."""
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return radius * Q


def similar_jordan(rng, n, lam, size, cond=10.0):
    """T J T^{-1} with J = n/size Jordan blocks J_size(lam), cond(T) = cond.

    T is a random orthogonal matrix with columns scaled from 1 to cond, so
    the transient growth of A^k comes from the Jordan structure and T alike.
    """
    J = np.kron(np.eye(n // size), lam * np.eye(size) + np.eye(size, k=1))
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    T = Q * np.logspace(0.0, np.log10(cond), n)
    return T @ J @ np.linalg.inv(T)


def random_unstable_system(rng, n=3, m=1, sr=1.3, margin=0.1):
    """Like random_system but with spectral radius pushed above 1."""
    A = rng.normal(size=(n, n))
    return system_with_dynamics(rng, A * (sr / spectral_radius(A)), m, margin)


def box_muller_noise(seed: int, t0: int, m: int, n: int) -> np.ndarray:
    """Disturbances of steps t0 .. t0+m-1, shape (m, n), by textbook Box-Muller.

    Reads the Philox uniforms of the counter layout in the ``cost`` module
    docstring itself: step t takes the four doubles of each counter increment
    t*s+1 .. t*s+s, radii from the first p and angles from the next p.  Pair j
    is (r_j cos(2 pi u_j), r_j sin(2 pi u_j)), with numpy's ``cos`` and ``sin``.
    """
    p = -(-n // 2)
    s = -(-p // 2)  # four doubles per increment cover the 2p a step needs
    gen = np.random.Generator(np.random.Philox(key=seed, counter=t0 * s))
    u = gen.random(m * 4 * s).reshape(m, s * 4)
    radius = np.sqrt(-2.0 * np.log1p(-u[:, :p]))
    theta = 2.0 * np.pi * u[:, p : 2 * p]
    pairs = np.stack((radius * np.cos(theta), radius * np.sin(theta)), axis=-1)
    return pairs.reshape(m, 2 * p)[:, :n]


def _check_finite(x: np.ndarray, t: int):
    if not np.all(np.isfinite(x)) or float(np.max(np.abs(x))) > OVERFLOW_LIMIT:
        raise NonFinite(f"state overflow at step {t} (|x| > {OVERFLOW_LIMIT:g})", step=t)


def loop_simulate(sys: LQRSystem, controller, steps: int, burn_in: int = 1000, seed: int = 0) -> CostReport:
    """One Python iteration per step: the rollout ``simulate`` replaced.

    Draws step t's noise from ``disturbance(seed, t, n_x)``, keeps the DRC's
    disturbance history as a shifting vector and checks the state after every
    update.  It stores every cost and takes ``std_error`` from the stored
    array: floor(sqrt(n)) (at least two) batches of n // b consecutive costs.
    """
    if burn_in < 0 or steps <= burn_in:
        raise ValueError(f"need steps > burn_in >= 0, got steps={steps}, burn_in={burn_in}")
    steps = int(steps)
    burn_in = int(burn_in)
    n_x, n_u = sys.n_x, sys.n_u
    A, B, Q, R, S = sys.A, sys.B, sys.Q, sys.R, sys.S

    if isinstance(controller, DRCPolicy):
        if controller.n_x != n_x or controller.n_u != n_u:
            raise InvalidHorizon(
                f"policy blocks are {controller.n_u} x {controller.n_x}, system needs {n_u} x {n_x}"
            )
        H = controller.H
        # blocks side by side: u_t = L_flat @ [w_{t-1}; ...; w_{t-H}]
        L_flat = np.hstack(controller.blocks)
        hist = np.zeros(H * n_x)
        gain = None
    else:
        gain = np.atleast_2d(np.asarray(controller, dtype=float))
        sr = spectral_radius(A + B @ gain)
        if sr >= 1.0:
            raise Unstable(f"closed loop A+BK has spectral radius {sr:.6g} >= 1")

    x = np.zeros(n_x)
    costs = np.empty(steps - burn_in)
    for t in range(steps):
        u = gain @ x if gain is not None else L_flat @ hist
        if t >= burn_in:
            costs[t - burn_in] = x @ (Q @ x) + u @ (R @ u) + 2.0 * u @ (S @ x)
        w = disturbance(seed, t, n_x)
        x = A @ x + B @ u + w
        _check_finite(x, t)
        if gain is None:
            hist = np.concatenate((w, hist[: (H - 1) * n_x])) if H > 1 else w
    n = costs.size
    std_error = 0.0
    if n > 1:
        b = max(int(np.sqrt(n)), 2)
        means = costs[: b * (n // b)].reshape(b, -1).mean(axis=1)
        std_error = float(np.std(means, ddof=1) / np.sqrt(b))
    return CostReport(value=float(np.mean(costs)), method="monte_carlo", std_error=std_error)


def long_run_variance(F, M, E) -> float:
    """Long-run variance of the cost s_t' M s_t on the chain s_{t+1} = F s_t + E w_t.

    w_t ~ N(0, I) and F is stable; the limit of n Var(mean of n stationary
    costs).  With Sigma the stationary covariance, the lag-k covariance of
    two costs is 2 tr(M Sigma F'^k M F^k Sigma), and summing it over every
    lag with G = sum_k F'^k M F^k gives

        sigma^2 = 4 tr(G Sigma M Sigma) - 2 tr(M Sigma M Sigma) .

    Both Lyapunov solves are scipy's, not the package's Smith kernel.
    """
    sigma = scipy.linalg.solve_discrete_lyapunov(F, E @ E.T)
    G = scipy.linalg.solve_discrete_lyapunov(F.T, M)
    return float(4.0 * np.trace(G @ sigma @ M @ sigma) - 2.0 * np.trace(M @ sigma @ M @ sigma))


def drc_chain(sys: LQRSystem, policy: DRCPolicy):
    """(F, M, E) of an order-H DRC's chain s_t = (x_t, w_{t-1}, ..., w_{t-H}).

    s_{t+1} = F s_t + E w_t with E = [I; I; 0; ...; 0], and the stage cost is
    s_t' M s_t with M = C'WC: W is the joint weight and C s_t = [x_t; u_t],
    u_t = sum_k L_k w_{t-k}.
    """
    n, H = sys.n_x, policy.H
    L = np.hstack(policy.blocks)
    F = np.zeros((n * (H + 1), n * (H + 1)))
    F[:n, :n] = sys.A
    F[:n, n:] = sys.B @ L
    F[2 * n :, n:-n] = np.eye(n * (H - 1))  # w_{t-k} moves to slot k + 1
    E = np.zeros((n * (H + 1), n))
    E[:n] = E[n : 2 * n] = np.eye(n)
    C = scipy.linalg.block_diag(np.eye(n), L)
    return F, C.T @ sys.joint_weight() @ C, E
