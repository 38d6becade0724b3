"""Finite-order disturbance-response controllers (DRC).

An H-order DRC chooses the input as a linear function of the H most recent
disturbances,

    u_t = L_1 w_{t-1} + L_2 w_{t-2} + ... + L_H w_{t-H} ,

with each L_k an n_u x n_x block.  For a stable plant the optimal blocks solve
one symmetric positive-definite linear system

    M L + J = 0 ,

where M and J are built from the plant, the weights, and the infinite-horizon
Gramian G (see :func:`assemble` for the block formulas).

The same optimum has a Riccati form.  Each disturbance's response is a
deterministic H-step LQR problem with terminal cost G, so the optimal
order-H DRC is the finite-horizon Riccati recursion started at P_0 = G: its
first block is that recursion's gain K_{H-1} and its cost is trace(P_H)
(Hager & Horowitz 1976; Bitmead & Gevers 1991).  :func:`order_gaps` reads
every order's gain gap and cost gap off one closed form of that recursion,
measured from the DARE's P, and :func:`optimal_drc` builds one order's
blocks from its gains with :func:`policy_from_gains`, a helper outside
``__all__`` that the command line's drc --h shares; neither factors M.
That is the library's route to the order-H optimum, and the only one the
command line takes: near marginal stability it keeps the digits a
factorization of M loses.
:func:`solve_drc` stays as the paper's equation, (M, J) from
:func:`assemble` solved densely, and is the check the recursion is held to.

The module also constructs the policy induced by a state-feedback gain K,
whose blocks are K(A+BK)^{k-1}, and evaluates the defect that truncating
the induced policy of the DARE's gain at order H leaves in the first H
block rows of the stationarity condition.  That defect decays
exponentially in H, which is what makes low-order DRCs good
approximations of state feedback.

Every block of J, of that defect and of an induced policy is a thin
n_u x n_x row times a power of A, A' or A+BK: J_d = J_1 A^{d-1}.  Each stack
is one (H, n_u, n_x) array from :func:`drclqr.model.row_powers`, one thin
product per block, O(H n_u n_x^2), with no running n_x x n_x power.  A
policy holds its blocks the same way, as one read-only (H, n_u, n_x) array.
The defect's Sylvester fixed point is solved by
:func:`drclqr.lyapunov.solve_dsylvester`, the package's one general Stein solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidHorizon
from .lyapunov import gramian, solve_dsylvester
from .model import LQRSystem, cholesky, row_powers

__all__ = [
    "DRCPolicy",
    "DRCSystemMatrices",
    "assemble",
    "solve_drc",
    "order_gaps",
    "optimal_drc",
    "induced_drc",
    "truncation_residual",
]


@dataclass(frozen=True)
class DRCPolicy:
    """An H-order disturbance-response controller: blocks L_1 ... L_H.

    ``blocks`` is given as any iterable of equally shaped blocks and held as
    one read-only (H, n_u, n_x) array; a scalar block reads as 1 x 1 and a
    1-D block as 1 x n_x, as :func:`numpy.atleast_2d` reads them.  Ragged,
    empty or higher-dimensional input, and blocks with no rows or columns,
    raise :class:`InvalidHorizon`.
    """

    blocks: np.ndarray

    def __post_init__(self):
        try:
            blocks = np.array(list(self.blocks), dtype=float)
        except ValueError as exc:  # ragged blocks
            raise InvalidHorizon(f"DRC blocks must share one shape: {exc}") from exc
        if not len(blocks):
            raise InvalidHorizon("a DRC policy needs at least one block")
        if not blocks.size:
            raise InvalidHorizon(f"DRC blocks need rows and columns, got blocks of shape {blocks.shape[1:]}")
        if blocks.ndim < 3:  # scalar or 1-D blocks
            blocks = blocks.reshape(len(blocks), 1, -1)
        if blocks.ndim != 3:
            raise InvalidHorizon(f"DRC blocks must be matrices, got blocks of shape {blocks.shape[1:]}")
        blocks.setflags(write=False)
        object.__setattr__(self, "blocks", blocks)

    @property
    def H(self) -> int:
        return self.blocks.shape[0]

    @property
    def n_u(self) -> int:
        return self.blocks.shape[1]

    @property
    def n_x(self) -> int:
        return self.blocks.shape[2]

    @property
    def first(self) -> np.ndarray:
        """L_1, the block that approximates the optimal state-feedback gain."""
        return self.blocks[0]

    def stacked(self) -> np.ndarray:
        """The blocks stacked vertically into an (H*n_u) x n_x matrix: a read-only view, no copy."""
        return self.blocks.reshape(-1, self.n_x)

    @staticmethod
    def from_stacked(L, H: int) -> "DRCPolicy":
        """Unstack an (H*n_u) x n_x solve result into its H blocks."""
        L = np.atleast_2d(np.asarray(L, dtype=float))
        if H < 1 or L.shape[0] % H != 0:
            raise InvalidHorizon(f"cannot split {L.shape[0]} rows into {H} equal blocks")
        return DRCPolicy(blocks=L.reshape(H, -1, L.shape[1]))


@dataclass(frozen=True)
class DRCSystemMatrices:
    """The assembled pair (M, J) whose solve M L = -J yields the optimal DRC."""

    M: np.ndarray
    J: np.ndarray
    H: int


def assemble(sys: LQRSystem, G, H: int) -> DRCSystemMatrices:
    """Build the order-H system matrices M ((H n_u) sq.) and J ((H n_u) x n_x).

    With G the infinite-horizon Gramian of (A, Q), block d of J is

        J_d = B'G A^d + S A^{d-1} = J_1 A^{d-1} ,

    and M is block-Toeplitz: block (k, m) depends only on d = k - m,

        T_0 = B'GB + R ,   T_d = J_d B  (d >= 1) ,

    with T_d below the diagonal and T_d' above it.  The J blocks are the
    thin row J_1 = B'GA + S times powers of A, one n_u x n_x product each,
    so assembly costs O(H n_u n_x^2) and forms no power of A; M is exactly
    symmetric.
    """
    if H < 1:
        raise InvalidHorizon(f"H must be >= 1, got {H}")
    A, B = sys.A, sys.B
    n_u = sys.n_u

    BtG = B.T @ G
    J = row_powers(BtG @ A + sys.S, A, H)

    T0 = BtG @ B + sys.R
    T = np.concatenate(((T0 + T0.T)[None] / 2.0, J[: H - 1] @ B))  # T_0 .. T_{H-1}
    # T_{-(H-1)} .. T_{H-1}, with T_{-d} = T_d'; block (k, m) is entry k - m
    lagged = np.concatenate((T[:0:-1].transpose(0, 2, 1), T))
    lags = np.arange(H)[:, None] - np.arange(H)[None, :] + (H - 1)
    M = lagged[lags].transpose(0, 2, 1, 3).reshape(H * n_u, H * n_u)
    return DRCSystemMatrices(M=M, J=J.reshape(H * n_u, sys.n_x), H=H)


def solve_drc(matrices: DRCSystemMatrices) -> DRCPolicy:
    """Solve M L = -J for the optimal order-H policy: the paper's equation.

    M is positive definite under the standing assumption (its smallest
    eigenvalue is floored by that of the Schur complement R - S Q^{-1} S'),
    so a Cholesky factorization that fails means an assumption was violated
    upstream, and raises :class:`NotPositiveDefinite` with a lambda_min
    estimate.  Once M has passed that refusal the solve is one LU call.
    Both factorizations are backward stable on a positive-definite M, so
    either leaves an error of about cond(M) eps, and numpy has no triangular
    solve that could reuse the Cholesky factor.  The price is flops: with
    N = H n_u, the refusal and the LU cost N^3/3 + 2N^3/3 against N^3/3 for
    the factor and its substitutions.  That is no difference at N = 60,
    1.05-1.5x the time at N = 200 and 1.4-2x at N = 1000.

    Near marginal stability both factorizations lose digits that
    :func:`optimal_drc` keeps, so the library's route to the order-H
    optimum is that function, and this solve stays as the paper's equation
    and its check.
    """
    cholesky(matrices.M, "assembled M")
    return DRCPolicy.from_stacked(np.linalg.solve(matrices.M, -matrices.J), matrices.H)


def order_gaps(sys: LQRSystem, P, K, H_max: int):
    """Gain gaps L_1^{(H)} - K and cost gaps of every order H = 1..H_max.

    P and K are the DARE's solution.  Returns (gain, cost): gain[H-1] is the
    n_u x n_x gap L_1^{(H)} - K and cost[H-1] the optimal order-H DRC's
    average cost minus trace(P).  Neither is a difference of two O(1)
    numbers, so both keep their relative accuracy where they fall far
    below eps.

    Riccati form.  Under the order-H DRC a disturbance w, entering the state
    at one step, is answered by the inputs L_1 w, ..., L_H w over the next H
    steps and then left to the open loop, whose cost-to-go is w' G w
    propagated by A; independent unit-covariance disturbances add their
    costs.  Choosing the blocks is therefore one deterministic H-step LQR
    problem per w, with terminal cost G, whose optimum is the linear feedback
    of the finite-horizon Riccati recursion P_0 = G, P_{j+1} = Ric(P_j), with
    gain K_j = -(R + B'P_jB)^{-1}(B'P_jA + S).  Its open-loop inputs are
    linear in w, so they are a DRC: L_1^{(H)} = K_{H-1}, and the optimal
    order-H cost is trace(P_H).

    Closed form.  Write F = A + BK, X = R + B'PB, Delta_j = P_j - P,
    V_i = F^i B and Gamma_j = sum_{i<j} V_i X^{-1} V_i'.  Then

        Delta_0 = A' Delta_0 A + K'XK ,
        Z_j = Delta_0 (I + Gamma_j Delta_0)^{-1} F^j ,
        Delta_j = (F^j)' Z_j ,     K_j - K = -X^{-1} V_j' Z_{j+1} .

    The first line is G = A'GA + Q minus the DARE P = A'PA + Q - K'XK, so
    Delta_0 = G - P is one Gramian with no cancellation.  For the rest,
    expand Ric(P + Delta) about P:

        Delta_{j+1} = F' Delta_j (I + B X^{-1} B' Delta_j)^{-1} F ,
        K_j - K = -X^{-1} B' Delta_j (I + B X^{-1} B' Delta_j)^{-1} F .

    Both right sides share Delta_j (I + C Delta_j)^{-1} F, C = B X^{-1} B'.
    Induction on j, with N_j = Delta_0 (I + Gamma_j Delta_0)^{-1} and
    Delta_j = (F^j)' N_j F^j (true at j = 0, where Gamma_0 = 0): the
    push-through identity F^j (I + C (F^j)' N F^j)^{-1} =
    (I + F^j C (F^j)' N)^{-1} F^j turns the shared factor into
    (F^j)' N_j (I + V_j X^{-1} V_j' N_j)^{-1} F^{j+1}, and

        N_j (I + V_j X^{-1} V_j' N_j)^{-1}
            = Delta_0 [(I + V_j X^{-1} V_j' N_j)(I + Gamma_j Delta_0)]^{-1}
            = Delta_0 (I + Gamma_{j+1} Delta_0)^{-1} = N_{j+1} ,

    so the shared factor is (F^j)' Z_{j+1}.  The gain gap of order H is
    -X^{-1} V_{H-1}' Z_H and the cost gap is trace(Delta_H), the entrywise
    product of F^H and Z_H, summed.  All orders take one stack of powers
    F^0..F^{H_max}, one cumulative sum for the Gamma_j and one batched
    n_x x n_x solve: O(H_max n_x^3), with nothing of size (H_max n_u)^2.
    """
    if H_max < 1:
        raise InvalidHorizon(f"H_max must be >= 1, got {H_max}")
    K = np.atleast_2d(np.asarray(K, dtype=float))
    A, B = sys.A, sys.B
    X = sys.R + B.T @ P @ B
    D0 = gramian(A, K.T @ X @ K)
    F = row_powers(np.eye(sys.n_x), A + B @ K, H_max + 1)  # F^0 .. F^{H_max}
    V = F[:H_max] @ B
    W = (F[:H_max] @ np.linalg.solve(X, B.T).T).transpose(0, 2, 1)  # X^{-1} V_i'
    Gamma = np.cumsum(V @ W, axis=0)  # Gamma_1 .. Gamma_{H_max}
    Z = D0 @ np.linalg.solve(np.eye(sys.n_x) + Gamma @ D0, F[1:])
    return -(W @ Z), np.sum(F[1:] * Z, axis=(1, 2))


def policy_from_gains(sys: LQRSystem, gains) -> DRCPolicy:
    """The order-H policy that answers a disturbance with the recursion's feedback.

    ``gains`` is the (H, n_u, n_x) stack K_0 .. K_{H-1} of the finite-horizon
    Riccati recursion, K + gain from :func:`order_gaps`.  The disturbance
    entering the state is answered by that feedback over the next H steps:
    with Phi_0 = I,

        L_k = K_{H-k} Phi_{k-1} ,     Phi_k = A Phi_{k-1} + B L_k ,

    so Phi_{k-1} is the state k - 1 steps after a unit disturbance: H
    n_x x n_x products.  :func:`optimal_drc` and the command line's drc --h,
    which also prints the order-H cost gap of the same :func:`order_gaps`
    call, build their policy here.
    """
    H = len(gains)
    blocks, Phi = np.empty_like(gains), np.eye(sys.n_x)
    for k in range(H):
        blocks[k] = gains[H - 1 - k] @ Phi
        Phi = sys.A @ Phi + sys.B @ blocks[k]
    return DRCPolicy(blocks=blocks)


def optimal_drc(sys: LQRSystem, P, K, H: int) -> DRCPolicy:
    """The optimal order-H policy, read off the finite-horizon Riccati recursion.

    P and K are the DARE's solution.  The recursion's gains are
    K_j = K + gain[j] from :func:`order_gaps`, and :func:`policy_from_gains`
    turns them into the blocks L_k = K_{H-k} Phi_{k-1}, Phi_{k-1} the state
    k - 1 steps after a unit disturbance.  This is the solution of
    :func:`solve_drc` on :func:`assemble`'s (M, J), with no system of size
    H n_u formed: O(H n_x^3).  Each gain keeps its accuracy where the dense
    solve loses digits, near marginal stability.
    """
    if H < 1:
        raise InvalidHorizon(f"H must be >= 1, got {H}")
    return policy_from_gains(sys, K + order_gaps(sys, P, K, H)[0])


def induced_drc(K, sys: LQRSystem, H: int) -> DRCPolicy:
    """First H blocks of the infinite-order policy induced by a gain K.

    Block k is K (A + BK)^{k-1}; block 1 is K itself, exactly.  Truncating at
    order H is what the approximation bounds in the bounds module quantify.
    """
    if H < 1:
        raise InvalidHorizon(f"H must be >= 1, got {H}")
    K = np.atleast_2d(np.asarray(K, dtype=float))
    return DRCPolicy(blocks=row_powers(K, sys.A + sys.B @ K, H))


def truncation_residual(sys: LQRSystem, G, K, H: int) -> np.ndarray:
    """Defect blocks left by the truncated induced policy, as an (H, n_u, n_x) array.

    Substituting the first H blocks of the induced infinite-order policy of
    the optimal gain K into the order-H stationarity condition leaves

        M @ stacked(induced) + J = E ,

    where block k of E collects the discarded tail.  Reindexing the tail sum
    collapses it into a discrete Sylvester fixed point: with

        W = -(A'GB + S') K,     Y = A'Y(A+BK) + W   (solved for Y),

    block k equals  B' (A')^{H-k} Y (A+BK)^H.  For the DARE's gain Y is
    G - P, the Delta_0 of :func:`order_gaps`.

    The identity needs the DARE's gain: the tail collapses through the
    optimality of K, so for any other K the two sides differ, and what this
    returns is the Sylvester tail series above, not the defect of that K's
    truncated policy.

    Y comes from the lyapunov
    module's public solve_dsylvester, which sums it to working precision,
    so this is the reference path; a brute-force tail summation is kept in
    the test suite as the independent oracle.  The thin rows B'(A')^j, j < H,
    come one product each and meet Z = Y (A+BK)^H in one batched product,
    so after the solve the blocks cost O(H n_u n_x^2 + n_x^3 log H), not H
    products of n_x x n_x matrices.

    G is the Gramian of (A, Q), which exists only for a stable A, so A's
    stability is a precondition of G and is not checked again here.  The
    tail converges exactly when rho(A) rho(A+BK) < 1, so A+BK itself may be
    unstable; the solve's stop test proves that product below 1, or the
    solve raises :class:`SingularPencil` naming it.  No eigenvalue pass is
    taken unless the doubling fails.
    """
    if H < 1:
        raise InvalidHorizon(f"H must be >= 1, got {H}")
    K = np.atleast_2d(np.asarray(K, dtype=float))
    A, B = sys.A, sys.B
    A_cl = A + B @ K
    W = -(A.T @ G @ B + sys.S.T) @ K
    Y = solve_dsylvester(A, A_cl, W)

    Z = Y @ np.linalg.matrix_power(A_cl, H)
    return row_powers(B.T, A.T, H)[::-1] @ Z  # block k: B'(A')^{H-k} Z
