"""Discrete algebraic Riccati equation with cross term, and the optimal gain.

The DARE solved here is

    P = A'PA - (A'PB + S') (R + B'PB)^{-1} (B'PA + S) + Q ,

whose stabilizing solution defines the optimal state-feedback gain

    K = -(R + B'PB)^{-1} (B'PA + S) ,

with closed loop A + BK.  The solver is the structure-preserving doubling
algorithm (SDA; Chu, Fan & Lin 2005).  The cross term is folded in first,

    A_0 = A - B R^{-1} S,   G_0 = B R^{-1} B',   H_0 = Q - S' R^{-1} S ,

(H_0 is positive definite because the joint weight block is), and then, with
W_k = I + G_k H_k,

    A_{k+1} = A_k W_k^{-1} A_k
    G_{k+1} = G_k + A_k W_k^{-1} G_k A_k'
    H_{k+1} = H_k + A_k' H_k W_k^{-1} A_k .

H_k is the cost-to-go of the first 2^k steps of the folded problem, so it
rises monotonically to P, and A_k behaves like (A + BK)^{2^k}: each step
squares the remaining error, so the count of steps is about log2 of what a
plain fixed-point iteration needs.  The stop test ||H_{k+1} - H_k||_2 <=
tol ||H_{k+1}||_2 takes two singular value decompositions, so each step first
runs a Frobenius pre-test that can only answer "not yet": since
||X||_2 >= ||X||_F / sqrt(n) and ||H||_F >= ||H||_2, a step with
||H_{k+1} - H_k||_F > 2 sqrt(n) tol ||H_{k+1}||_F has
||H_{k+1} - H_k||_2 > 2 tol ||H_{k+1}||_2 and fails the stop test with a
factor 2 to spare for round-off.  The SVDs thus run only on near-converged
steps, and the step that stops, hence ``iterations``, is the one the
spectral test alone would pick.  ``_DOUBLING_CAP`` = 64 steps stand for 2^64
fixed-point steps, so a solve that has not stopped by then never will.  The
doubling carries round-off of up to ~1e-12 relative on near-marginal plants,
so one Newton (Hewer) step follows: P is re-solved as the cost of the gain
it defines, one Stein solve.  Gain and residual come from one Riccati step
at that P.  A Cholesky factorization checks that its inner matrix R + B'PB
(and, before the doubling, R itself) is positive definite, and a plain solve
follows; if a factorization fails the standing positive-definiteness
assumption has been violated somewhere upstream and we raise rather than
regularize.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import NoConvergence, SingularInnerSolve
from .lyapunov import solve_dsylvester
from .model import LQRSystem, spectral_norm

__all__ = ["RiccatiSolution", "solve_dare", "dare_residual"]

# Doubling steps before NoConvergence; step k covers 2^k fixed-point steps.
_DOUBLING_CAP = 64


@dataclass(frozen=True)
class RiccatiSolution:
    """Converged DARE solution: cost-to-go P, optimal gain K, diagnostics."""

    P: np.ndarray
    K: np.ndarray
    residual_norm: float
    iterations: int

    @property
    def trace_P(self) -> float:
        """trace(P) = optimal average cost under unit-covariance noise."""
        return float(np.trace(self.P))


def _check_pd(name: str, M: np.ndarray):
    """Raise :class:`SingularInnerSolve` unless M has a Cholesky factor."""
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise SingularInnerSolve(f"{name} is not positive definite: {exc}") from exc


def _dare_step(sys: LQRSystem, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One Riccati iteration; returns (P_next, K) for the current P."""
    inner = sys.R + sys.B.T @ P @ sys.B
    inner = (inner + inner.T) / 2.0
    _check_pd("R + B'PB", inner)
    rhs = sys.B.T @ P @ sys.A + sys.S
    K = -np.linalg.solve(inner, rhs)
    P_next = sys.A.T @ P @ sys.A + rhs.T @ K + sys.Q
    return (P_next + P_next.T) / 2.0, K


def solve_dare(sys: LQRSystem, tol: float = 1e-12) -> RiccatiSolution:
    """Solve the DARE by structure-preserving doubling and one Newton step.

    Doubles until ||H_{k+1} - H_k|| <= tol * ||H_{k+1}|| (spectral norms), so
    ``tol`` is the relative accuracy asked of P; ``iterations`` is the number
    of doubling steps.  The two singular value decompositions of that test run
    only on steps that pass a Frobenius pre-test, ||H_{k+1} - H_k||_F <=
    2 sqrt(n) tol ||H_{k+1}||_F; the module docstring says why the pre-test
    cannot change which step stops.  Then the gain K of the converged H is
    priced exactly, P = (A+BK)' P (A+BK) + Q + K'RK + S'K + K'S, and one
    Riccati step at that P gives both the final K and the reported DARE
    defect.  Non-finite iterates, or no convergence within ``_DOUBLING_CAP``
    steps, signal an unstabilizable pair (or a tol below what the
    conditioning supports) and raise :class:`NoConvergence`; an R that is not
    positive definite raises :class:`SingularInnerSolve`.  A tol that is not
    finite and positive raises ``ValueError`` before any work is done.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    _check_pd("R", sys.R)
    R_inv_S, R_inv_Bt = np.hsplit(np.linalg.solve(sys.R, np.hstack((sys.S, sys.B.T))), [sys.n_x])
    A = sys.A - sys.B @ R_inv_S
    G = sys.B @ R_inv_Bt
    G = (G + G.T) / 2.0
    H = sys.Q - sys.S.T @ R_inv_S
    H = (H + H.T) / 2.0
    n = sys.n_x
    eye = np.eye(n)
    pretest = 2.0 * np.sqrt(n) * tol
    for it in range(1, _DOUBLING_CAP + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            solved = np.linalg.solve(eye + G @ H, np.hstack((A, G)))  # W^{-1} [A, G]
            H_next = H + A.T @ H @ solved[:, :n]
            G = G + A @ solved[:, n:] @ A.T
            A = A @ solved[:, :n]
            H_next = (H_next + H_next.T) / 2.0
            G = (G + G.T) / 2.0
        if not (np.all(np.isfinite(H_next)) and np.all(np.isfinite(G)) and np.all(np.isfinite(A))):
            raise NoConvergence(
                f"DARE doubling diverged to non-finite values at step {it} "
                f"(pair (A, B) is likely not stabilizable)"
            )
        step = H_next - H
        done = (
            np.linalg.norm(step) <= pretest * max(np.linalg.norm(H_next), 1e-300)
            and spectral_norm(step) <= tol * max(spectral_norm(H_next), 1e-300)
        )
        H = H_next
        if done:
            break
    else:
        raise NoConvergence(f"DARE doubling did not meet tol={tol:g} within its cap of {_DOUBLING_CAP} steps")
    _, K = _dare_step(sys, H)
    F = sys.A + sys.B @ K
    P = solve_dsylvester(F, F, sys.Q + K.T @ sys.R @ K + sys.S.T @ K + K.T @ sys.S)
    P = (P + P.T) / 2.0
    P_next, K = _dare_step(sys, P)
    return RiccatiSolution(
        P=P,
        K=K,
        residual_norm=spectral_norm(P_next - P),  # dare_residual(P, sys) from the same step
        iterations=it,
    )


def dare_residual(P, sys: LQRSystem) -> float:
    """||A'PA - (A'PB + S')(R + B'PB)^{-1}(B'PA + S) + Q - P|| for given P."""
    P = np.atleast_2d(np.asarray(P, dtype=float))
    P_next, _ = _dare_step(sys, P)
    return spectral_norm(P_next - P)
