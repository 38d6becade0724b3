"""Discrete algebraic Riccati equation with cross term, and the optimal gain.

The DARE solved here is the fixed point of

    P = A'PA - (A'PB + S') (R + B'PB)^{-1} (B'PA + S) + Q ,

whose solution defines the optimal state-feedback gain

    K = -(R + B'PB)^{-1} (B'PA + S) ,

with closed loop A + BK.  The solver is a plain fixed-point iteration from
P_0 = Q: no acceleration, no external solver, monotone for this problem class
and easy to audit.  Inner solves use a Cholesky factorization of R + B'PB;
if that factorization fails the standing positive-definiteness assumption has
been violated somewhere upstream and we raise rather than regularize.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .exceptions import NoConvergence, SingularInnerSolve
from .model import LQRSystem, spectral_norm

__all__ = ["RiccatiSolution", "solve_dare", "dare_residual"]


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


def _dare_step(sys: LQRSystem, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One Riccati iteration; returns (P_next, K) for the current P."""
    inner = sys.R + sys.B.T @ P @ sys.B
    inner = (inner + inner.T) / 2.0
    try:
        chol = scipy.linalg.cho_factor(inner, check_finite=False)
    except np.linalg.LinAlgError as exc:  # scipy.linalg.LinAlgError is the same class
        raise SingularInnerSolve(f"R + B'PB is not positive definite: {exc}") from exc
    rhs = sys.B.T @ P @ sys.A + sys.S
    K = -scipy.linalg.cho_solve(chol, rhs, check_finite=False)
    P_next = sys.A.T @ P @ sys.A + rhs.T @ K + sys.Q
    return (P_next + P_next.T) / 2.0, K


def solve_dare(sys: LQRSystem, tol: float = 1e-12, max_iter: int = 100000) -> RiccatiSolution:
    """Solve the DARE by fixed-point iteration from P_0 = Q.

    Iterates until ||P_next - P|| <= tol * ||P|| (spectral norms), then
    recomputes K from the converged P and reports the DARE defect.  Failure to
    converge within ``max_iter`` signals an unstabilizable pair (or a tol
    below what the conditioning supports) and raises :class:`NoConvergence`.
    """
    P = sys.Q.copy()
    for it in range(1, max_iter + 1):
        P_next, _ = _dare_step(sys, P)
        if not np.all(np.isfinite(P_next)):
            raise NoConvergence(
                f"DARE iteration diverged to non-finite values at step {it} "
                f"(pair (A, B) is likely not stabilizable)"
            )
        if spectral_norm(P_next - P) <= tol * max(spectral_norm(P), 1e-300):
            P = P_next
            break
        P = P_next
    else:
        raise NoConvergence(
            f"DARE iteration did not meet tol={tol:g} within {max_iter} steps"
        )
    _, K = _dare_step(sys, P)
    return RiccatiSolution(
        P=P,
        K=K,
        residual_norm=dare_residual(P, sys),
        iterations=it,
    )


def dare_residual(P, sys: LQRSystem) -> float:
    """||A'PA - (A'PB + S')(R + B'PB)^{-1}(B'PA + S) + Q - P|| for given P."""
    P = np.atleast_2d(np.asarray(P, dtype=float))
    P_next, _ = _dare_step(sys, P)
    return spectral_norm(P_next - P)
