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

Each step forms W_k^{-1} by one inversion and reads W_k^{-1} A_k and
W_k^{-1} G_k off it as products, with A_k' copied to a contiguous array once;
at n_x = 40 that is cheaper than one solve with the 2 n_x right-hand sides
[A_k, G_k], and the iterates differ from that solve's by round-off only.

H_k is the cost-to-go of the first 2^k steps of the folded problem, so it
rises monotonically to P, and A_k behaves like (A + BK)^{2^k}: each step
squares the remaining error, so the count of steps is about log2 of what a
plain fixed-point iteration needs.  The doubling stops at the first step
with max|H_{k+1} - H_k| <= ``_STEP_TOL`` max|H_{k+1}|, largest entries
compared, ``_STEP_TOL`` = 1e-12.  That constant sets no accuracy: the Newton
step below squares whatever error the doubling leaves in the gain, so any
threshold from 1e-8 to 1e-16 ends at the same K to round-off, and the
threshold is not a parameter.  The test compares entry magnitudes, never
their squares, so it cannot overflow to inf <= inf on the finite iterates of
an unstabilizable pair.  ``_DOUBLING_CAP`` = 64 steps stand for 2^64
fixed-point steps, so a solve that has not stopped by then never will.  The
doubling carries round-off of up to ~1e-12 relative on near-marginal plants,
so one Newton (Hewer) step follows: P is re-solved as the cost of the gain
it defines, one symmetric Stein solve by :func:`drclqr.lyapunov.gramian`.
Gain and residual come from one Riccati step at that P.  The package's one
positive-definiteness refusal, :func:`drclqr.model.cholesky`, checks that
its inner matrix R + B'PB (and, before the doubling, R itself) is positive
definite, and a plain solve follows; if a factorization fails the standing
positive-definiteness assumption has been violated somewhere upstream and
:class:`NotPositiveDefinite` is raised rather than regularized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import NoConvergence
from .lyapunov import gramian
from .model import LQRSystem, cholesky, spectral_norm

__all__ = ["RiccatiSolution", "solve_dare", "dare_residual"]

# Doubling steps before NoConvergence; step k covers 2^k fixed-point steps.
_DOUBLING_CAP = 64
# Stop once no entry of H moves by more than this share of H's largest entry.
_STEP_TOL = 1e-12


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
    cholesky(inner, "R + B'PB")
    rhs = sys.B.T @ P @ sys.A + sys.S
    K = -np.linalg.solve(inner, rhs)
    P_next = sys.A.T @ P @ sys.A + rhs.T @ K + sys.Q
    return (P_next + P_next.T) / 2.0, K


def solve_dare(sys: LQRSystem) -> RiccatiSolution:
    """Solve the DARE by structure-preserving doubling and one Newton step.

    Doubles until max|H_{k+1} - H_k| <= ``_STEP_TOL`` max|H_{k+1}| (largest
    entries); ``iterations`` is the number of doubling steps.  Then the gain K
    of the converged H is priced exactly, P = (A+BK)' P (A+BK) + Q + K'RK +
    S'K + K'S, by ``gramian(A+BK, Q + K'RK + S'K + K'S)``, and one Riccati
    step at that P gives both the final K and the reported DARE defect.
    Because that Newton step fixes K, the stop threshold sets no accuracy
    and is not a parameter (module docstring).
    Non-finite iterates, or no convergence within ``_DOUBLING_CAP`` steps,
    signal an unstabilizable pair and raise :class:`NoConvergence`; an R
    that is not positive definite raises :class:`NotPositiveDefinite`.
    """
    cholesky(sys.R, "R")
    R_inv_S, R_inv_Bt = np.hsplit(np.linalg.solve(sys.R, np.hstack((sys.S, sys.B.T))), [sys.n_x])
    A = sys.A - sys.B @ R_inv_S
    G = sys.B @ R_inv_Bt
    G = (G + G.T) / 2.0
    H = sys.Q - sys.S.T @ R_inv_S
    H = (H + H.T) / 2.0
    eye = np.eye(sys.n_x)
    for it in range(1, _DOUBLING_CAP + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            W_inv = np.linalg.inv(eye + G @ H)
            W_inv_A = W_inv @ A
            A_t = np.ascontiguousarray(A.T)
            H_next = H + A_t @ (H @ W_inv_A)
            G = G + A @ (W_inv @ G) @ A_t
            A = A @ W_inv_A
            H_next = (H_next + H_next.T) / 2.0
            G = (G + G.T) / 2.0
        if not (np.all(np.isfinite(H_next)) and np.all(np.isfinite(G)) and np.all(np.isfinite(A))):
            raise NoConvergence(
                f"DARE doubling diverged to non-finite values at step {it} "
                f"(pair (A, B) is likely not stabilizable)"
            )
        done = np.abs(H_next - H).max() <= _STEP_TOL * np.abs(H_next).max()
        H = H_next
        if done:
            break
    else:
        raise NoConvergence(f"DARE doubling did not settle within its cap of {_DOUBLING_CAP} steps")
    _, K = _dare_step(sys, H)
    F = sys.A + sys.B @ K
    P = gramian(F, sys.stage_weight(K))
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
