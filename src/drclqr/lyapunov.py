"""Infinite-horizon Gramian accumulation and discrete Sylvester solves.

Both fixed points the package needs, the Gramian G = A'GA + Q and the
truncation-defect identity Y = A'Y(A+BK) + W, are instances of the discrete
Sylvester (Stein) equation A'XB + C = X, and one solver serves both:

* :func:`solve_dsylvester` is the Bartels-Stewart method adapted to the
  discrete case: complex Schur forms of A' and B reduce the equation to n
  triangular solves, O(n^3) in all.  The solution is unique iff no
  eigenvalue product lambda_i(A)*mu_j(B) equals 1.
* :func:`gramian` is that solve with B = A and C = Q, symmetrized.  G is the
  series sum_{t>=0} (A^t)' Q A^t and exists iff A is stable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import schur, solve_triangular

from .exceptions import DimensionMismatch, SingularPencil, Unstable
from .model import StabilityCertificate, spectral_norm, spectral_radius

__all__ = ["Gramian", "gramian", "solve_dsylvester", "gramian_power_bound"]

# |lambda*mu - 1| at or below this means the Sylvester pencil is singular.
PENCIL_TOL = 1e-10


@dataclass(frozen=True)
class Gramian:
    """G = sum_{t>=0} (A^t)' Q A^t together with its fixed-point defect.

    ``defect`` is ||A'GA + Q - G|| (spectral norm), reported so callers can
    see how accurately the solve meets the fixed point.
    """

    G: np.ndarray
    defect: float


def gramian(A, Q) -> Gramian:
    """Solve G = A'GA + Q, whose solution is G = sum_{t>=0} (A^t)' Q A^t.

    One :func:`solve_dsylvester` call with B = A.  The result is symmetrized
    (the solve preserves symmetry up to round-off) and the Lyapunov defect
    ||A'GA + Q - G|| is reported.

    Raises :class:`Unstable` when spectral_radius(A) >= 1: the series
    diverges and G is undefined.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    if A.shape[0] != A.shape[1] or A.shape != Q.shape:
        raise DimensionMismatch(f"gramian needs square A and Q of equal shape, got {A.shape} and {Q.shape}")
    sr = spectral_radius(A)
    if sr >= 1.0:
        raise Unstable(f"spectral radius {sr:.6g} >= 1; the Gramian series diverges")

    G = solve_dsylvester(A, A, Q)
    G = (G + G.T) / 2.0
    defect = spectral_norm(A.T @ G @ A + Q - G)
    return Gramian(G=G, defect=defect)


def solve_dsylvester(A, B, C) -> np.ndarray:
    """Solve the discrete Sylvester equation  A'XB + C = X  for X.

    With complex Schur forms A' = U S U* and B = V T V* (S, T upper
    triangular), Z = U* X V satisfies S Z T + U* C V = Z, so column j of Z
    solves the triangular system

        (I - T_jj S) z_j = (U* C V)_j + S sum_{i<j} z_i T_ij

    once the columns before it are known.  The diagonals of S and T are the
    eigenvalues lambda_i(A) and mu_j(B); :class:`SingularPencil` is raised
    when some |1 - lambda_i mu_j| is at most ``PENCIL_TOL``.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    n = A.shape[0]
    if A.shape != (n, n) or B.shape != (n, n) or C.shape != (n, n):
        raise DimensionMismatch(
            f"solve_dsylvester needs three n x n matrices, got {A.shape}, {B.shape}, {C.shape}"
        )

    S, U = schur(A.T, output="complex")
    T, V = schur(B, output="complex")
    closest = float(np.min(np.abs(1.0 - np.outer(np.diag(S), np.diag(T)))))
    if closest <= PENCIL_TOL:
        raise SingularPencil(
            f"eigenvalue product within {closest:.3e} of 1; A'XB + C = X has no unique solution"
        )

    F = U.conj().T @ C @ V
    Z = np.empty_like(F)
    eye = np.eye(n)
    for j in range(n):
        rhs = F[:, j] + S @ (Z[:, :j] @ T[:j, j])
        Z[:, j] = solve_triangular(eye - T[j, j] * S, rhs, check_finite=False)
    return (U @ Z @ V.conj().T).real


def gramian_power_bound(cert: StabilityCertificate, normQ: float, m: int) -> float:
    """Certified upper bound on ||G A^m||.

    With ||A^k|| <= tau e^{-rho k} the series for G A^m telescopes into

        ||G A^m|| <= tau^2 ||Q|| e^{-rho m} / (1 - e^{-2 rho}),

    which is what this returns.  Each increment of m multiplies the bound by
    e^{-rho}.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    decay = float(np.exp(-2.0 * cert.rho))
    return cert.tau**2 * normQ * float(np.exp(-cert.rho * m)) / (1.0 - decay)
