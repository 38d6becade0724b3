"""Infinite-horizon Gramian accumulation and discrete Sylvester solves.

Both fixed points the package needs, the Gramian G = A'GA + Q and the
truncation-defect identity Y = A'Y(A+BK) + W, are instances of the discrete
Sylvester (Stein) equation A'XB + C = X, and one solver serves both:

* :func:`solve_dsylvester` is the Bartels-Stewart method in its discrete
  form (Bartels & Stewart 1972; Kitagawa 1977).  It takes the complex Schur
  forms A = Z_a T_a Z_a* and B = Z_b T_b Z_b*, one form when B is A.  For real
  A, A' = Z_a T_a^H Z_a*, so Y = Z_a* X Z_b solves T_a^H Y T_b + Z_a* C Z_b = Y,
  whose rows follow one by one, each from one transposed triangular system,
  O(n^3) in all.  The solution is unique iff no eigenvalue product
  lambda_i(A)*mu_j(B) equals 1.
* :func:`gramian` is that solve with B = A and C = Q, symmetrized.  G is the
  series sum_{t>=0} (A^t)' Q A^t and exists iff A is stable; the stability
  check reads the spectral radius off the same Schur diagonal.

scipy is imported inside the functions that use it, so importing the package
needs numpy only.  Nothing is imported from :mod:`drclqr.model`, which
imports :func:`solve_dsylvester` for its Lyapunov certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionMismatch, SingularPencil, Unstable

__all__ = ["Gramian", "gramian", "solve_dsylvester"]

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


def _schur(M):
    """Complex Schur form M = Z T Z* of a real square matrix, as (T, Z)."""
    from scipy.linalg import schur

    return schur(M, output="complex")


def _radius(form) -> float:
    """Spectral radius read off the diagonal of a Schur form from :func:`_schur`."""
    return float(np.max(np.abs(np.diag(form[0]))))


def _solve_schur(sa, sb, C) -> np.ndarray:
    """Solve A'XB + C = X given the Schur forms sa of A and sb of B.

    The row recurrence is the one :func:`solve_dsylvester` documents.
    """
    from scipy.linalg.lapack import ztrtrs

    Ta, Za = sa
    Tb, Zb = sb
    lam = np.diag(Ta).conj()
    closest = float(np.min(np.abs(1.0 - np.outer(lam, np.diag(Tb)))))
    if closest <= PENCIL_TOL:
        raise SingularPencil(
            f"eigenvalue product within {closest:.3e} of 1; A'XB + C = X has no unique solution"
        )

    F = Za.conj().T @ C @ Zb
    Y = np.empty_like(F)
    Tb = np.asfortranarray(Tb)
    eye = np.eye(Tb.shape[0], order="F")
    for i in range(F.shape[0]):
        rhs = F[i] + (Ta[:i, i].conj() @ Y[:i]) @ Tb
        Y[i], info = ztrtrs(eye - lam[i] * Tb, rhs, trans=1)
        if info != 0:
            raise SingularPencil(f"triangular solve of row {i} failed (LAPACK info {info})")
    return (Za @ Y @ Zb.conj().T).real


def gramian(A, Q) -> Gramian:
    """Solve G = A'GA + Q, whose solution is G = sum_{t>=0} (A^t)' Q A^t.

    One Schur form of A serves both sides of the Stein solve.  The result is
    symmetrized (the solve preserves symmetry up to round-off) and the
    Lyapunov defect ||A'GA + Q - G|| is reported.

    Raises :class:`Unstable` when the spectral radius of A, read off its
    Schur diagonal, is >= 1: the series diverges and G is undefined.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    if A.shape[0] != A.shape[1] or A.shape != Q.shape:
        raise DimensionMismatch(f"gramian needs square A and Q of equal shape, got {A.shape} and {Q.shape}")
    form = _schur(A)
    sr = _radius(form)
    if sr >= 1.0:
        raise Unstable(f"spectral radius {sr:.6g} >= 1; the Gramian series diverges")

    G = _solve_schur(form, form, Q)
    G = (G + G.T) / 2.0
    defect = float(np.linalg.norm(A.T @ G @ A + Q - G, 2))
    return Gramian(G=G, defect=defect)


def solve_dsylvester(A, B, C) -> np.ndarray:
    """Solve the discrete Sylvester equation  A'XB + C = X  for X.

    Takes the complex Schur forms A = Z_a T_a Z_a* and B = Z_b T_b Z_b*
    (T_a, T_b upper triangular); when ``B is A`` the one form of A serves
    both.  Since A is real, A' = Z_a T_a^H Z_a*, so Y = Z_a* X Z_b satisfies
    T_a^H Y T_b + Z_a* C Z_b = Y, and T_a^H is lower triangular: row i of Y
    solves the transposed triangular system

        y_i (I - conj(t_ii) T_b) = f_i + (sum_{k<i} conj(T_a[k,i]) y_k) T_b

    once the rows above it are known, with f_i row i of Z_a* C Z_b.  The
    diagonals of T_a and T_b are the eigenvalues lambda_i(A) and mu_j(B);
    :class:`SingularPencil` is raised when some |1 - conj(lambda_i) mu_j| is
    at most ``PENCIL_TOL``.
    """
    same = B is A
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = A if same else np.atleast_2d(np.asarray(B, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    n = A.shape[0]
    if A.shape != (n, n) or B.shape != (n, n) or C.shape != (n, n):
        raise DimensionMismatch(
            f"solve_dsylvester needs three n x n matrices, got {A.shape}, {B.shape}, {C.shape}"
        )
    sa = _schur(A)
    return _solve_schur(sa, sa if same else _schur(B), C)
