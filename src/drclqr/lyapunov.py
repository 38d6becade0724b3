"""Infinite-horizon Gramian accumulation and discrete Sylvester solves.

Every fixed point the package needs is an instance of the discrete Sylvester
(Stein) equation A'XB + C = X.  The symmetric ones (B = A, C symmetric) all
go through :func:`gramian`: the Gramian G = A'GA + Q, the cost of a gain in
the DARE's Newton step and in the cost module, and the Lyapunov certificate.
The one general pencil in the package is the truncation-defect identity
Y = A'Y(A+BK) + W; :func:`solve_dsylvester` is the public general solve.
For rho(A) rho(B) < 1 the solution is the series
X = sum_{k>=0} (A^k)' C B^k, which one kernel sums by Smith's doubling
(Smith 1968, SIAM J. Appl. Math.): from X_0 = C, A_0 = A, B_0 = B,

    X_{j+1} = X_j + A_j' X_j B_j,   A_{j+1} = A_j^2,   B_{j+1} = B_j^2 ,

so X_j holds 2^j terms and the tail X - X_j = A_j' X B_j is at most q ||X||_F
with q = ||A_j||_F ||B_j||_F.  Once q < 1 and q/(1 - q) <= eps, X_j is thus
within eps ||X_j||_F of X and the kernel stops; a kernel that has not stopped
within ``_DOUBLING_CAP`` steps, or whose q is no longer finite, raises
:class:`NoConvergence`.  rho(A) rho(B) < 1, compared with 1 and no margin, is
the one acceptance rule; at 1 - delta the kernel takes about
log2(1/delta) + 5 steps, 58 at the last double below 1.  In the symmetric
case the stop test is itself the proof of that rule: q = ||A_j||_F^2 < 1
gives rho(A)^{2^j} <= ||A_j||_2 < 1, so :func:`gramian` takes no eigenvalue
pass unless the doubling fails, and then only to name the radius.

:func:`spectral_radius` lives here, the lowest layer that needs it, and is
exported through :mod:`drclqr.model`, which imports this module.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DimensionMismatch, NoConvergence, SingularPencil, Unstable

__all__ = ["gramian", "solve_dsylvester"]

# Doubling steps before NoConvergence; step j covers 2^j terms of the series.
_DOUBLING_CAP = 64


def spectral_radius(M) -> float:
    """Largest eigenvalue modulus of a square matrix."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"spectral radius needs a square matrix, got {M.shape}")
    if M.size == 1:
        return abs(float(M[0, 0]))
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def _smith(A, B, C) -> np.ndarray:
    """sum_{k>=0} (A^k)' C B^k by Smith's doubling; one squaring per step when ``B is A``.

    Raises :class:`NoConvergence` at the cap, or as soon as q is not finite.
    """
    X = C
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(_DOUBLING_CAP):
            a = np.linalg.norm(A)
            q = a * a if B is A else a * np.linalg.norm(B)
            if not np.isfinite(q):
                raise NoConvergence(f"Smith doubling diverged to non-finite powers at step {step}")
            if q < 1.0 and q / (1.0 - q) <= np.finfo(float).eps:
                return X
            X = X + A.T @ X @ B
            if B is A:
                A = B = A @ A
            else:
                A, B = A @ A, B @ B
    raise NoConvergence(f"Smith doubling did not converge within its cap of {_DOUBLING_CAP} steps")


def gramian(A, Q) -> np.ndarray:
    """Solve G = A'GA + Q, whose solution is G = sum_{t>=0} (A^t)' Q A^t.

    The one route for a symmetric Stein equation: the series is summed by
    Smith's doubling and returned symmetrized, G == G.T exactly (the doubling
    keeps symmetry only up to round-off).  No eigenvalue pass precedes the
    sum: the doubling stops only once q = ||A^{2^j}||_F^2 < 1, and that
    proves rho(A)^{2^j} <= ||A^{2^j}||_2 < 1, so a returned G is the sum of
    a convergent series.

    Raises :class:`Unstable` when the spectral radius of A is >= 1: the
    series diverges and G is undefined.  The radius is computed only then,
    when the doubling has failed to stop; a doubling that fails on an A
    with radius below 1 re-raises its :class:`NoConvergence`.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    if A.shape[0] != A.shape[1] or A.shape != Q.shape:
        raise DimensionMismatch(f"gramian needs square A and Q of equal shape, got {A.shape} and {Q.shape}")
    try:
        G = _smith(A, A, Q)
    except NoConvergence:
        sr = spectral_radius(A)
        if sr >= 1.0:
            raise Unstable(f"spectral radius {sr:.6g} >= 1; the Gramian series diverges") from None
        raise
    return (G + G.T) / 2.0


def solve_dsylvester(A, B, C) -> np.ndarray:
    """Solve the discrete Sylvester equation  A'XB + C = X  for X.

    X = sum_{k>=0} (A^k)' C B^k by Smith's doubling, with A and B first
    scaled by reciprocal powers of two to even out their spectral radii: the
    terms are unchanged, but neither side's squares overflow while the
    other's vanish.  Raises :class:`SingularPencil` exactly when the series
    diverges, rho(A) rho(B) >= 1 (one eigenvalue pass per distinct matrix),
    so a pencil with no eigenvalue product equal to 1 but rho(A) rho(B) > 1
    is refused although it has a unique solution.
    """
    same = B is A
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = A if same else np.atleast_2d(np.asarray(B, dtype=float))
    C = np.array(C, dtype=float, ndmin=2)  # a copy: the kernel may hand C back as X
    n = A.shape[0]
    if A.shape != (n, n) or B.shape != (n, n) or C.shape != (n, n):
        raise DimensionMismatch(
            f"solve_dsylvester needs three n x n matrices, got {A.shape}, {B.shape}, {C.shape}"
        )
    ra = spectral_radius(A)
    rb = ra if same else spectral_radius(B)
    if ra * rb >= 1.0:
        raise SingularPencil(
            f"rho(A) rho(B) = {ra * rb:.6g} >= 1; the series solving A'XB + C = X does not converge"
        )
    if not same and ra > 0.0 and rb > 0.0:
        s = 2.0 ** round(float(np.log2(rb) - np.log2(ra)) / 2.0)
        A, B = s * A, B / s
    return _smith(A, B, C)
