"""Infinite-horizon Gramian accumulation and discrete Sylvester solves.

Every fixed point the package needs is an instance of the discrete Sylvester
(Stein) equation A'XB + C = X.  The symmetric ones (B = A, C symmetric) all
go through :func:`gramian`: the Gramian G = A'GA + Q, the cost of a gain in
the DARE's Newton step and in the cost module, and the Lyapunov certificate.
The one general pencil in the package is the truncation-defect identity
Y = A'Y(A+BK) + W, which goes through :func:`solve_dsylvester`, the public
general solve.  For rho(A) rho(B) < 1 the solution is the series
X = sum_{k>=0} (A^k)' C B^k, which one kernel sums by Smith's doubling
(Smith 1968, SIAM J. Appl. Math.): from X_0 = C, A_0 = A, B_0 = B,

    X_{j+1} = X_j + A_j' X_j B_j,   A_{j+1} = A_j^2,   B_{j+1} = B_j^2 ,

so X_j holds 2^j terms and the tail X - X_j = A_j' X B_j is at most q ||X||_F
with q = ||A_j||_F ||B_j||_F.  Once q < 1 and q/(1 - q) <= eps, X_j is thus
within eps ||X_j||_F of X and the kernel stops; a kernel that has not stopped
within ``_DOUBLING_CAP`` steps, whose q is no longer finite, or whose sum has
left the double range raises :class:`NoConvergence`, so a returned sum is
always finite.  rho(A) rho(B) < 1, compared with 1 and no margin, is the one
acceptance rule; at 1 - delta the kernel takes about log2(1/delta) + 5 steps,
58 at the last double below 1.  On both routes the stop test is itself the
proof of that rule: q < 1 gives
rho(A)^{2^j} rho(B)^{2^j} <= ||A_j||_2 ||B_j||_2 < 1, so neither
:func:`gramian` nor :func:`solve_dsylvester` takes an eigenvalue pass unless
the doubling fails, and then only to name the radii (and, for a general
pencil, to balance them for a second sum).

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
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def _smith(A, B, C) -> np.ndarray:
    """sum_{k>=0} (A^k)' C B^k by Smith's doubling; one squaring per step when ``B is A``.

    Raises :class:`NoConvergence` at the cap, as soon as q is not finite, or
    when the stop test passes on a sum with an entry that is not finite.
    """
    X = C
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(_DOUBLING_CAP):
            a = np.linalg.norm(A)
            q = a * a if B is A else a * np.linalg.norm(B)
            if not np.isfinite(q):
                raise NoConvergence(f"Smith doubling diverged to non-finite powers at step {step}")
            if q < 1.0 and q / (1.0 - q) <= np.finfo(float).eps:
                if not np.isfinite(X).all():
                    raise NoConvergence(f"Smith doubling summed past the double range, non-finite at step {step}")
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
    keeps symmetry only up to round-off; halving each side first keeps a
    finite sum finite).  No eigenvalue pass precedes the
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
    return G / 2.0 + G.T / 2.0


def solve_dsylvester(A, B, C) -> np.ndarray:
    """Solve the discrete Sylvester equation  A'XB + C = X  for X.

    X = sum_{k>=0} (A^k)' C B^k by Smith's doubling, run first on A and B as
    given.  No eigenvalue pass precedes the sum, since the doubling's stop
    test proves rho(A) rho(B) < 1.  The radii are computed only when the
    doubling fails: :class:`SingularPencil` is raised exactly when the series
    diverges, rho(A) rho(B) >= 1, so a pencil with no eigenvalue product
    equal to 1 but rho(A) rho(B) > 1 is refused although it has a unique
    solution.  Below 1, two distinct factors with nonzero radii are balanced
    to sA and B/s, s the power of two nearest sqrt(rho(B) / rho(A)), and
    summed once more: the scaling is exact, so the terms keep their bits,
    but an unstable side's powers no longer overflow while the other's
    vanish.  A doubling that fails again, or that has nothing to balance,
    raises its :class:`NoConvergence`.
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
    try:
        return _smith(A, B, C)
    except NoConvergence:
        ra = spectral_radius(A)
        rb = ra if same else spectral_radius(B)
        if ra * rb >= 1.0:
            raise SingularPencil(
                f"rho(A) rho(B) = {ra * rb:.6g} >= 1; the series solving A'XB + C = X does not converge"
            ) from None
        if same or ra == 0.0 or rb == 0.0:
            raise
    s = 2.0 ** round(float(np.log2(rb) - np.log2(ra)) / 2.0)
    return _smith(s * A, B / s, C)
