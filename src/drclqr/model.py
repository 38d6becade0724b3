"""Core system types, validation, and exponential-stability certificates.

The central object is :class:`LQRSystem`, the quintuple (A, B, Q, R, S) of a
discrete-time LQR problem with stage cost

    x' Q x + u' R u + 2 u' S x ,

under dynamics x_{t+1} = A x_t + B u_t + w_t with unit-covariance noise.  The
standing assumption everywhere in this package is that the joint weight block

    [[Q, S'],
     [S, R ]]

is positive definite, which is what :func:`validate_system` checks.

The second object is :class:`StabilityCertificate`, a constructive pair
(tau, rho) witnessing the exponential decay ||M^k|| <= tau * exp(-rho*k) of a
stable matrix.  Certificates are produced by an exhaustive power scan, so the
invariant holds by construction for every power actually inspected.  All norms
here and elsewhere in the package are spectral (operator-2) norms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import AsymmetricMatrix, DimensionMismatch, NotPositiveDefinite, Unstable

__all__ = [
    "LQRSystem",
    "StabilityCertificate",
    "ValidationReport",
    "validate_system",
    "spectral_radius",
    "estimate_certificate",
    "joint_certificate",
    "spectral_norm",
]

# Relative asymmetry allowed in Q and R before ingestion refuses to symmetrize.
SYMMETRY_RTOL = 1e-10

# Power scan: stop once ||M^k|| falls below this, never scan past the cap.
_SCAN_FLOOR = 1e-12
_SCAN_CAP = 10000


def spectral_norm(M) -> float:
    """Spectral (operator-2) norm, the norm used throughout the package."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.size == 0:
        return 0.0
    return float(np.linalg.norm(M, 2))


def _symmetrize(name: str, X: np.ndarray) -> np.ndarray:
    """Return (X + X')/2 after checking the asymmetry is round-off sized.

    File round-trips introduce last-bit asymmetry that breaks Cholesky
    factorizations later on, hence the forced symmetrization; gross asymmetry
    means the caller handed us the wrong matrix, hence the error.
    """
    defect = np.max(np.abs(X - X.T)) if X.size else 0.0
    scale = max(1.0, float(np.max(np.abs(X))) if X.size else 0.0)
    if defect > SYMMETRY_RTOL * scale:
        raise AsymmetricMatrix(
            f"{name} must be symmetric: max asymmetry {defect:.3e} exceeds "
            f"{SYMMETRY_RTOL:.0e} relative"
        )
    return (X + X.T) / 2.0


def _as_matrix(name: str, X, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    A = np.atleast_2d(np.asarray(X, dtype=float))
    if A.ndim != 2:
        raise DimensionMismatch(f"{name} must be a matrix, got ndim={A.ndim}")
    if rows is not None and A.shape[0] != rows:
        raise DimensionMismatch(f"{name} has {A.shape[0]} rows, expected {rows}")
    if cols is not None and A.shape[1] != cols:
        raise DimensionMismatch(f"{name} has {A.shape[1]} columns, expected {cols}")
    return A


@dataclass(frozen=True, eq=False)
class LQRSystem:
    """An LQR problem instance (A, B, Q, R, S).

    Q and R are symmetrized on ingestion (after an asymmetry check at
    1e-10 relative); arrays are copied and frozen so instances are immutable
    and safe to share.  Construction checks shapes only; positive definiteness
    of the joint weight block is the job of :func:`validate_system`.
    """

    A: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    S: np.ndarray

    def __post_init__(self):
        A = _as_matrix("A", self.A)
        n_x = A.shape[0]
        if A.shape[1] != n_x:
            raise DimensionMismatch(f"A must be square, got {A.shape}")
        B = _as_matrix("B", self.B, rows=n_x)
        n_u = B.shape[1]
        Q = _symmetrize("Q", _as_matrix("Q", self.Q, rows=n_x, cols=n_x))
        R = _symmetrize("R", _as_matrix("R", self.R, rows=n_u, cols=n_u))
        S = _as_matrix("S", self.S, rows=n_u, cols=n_x)
        for name, M in (("A", A), ("B", B), ("Q", Q), ("R", R), ("S", S)):
            if not np.all(np.isfinite(M)):
                raise DimensionMismatch(f"{name} contains non-finite entries")
            M.setflags(write=False)
            object.__setattr__(self, name, M)

    @property
    def n_x(self) -> int:
        return self.A.shape[0]

    @property
    def n_u(self) -> int:
        return self.B.shape[1]

    def joint_weight(self) -> np.ndarray:
        """The (n_x+n_u) x (n_x+n_u) block matrix [[Q, S'], [S, R]]."""
        return np.block([[self.Q, self.S.T], [self.S, self.R]])

    def __repr__(self) -> str:  # keep reprs short; matrices can be large
        return f"LQRSystem(n_x={self.n_x}, n_u={self.n_u})"


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the standing-assumption check on an LQRSystem."""

    lambda_min_joint: float
    lambda_min_Q: float
    lambda_min_R: float
    accepted: bool


def validate_system(sys: LQRSystem) -> ValidationReport:
    """Check the standing assumption: the joint weight block is PD.

    Returns the report when the system is accepted and raises
    :class:`NotPositiveDefinite` (carrying the report on ``.report``) when
    lambda_min of the joint block is <= 0.  Shape consistency is already
    enforced by the LQRSystem constructor.
    """
    joint = sys.joint_weight()
    lam_joint = float(np.linalg.eigvalsh(joint)[0])
    report = ValidationReport(
        lambda_min_joint=lam_joint,
        lambda_min_Q=float(np.linalg.eigvalsh(sys.Q)[0]),
        lambda_min_R=float(np.linalg.eigvalsh(sys.R)[0]),
        accepted=lam_joint > 0.0,
    )
    if not report.accepted:
        err = NotPositiveDefinite(
            f"joint weight block [[Q, S'], [S, R]] has lambda_min = {lam_joint:.6g} <= 0",
            lambda_min=lam_joint,
        )
        err.report = report
        raise err
    return report


def spectral_radius(M) -> float:
    """Largest eigenvalue modulus of a square matrix."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"spectral radius needs a square matrix, got {M.shape}")
    if M.size == 1:
        return abs(float(M[0, 0]))
    return float(np.max(np.abs(np.linalg.eigvals(M))))


@dataclass(frozen=True)
class StabilityCertificate:
    """A pair (tau, rho) with ||M^k|| <= tau * exp(-rho*k) for k = 0..k_max.

    tau >= 1 always (k = 0 forces it).  ``k_max`` records how far the power
    scan that issued the certificate actually looked.
    """

    tau: float
    rho: float
    k_max: int

    def __post_init__(self):
        if self.tau < 1.0:
            raise ValueError(f"tau must be >= 1, got {self.tau}")
        if self.rho <= 0.0:
            raise ValueError(f"rho must be > 0, got {self.rho}")

    def decay(self, k: int) -> float:
        """The certified envelope tau * exp(-rho*k)."""
        return self.tau * float(np.exp(-self.rho * k))


def _scan_tau(matrices, rho: float) -> tuple[float, int]:
    """tau = max_k max_M ||M^k|| e^{rho k}, scanning until every power decays.

    The scan walks k = 0, 1, 2, ... simultaneously for all matrices in
    ``matrices`` and stops once every ||M^k|| <= 1e-12 (or at the cap).  The
    returned tau makes the certificate invariant true for every k visited.
    """
    powers = [np.eye(M.shape[0]) for M in matrices]
    alive = [True] * len(matrices)
    tau = 1.0
    k = 0
    while any(alive) and k <= _SCAN_CAP:
        growth = float(np.exp(rho * k))
        for i, M in enumerate(matrices):
            if not alive[i]:
                continue
            nrm = spectral_norm(powers[i])
            tau = max(tau, nrm * growth)
            if nrm <= _SCAN_FLOOR:
                alive[i] = False
            else:
                powers[i] = powers[i] @ M
        k += 1
    return tau, k - 1


def estimate_certificate(M, rho_cap: float = 10.0, shrink: float = 0.99) -> StabilityCertificate:
    """Construct a (tau, rho) certificate for a stable matrix M.

    rho = min(rho_cap, -shrink * ln(spectral_radius(M))), with shrink in (0,1)
    backing rho off the asymptotic rate so that tau stays finite; tau comes
    from an exhaustive power scan.  rho_cap covers nilpotent matrices, where
    the log diverges.

    Raises :class:`Unstable` when the spectral radius is >= 1 (certificates do
    not exist; use the prestabilize module first).
    """
    if not 0.0 < shrink < 1.0:
        raise ValueError(f"shrink must lie in (0, 1), got {shrink}")
    if rho_cap <= 0.0:
        raise ValueError(f"rho_cap must be positive, got {rho_cap}")
    M = np.atleast_2d(np.asarray(M, dtype=float))
    sr = spectral_radius(M)
    if sr >= 1.0:
        raise Unstable(f"spectral radius {sr:.6g} >= 1; no decay certificate exists")
    rho = rho_cap if sr == 0.0 else min(rho_cap, -shrink * float(np.log(sr)))
    tau, k_max = _scan_tau([M], rho)
    return StabilityCertificate(tau=tau, rho=rho, k_max=k_max)


def joint_certificate(A, A_cl, rho_cap: float = 10.0, shrink: float = 0.99) -> StabilityCertificate:
    """A single certificate valid for both A and A_cl.

    rho is the smaller of the two individual rates; tau is the max over both
    power scans at that common rho.  Used by the bounds module, which needs
    one (tau, rho) pair covering the open and closed loop simultaneously.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    A_cl = np.atleast_2d(np.asarray(A_cl, dtype=float))
    rho = min(
        estimate_certificate(A, rho_cap=rho_cap, shrink=shrink).rho,
        estimate_certificate(A_cl, rho_cap=rho_cap, shrink=shrink).rho,
    )
    tau, k_max = _scan_tau([A, A_cl], rho)
    return StabilityCertificate(tau=tau, rho=rho, k_max=k_max)
