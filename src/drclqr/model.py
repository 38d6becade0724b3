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
(tau, rho) witnessing the exponential decay ||M^k|| <= tau * exp(-rho*k) of
one stable matrix (:func:`estimate_certificate`) or of the open and closed
loop together (:func:`joint_certificate`).  The rate is chosen first:

    rho = min over the matrices of min(10, -0.99 * ln spectral_radius(M)),

or 10 for a nilpotent matrix; the 0.99 backs rho off the asymptotic rate so
that tau stays finite.  Then each matrix gets one power scan at that shared
rho, walking k = 0, 1, 2, ... until ||M^k|| <= 1e-12, and tau is the largest
||M^k|| e^{rho k} seen, so the invariant holds by construction for every power
inspected.  A scan that reaches power 10 000 with ||M^k|| still above 1e-12
raises :class:`NoConvergence`.  All norms here and elsewhere in the package
are spectral (operator-2) norms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import AsymmetricMatrix, DimensionMismatch, NoConvergence, NotPositiveDefinite, Unstable

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

# Certificate rate: rho = min(_RHO_CAP, -_RHO_SHRINK * ln spectral_radius).
_RHO_CAP = 10.0
_RHO_SHRINK = 0.99

# Power scan: stop once ||M^k|| falls below the floor; reaching the cap raises.
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

    rho = min(10, -0.99 * ln spectral_radius) over the certified matrices; tau
    is the largest ||M^k|| e^{rho k} over one power scan per matrix at that
    rho, so tau >= 1 always (k = 0 forces it).  ``k_max`` is the largest power
    a scan reached before ||M^k|| fell to 1e-12 (a scan that would pass 10 000
    raises :class:`NoConvergence` instead).
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


def _certify(matrices) -> StabilityCertificate:
    """One certificate for every matrix in ``matrices``: shared rho, one scan each."""
    matrices = [np.atleast_2d(np.asarray(M, dtype=float)) for M in matrices]
    rho = _RHO_CAP
    for M in matrices:
        sr = spectral_radius(M)
        if sr >= 1.0:
            raise Unstable(f"spectral radius {sr:.6g} >= 1; no decay certificate exists")
        if sr > 0.0:
            rho = min(rho, -_RHO_SHRINK * float(np.log(sr)))
    tau, k_max = 1.0, 0
    for M in matrices:
        power = np.eye(M.shape[0])
        for k in range(_SCAN_CAP + 1):
            nrm = spectral_norm(power)
            tau = max(tau, nrm * float(np.exp(rho * k)))
            if nrm <= _SCAN_FLOOR:
                break
            power = power @ M
        else:
            raise NoConvergence(
                f"power scan reached k = {_SCAN_CAP} with ||M^k|| = {nrm:.3e} > {_SCAN_FLOOR:.0e}"
            )
        k_max = max(k_max, k)
    return StabilityCertificate(tau=tau, rho=rho, k_max=k_max)


def estimate_certificate(M) -> StabilityCertificate:
    """A (tau, rho) certificate for one stable matrix M.

    Raises :class:`Unstable` when the spectral radius is >= 1 (certificates do
    not exist; use the prestabilize module first) and :class:`NoConvergence`
    when the power scan reaches 10 000 powers without decaying to 1e-12.
    """
    return _certify([M])


def joint_certificate(A, A_cl) -> StabilityCertificate:
    """A single certificate valid for both A and A_cl.

    rho is the smaller of the two individual rates; tau is the max over one
    power scan of each matrix at that common rho.  Used by the bounds module,
    which needs one (tau, rho) pair covering the open and closed loop
    simultaneously.  Raises like :func:`estimate_certificate`.
    """
    return _certify([A, A_cl])
