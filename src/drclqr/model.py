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
(tau, rho) witnessing the exponential decay ||M^k|| <= tau * exp(-rho*k), for
every k >= 0, of one stable matrix (:func:`estimate_certificate`) or of the
open and closed loop together (:func:`joint_certificate`).  The rate is chosen
first:

    rho = min over the matrices of min(10, -0.99 * ln spectral_radius(M)),

or 10 for a nilpotent matrix; the 0.99 backs rho off the asymptotic rate so
that tau stays finite.  Only the first matrix's radius is read from its
eigenvalues as a matter of course.  A later matrix first tries Gelfand's
formula, rho(M) <= ||M^(2^j)||_F^(2^-j), squaring M itself at most 10 times;
once that proves its radius below (1 - 1e-8) times the largest radius read so
far, its term cannot be the minimum, rho is the same float, and the matrix
takes no eigenvalue pass (the optimal closed loops of the benchmark plants and
of ``demo3x3`` are proven in three to seven squarings).  Then each matrix gets
one power scan at that shared rho, which stops at the first power m >= 1 with
||M^m|| e^{rho m} <= 1, and tau is the largest ||M^k|| e^{rho k} over k < m.
Writing k = q m + j with j < m, submultiplicativity gives
||M^k|| <= ||M^m||^q ||M^j|| <= tau e^{-rho k}, so the envelope holds for
every power, not only the ones scanned.  The scan forms its powers in chunks
and takes each chunk's norms at once: powers 1, 2..3 and 4..7, then each range
[2^j, 2^(j+1)) in chunks of a quarter of its length, at least 4 and at most 64
powers.  It stops at the chunk that holds m, so fewer than max(4, m/4) of the
powers it forms lie past m, and it forms none whose norm it does not take (a
chunk that overflows ends the scan before its norms).

A scan that finds no such m within 10 000 powers (Jordan blocks and other
near-defective matrices, whose transient outlasts the 1% rate slack), or whose
powers overflow or sink into the floating-point underflow range first, falls
back to the strong-stability certificate of Cohen et al. (2018): with
gamma = r + (1 - r)/2, r the spectral radius (read from the eigenvalues
then, if the radius proof skipped them), P solves
(M/gamma)' P (M/gamma) + I = P, and

    tau = sqrt(lambda_max(P)),   rho = -ln(gamma * sqrt(1 - 1/lambda_max(P))).

The joint rate is then the smallest over all matrices, and every scanned
matrix's tau is re-read from its stored norms at that rate (its scan still
closes at the same m).  The certificate records which route was taken in
``method``.  All norms here and elsewhere in the package are spectral
(operator-2) norms.

:func:`spectral_norm` is the package's one singular-value kernel: every
spectral norm, of one matrix or of a stack (the scan's chunks, the sweep's
gain errors), is one call to it.  Two helpers serve the other modules and
stay out of ``__all__``: :func:`row_powers`, the one running product behind
the package's stacks of powers (the scan's chunks, the DRC blocks and rows,
the closed-loop powers of :func:`drclqr.drc.order_gaps`, the rows of the
instability witness), and :func:`cholesky`, the one refusal of a matrix that
must be positive definite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import AsymmetricMatrix, DimensionMismatch, NoConvergence, NotPositiveDefinite, Unstable
from .lyapunov import gramian, spectral_radius

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

# Power scan: at most _SCAN_CAP powers, formed and normed in chunks up to the
# chunk that holds the certifying power m.  After k powers the next chunk is
# min(b, max(4, b // 4), _SCAN_CHUNK_MAX, _SCAN_CAP - k) powers, b the largest
# power of two <= k + 1.  Since b <= m, fewer than max(4, m/4), and at most 63,
# of the powers a scan forms lie past m.  Once every entry of M^k is below
# _SCAN_UNDERFLOW, entries that matter at working precision can be subnormal
# and the scan can no longer certify anything.
_SCAN_CAP = 10000
_SCAN_CHUNK_MAX = 64
_SCAN_UNDERFLOW = float(np.finfo(float).tiny / np.finfo(float).eps)

# Radius proof: at most _PROOF_SQUARINGS squarings of M to show a later
# matrix's radius below (1 - _PROOF_MARGIN) times the largest one read so far,
# a gap far above the round-off of the radii and of the squared norms.
_PROOF_SQUARINGS = 10
_PROOF_MARGIN = 1e-8

# Lyapunov fallback: gamma = r + _LYAPUNOV_SLACK * (1 - r).
_LYAPUNOV_SLACK = 0.5

CERTIFICATE_METHODS = ("scan", "lyapunov")


def spectral_norm(M):
    """Spectral (operator-2) norm, the norm used throughout the package.

    The package's one singular-value kernel: a matrix gives one value, and a
    stack of matrices (any leading axes) gives an array of their norms from
    one batched call.  It is the largest singular value, bit for bit the
    value of ``np.linalg.norm(M, 2)``.
    """
    return np.linalg.svd(np.atleast_2d(np.asarray(M, dtype=float)), compute_uv=False)[..., 0]


def row_powers(R: np.ndarray, A: np.ndarray, H: int) -> np.ndarray:
    """R, RA, ..., RA^{H-1} as an (H, rows, n) array, one running product.

    Each power is the previous rows times A, O(rows n^2), so for thin rows
    the stack costs O(H rows n^2) and never forms an n x n power of A.  Row
    doubling (rows [k, 2k) as rows [0, k) times A^k, with A^k from repeated
    squaring) takes fewer calls but multiplies the round-off by the transient
    growth of a non-normal A at every level: on Jordan blocks at H = 300 it
    lost two to three digits that this running product keeps.  The DRC
    blocks, the defect's rows, the closed-loop powers of every order, the
    instability witness's rows and the certificate's scan all come from here.
    """
    out = np.empty((H,) + R.shape)
    out[0] = R
    for k in range(1, H):
        np.matmul(out[k - 1], A, out=out[k])
    return out


def cholesky(M: np.ndarray, what: str) -> np.ndarray:
    """Lower Cholesky factor L of a symmetric M, so that M = LL'.

    M must be symmetric: only its lower triangle is read, and every caller
    hands over a matrix made exactly symmetric where it was built.  A
    factorization failure raises :class:`NotPositiveDefinite` naming
    ``what``, with a lambda_min estimate; there is no least-squares fallback,
    by design.
    """
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        lam = float(np.linalg.eigvalsh(M)[0])
        raise NotPositiveDefinite(f"{what} is not positive definite (lambda_min ~ {lam:.6g})", lambda_min=lam) from exc


def _symmetrize(name: str, X: np.ndarray) -> np.ndarray:
    """Return (X + X')/2 after checking the asymmetry is round-off sized.

    File round-trips introduce last-bit asymmetry that breaks Cholesky
    factorizations later on, hence the forced symmetrization; gross asymmetry
    means the caller handed us the wrong matrix, hence the error.
    """
    defect = np.max(np.abs(X - X.T))
    scale = max(1.0, float(np.max(np.abs(X))))
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
    if A.size == 0:
        raise DimensionMismatch(f"{name} has no entries, got shape {A.shape}")
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
    and safe to share.  Construction checks shapes only, and refuses a matrix
    with no entries (n_x = 0 or n_u = 0) with :class:`DimensionMismatch`;
    positive definiteness of the joint weight block is the job of
    :func:`validate_system`.
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

    def stage_weight(self, K: np.ndarray) -> np.ndarray:
        """Q + K'RK + S'K + K'S: the stage cost of u = Kx contracted onto the state."""
        return self.Q + K.T @ self.R @ K + self.S.T @ K + K.T @ self.S

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


@dataclass(frozen=True)
class StabilityCertificate:
    """A pair (tau, rho) with ||M^k|| <= tau * exp(-rho*k) for every k >= 0.

    ``method`` says how it was obtained.  ``"scan"``: rho = min(10, -0.99 *
    ln spectral_radius) over the certified matrices, and tau is the largest
    ||M^k|| e^{rho k} over k < m, where m is each matrix's certifying power,
    the first m >= 1 with ||M^m|| e^{rho m} <= 1.  ``"lyapunov"``: at least
    one matrix had no certifying power within 10 000 and got the Lyapunov
    certificate instead; rho is then also capped by its rate and tau covers
    its sqrt(lambda_max(P)).  ``k_max`` is the largest certifying power over
    the scanned matrices (0 when none closed).  tau >= 1 always (k = 0 forces
    it).
    """

    tau: float
    rho: float
    k_max: int
    method: str = "scan"

    def __post_init__(self):
        if not self.tau >= 1.0:  # written so that NaN fails too
            raise ValueError(f"tau must be >= 1, got {self.tau}")
        if not self.rho > 0.0:
            raise ValueError(f"rho must be > 0, got {self.rho}")
        if self.method not in CERTIFICATE_METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {CERTIFICATE_METHODS}")

    def decay(self, k: int) -> float:
        """The certified envelope tau * exp(-rho*k)."""
        return self.tau * float(np.exp(-self.rho * k))


def _scan_norms(M: np.ndarray, rho: float):
    """||M^k|| for k < m, m the first power >= 1 with ||M^m|| e^{rho m} <= 1.

    Each chunk of powers is formed once and its norms taken at once (chunk
    lengths: see the comment at _SCAN_CHUNK_MAX).  Returns None when there is
    no such m <= _SCAN_CAP, when every entry of a power sinks below
    _SCAN_UNDERFLOW first (an exactly zero power still certifies: the matrix
    is nilpotent), or when a power overflows to a non-finite entry, since no
    power past it can certify.
    """
    power = np.eye(M.shape[0])
    k, scanned = 0, [np.ones(1)]
    while k < _SCAN_CAP:
        b = 1 << ((k + 1).bit_length() - 1)
        chunk = min(b, max(4, b // 4), _SCAN_CHUNK_MAX, _SCAN_CAP - k)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is caught below
            block = row_powers(power @ M, M, chunk)
        top = np.abs(block).max(axis=(1, 2))
        if not np.all(np.isfinite(top)):
            return None
        sunk = (top > 0.0) & (top < _SCAN_UNDERFLOW)
        scanned.append(spectral_norm(block))
        stop = sunk | (scanned[-1] <= np.exp(-rho * np.arange(k + 1, k + chunk + 1)))
        if np.any(stop):
            i = int(np.argmax(stop))
            return None if sunk[i] else np.concatenate(scanned)[: k + i + 1]
        power = block[-1]
        k += chunk
    return None


def _lyapunov_certificate(M: np.ndarray, radius: float | None) -> tuple[float, float]:
    """(tau, rho) from P = (M/gamma)' P (M/gamma) + I, gamma = r + (1 - r)/2.

    r is M's spectral radius: ``radius`` when the caller has read it, else
    read here from the eigenvalues (a matrix whose radius proof skipped them).

    M'PM = gamma^2 (P - I) <= q^2 P with q = gamma sqrt(1 - 1/lambda_max(P)),
    so M contracts the P-norm by q, and since P >= I,

        ||M^k x||^2 <= (M^k x)' P (M^k x) <= q^{2k} lambda_max(P) ||x||^2 ,

    that is ||M^k|| <= sqrt(lambda_max(P)) q^k.
    """
    radius = spectral_radius(M) if radius is None else radius
    gamma = radius + _LYAPUNOV_SLACK * (1.0 - radius)
    failed = f"power scan found no certifying power within {_SCAN_CAP} and the Lyapunov fallback"
    try:
        lam = float(np.linalg.eigvalsh(gramian(M / gamma, np.eye(M.shape[0])))[-1])
    except NoConvergence as err:
        raise NoConvergence(f"{failed} failed: {err}") from err
    if not np.isfinite(lam):  # a finite P whose lambda_max is past the double range
        raise NoConvergence(f"{failed} is not finite (lambda_max = {lam:.3e})")
    return float(np.sqrt(lam)), -float(np.log(gamma * np.sqrt(1.0 - 1.0 / lam)))


def _radius_below(M: np.ndarray, r: float) -> bool:
    """True when Gelfand's formula proves spectral_radius(M) < r, for r > 0.

    rho(M)^(2^j) <= ||M^(2^j)||_F for every j, and the root of the right side
    tends to rho(M) as j grows, so the proof squares M itself and closes at
    the first j with ||M^(2^j)||_F < r^(2^j), compared as squares.  It gives
    up (False) after ``_PROOF_SQUARINGS`` squarings, or as soon as a squared
    norm leaves (_SCAN_UNDERFLOW, inf), where it is no longer accurate: a
    nearly nilpotent M, one whose powers sink before the bound closes, or one
    whose entries square past the double range.  A matrix that is not square
    has no radius and is left to :func:`spectral_radius` to refuse.
    """
    if M.shape[0] != M.shape[1]:
        return False
    bound = r * r  # r^(2^(j+1)), squared with M
    with np.errstate(over="ignore", invalid="ignore"):  # a norm out of range gives up below
        for j in range(_PROOF_SQUARINGS + 1):
            f2 = float(np.vdot(M, M))
            if not _SCAN_UNDERFLOW < f2 < np.inf:
                return False
            if f2 < bound:
                return True
            if j < _PROOF_SQUARINGS:
                M, bound = M @ M, bound * bound
    return False


def _certify(matrices) -> StabilityCertificate:
    """One certificate for every matrix in ``matrices``: shared rho, one scan each.

    The first matrix's radius comes from its eigenvalues.  A later matrix that
    :func:`_radius_below` proves below (1 - _PROOF_MARGIN) times the largest
    radius so far cannot lower rho, so it takes no eigenvalue pass.  A proof
    that closes at k = 2^j gives ||M^k|| <= ||M^k||_F < r^k <= e^{-rho k}, so
    that matrix's scan closes by k, round-off aside, and it reaches the
    Lyapunov fallback, which then reads its radius, only on exotic inputs.
    Every radius read here is handed to the fallback, so none is read twice.
    """
    matrices = [np.atleast_2d(np.asarray(M, dtype=float)) for M in matrices]
    rho, r_max, radii = _RHO_CAP, 0.0, [None] * len(matrices)
    for i, M in enumerate(matrices):
        if r_max > 0.0 and _radius_below(M, (1.0 - _PROOF_MARGIN) * r_max):
            continue
        radii[i] = sr = spectral_radius(M)
        if sr >= 1.0:
            raise Unstable(f"spectral radius {sr:.6g} >= 1; no decay certificate exists")
        if sr > 0.0:
            rho = min(rho, -_RHO_SHRINK * float(np.log(sr)))
        r_max = max(r_max, sr)
    scans = [_scan_norms(M, rho) for M in matrices]
    fallback = [_lyapunov_certificate(M, sr) for M, sr, norms in zip(matrices, radii, scans) if norms is None]
    rho = min([rho] + [r for _, r in fallback])
    tau = max(
        [1.0]
        + [t for t, _ in fallback]
        + [float(np.max(norms * np.exp(rho * np.arange(norms.size)))) for norms in scans if norms is not None]
    )
    k_max = max([0] + [norms.size for norms in scans if norms is not None])
    return StabilityCertificate(tau=tau, rho=rho, k_max=k_max, method="lyapunov" if fallback else "scan")


def estimate_certificate(M) -> StabilityCertificate:
    """A (tau, rho) certificate for one stable matrix M.

    Raises :class:`Unstable` when the spectral radius is >= 1 (certificates do
    not exist; use the prestabilize module first).  A matrix whose power scan
    does not close within 10 000 powers gets the Lyapunov certificate
    (``method == "lyapunov"``).
    """
    return _certify([M])


def joint_certificate(A, A_cl) -> StabilityCertificate:
    """A single certificate valid for both A and A_cl.

    rho is the smaller of the two individual rates (or of a Lyapunov
    fallback's rate); tau is the max over one power scan of each matrix at
    that common rho.  Used by the bounds module,
    which needs one (tau, rho) pair covering the open and closed loop
    simultaneously.  Raises like :func:`estimate_certificate`.
    """
    return _certify([A, A_cl])
