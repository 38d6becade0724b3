"""Closed-form approximation bounds and the instability witness.

Every bound takes a :class:`BoundInputs` value object (certificate constants
plus the handful of spectral norms the formulas use) rather than recomputing
norms internally, so a sweep over H evaluates every bound with one consistent
certificate: the constants in front of the exponential must not vary with H.
The two gap bounds take an array of orders as well as one order, so a sweep
evaluates each of them in one call.

The bounds:

* :func:`gain_gap_bound` — certified bound on ||K - L_1^{(H)}||, the gap
  between the optimal state-feedback gain and the first block of the optimal
  H-order DRC.  Decays like e^{-rho H}.
* :func:`cost_gap_bound` — bound on the average-cost excess of the truncated
  induced policy of a gain K over the cost of K itself; with K the optimal
  gain (``optimal_cost_gap_bound``, another name for the same function) it
  also bounds the optimal H-order DRC's cost gap, because the optimal DRC can
  only improve on the truncated policy.  Decays like e^{-2 rho H}.
* :func:`gramian_power_bound` — certified bound on ||G A^m||, G the Gramian
  of (A, Q).  Decays like e^{-rho m}.

:func:`instability_witness` builds the classic hard plant (2's on the
diagonal, 1's on the superdiagonal, input only through the last coordinate)
on which no DRC of order H <= n can keep the state covariance bounded, and
compares the exact variance of the first coordinate against the closed-form
lower bound that certifies the blow-up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cost import drc_state_covariance
from .drc import DRCPolicy
from .exceptions import InvalidHorizon, NonFinite, NotPositiveDefinite
from .model import LQRSystem, StabilityCertificate, cholesky, row_powers, spectral_norm

__all__ = [
    "BoundInputs",
    "schur_lambda_min",
    "gain_gap_bound",
    "cost_gap_bound",
    "optimal_cost_gap_bound",
    "gramian_power_bound",
    "witness_plant",
    "instability_witness",
]

# Absolute slack in the witness comparison of the first coordinate's variance.
# The covariance entries grow like 4^t, so a relative tolerance would be vacuous.
WITNESS_TOL = 1e-8


@dataclass(frozen=True)
class BoundInputs:
    """Certificate plus norms: everything the closed-form bounds consume.

    ``cert`` must be valid simultaneously for the open loop A and the closed
    loop A + BK whose gain norm is ``normK``; ``lam`` is
    lambda_min(R - S Q^{-1} S'), the Schur-complement floor.
    """

    cert: StabilityCertificate
    normB: float
    normQ: float
    normS: float
    normR: float
    normK: float
    lam: float
    n_x: int

    def __post_init__(self):
        for name in ("normB", "normQ", "normS", "normR", "normK"):
            if not getattr(self, name) >= 0:  # written so that NaN fails too
                raise ValueError(f"{name} must be >= 0")
        if not self.lam > 0:
            raise NotPositiveDefinite(
                f"lambda_min(R - S Q^{{-1}} S') = {self.lam:.6g} <= 0", lambda_min=self.lam
            )
        if self.n_x < 1:
            raise ValueError(f"n_x must be >= 1, got {self.n_x}")

    @classmethod
    def from_system(cls, sys: LQRSystem, K, cert: StabilityCertificate) -> "BoundInputs":
        return cls(
            cert=cert,
            normB=spectral_norm(sys.B),
            normQ=spectral_norm(sys.Q),
            normS=spectral_norm(sys.S),
            normR=spectral_norm(sys.R),
            normK=spectral_norm(K),
            lam=schur_lambda_min(sys),
            n_x=sys.n_x,
        )


def schur_lambda_min(sys: LQRSystem) -> float:
    """lambda_min(R - S Q^{-1} S'), read off the Cholesky factor of the joint weight.

    With W = [[Q, S'], [S, R]] = LL' and L = [[L11, 0], [L21, L22]],
    R - S Q^{-1} S' = L22 L22' exactly, so Q is never inverted.  The floor is
    at least lambda_min(W) > 0 and floors lambda_min(M) of every assembled
    DRC system matrix, hence its place in the gain gap bound's denominator.
    A W without a Cholesky factor raises :class:`NotPositiveDefinite` with
    lambda_min(W): at the round-off edge, lambda_min(W) below about
    eps ||W||, so can a W that :func:`validate_system` accepted.
    """
    L22 = cholesky(sys.joint_weight(), "joint weight block")[sys.n_x :, sys.n_x :]
    return float(np.linalg.eigvalsh(L22 @ L22.T)[0])


def gain_gap_bound(inp: BoundInputs, H):
    """Certified bound on ||K - L_1^{(H)}||: C e^{-rho H} with explicit C.

        2 tau^3 (||B||^2 ||K|| ||Q|| + ||B|| ||K|| ||S||) e^{-rho H}
        -----------------------------------------------------------
                 lam (1 - e^{-2 rho})^{5/2}

    H is one order or an array of orders; an array gives the bound of each
    order, bit for bit the value of the scalar call.  Successive H multiply
    the bound by exactly e^{-rho}.
    """
    if np.any(H < 1):
        raise InvalidHorizon(f"H must be >= 1, got {np.min(H)}")
    tau, rho = inp.cert.tau, inp.cert.rho
    decay2 = 1.0 - np.exp(-2.0 * rho)
    numer = 2.0 * tau**3 * (inp.normB**2 * inp.normK * inp.normQ + inp.normB * inp.normK * inp.normS)
    return numer * np.exp(-rho * H) / (inp.lam * decay2**2.5)


def cost_gap_bound(inp: BoundInputs, H):
    """Bound on the cost excess of the order-H truncation of a gain's policy.

        n_x^2 e^{-2 rho H} ( ||R|| + 4 tau^4 (||B|| ||K||^2 + ||K||)
                                     (||B|| ||Q|| + ||S||) / (1 - e^{-2 rho})^3 )

    H is one order or an array of orders, as for :func:`gain_gap_bound`.
    Successive H multiply the bound by exactly e^{-2 rho}.
    """
    if np.any(H < 1):
        raise InvalidHorizon(f"H must be >= 1, got {np.min(H)}")
    tau, rho = inp.cert.tau, inp.cert.rho
    decay2 = 1.0 - np.exp(-2.0 * rho)
    inner = inp.normR + 4.0 * tau**4 * (inp.normB * inp.normK**2 + inp.normK) * (
        inp.normB * inp.normQ + inp.normS
    ) / decay2**3
    return inp.n_x**2 * np.exp(-2.0 * rho * H) * inner


# With ``inp`` built from the optimal gain (see the module docstring).
optimal_cost_gap_bound = cost_gap_bound


def gramian_power_bound(cert: StabilityCertificate, normQ: float, m: int) -> float:
    """Certified upper bound on ||G A^m||, G the Gramian of A and Q.

    With ||A^k|| <= tau e^{-rho k} the series for G A^m telescopes into

        ||G A^m|| <= tau^2 ||Q|| e^{-rho m} / (1 - e^{-2 rho}),

    which is what this returns.  Each increment of m multiplies the bound by
    e^{-rho}.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    decay = float(np.exp(-2.0 * cert.rho))
    return cert.tau**2 * normQ * float(np.exp(-cert.rho * m)) / (1.0 - decay)


# ---------------------------------------------------------------------------
# Instability witness
# ---------------------------------------------------------------------------

def witness_plant(n: int) -> LQRSystem:
    """The order-n plant no low-order DRC can stabilize.

    A has 2's on the diagonal and 1's on the superdiagonal; the input enters
    only through the last coordinate (B = e_n).  Weights are identity (they
    play no role in the covariance analysis; they just make the instance a
    valid system).
    """
    if n < 1:
        raise InvalidHorizon(f"n must be >= 1, got {n}")
    A = 2.0 * np.eye(n) + np.diag(np.ones(n - 1), 1)
    B = np.zeros((n, 1))
    B[n - 1, 0] = 1.0
    return LQRSystem(A=A, B=B, Q=np.eye(n), R=np.eye(1), S=np.zeros((1, n)))


def instability_witness(n: int, H: int, policy: DRCPolicy, t: int):
    """Lower bound on the witness plant's covariance, plus a check.

    Returns ``(lower_bound, holds, covariance)`` where

        lower_bound = (e_1' A^H (A^H)' e_1) * sum_{k=H}^{t} A^{k-H} e_1 e_1'
                      (A^{k-H})'

    and ``holds`` is whether the first coordinate's exact variance clears it,
    covariance[0, 0] >= lower_bound[0, 0] - 1e-8.  That is the claim the
    bound certifies: the first coordinate's variance grows like 4^t whatever
    the policy.  Full PSD domination of the covariance by the bound is false
    in general (the bound concentrates on e_1 and x'Cov x >= Cov_11 x_1^2
    fails for generic PSD matrices), so it is not what ``holds`` reports.
    The covariance is evaluated after t+1 disturbances so that both sides
    count the same noise terms w_0 ... w_t, and is returned so a caller that
    also reports on it need not recompute it.

    The construction relies on the input having no effect on the first
    coordinate for the first H steps: e_1' A^{H-k} B = 0 for 1 <= k <= H.
    On this plant e_1' A^j B = (A^j)[0, n-1] = C(j, n-1) 2^{j-n+1}, which is
    exactly 0 while the exponent j stays <= n - 2, so every H < n qualifies;
    at H = n the k = 1 term is 1, an edge the caller accepts when asking for
    the maximal order (n = 1 being the extreme case).  Both sides grow like
    4^t and leave the double range near t = 500; a non-finite bound or
    covariance raises :class:`NonFinite` with ``step`` = t.
    """
    if H < 1 or H > n:
        raise InvalidHorizon(f"the witness covers 1 <= H <= n, got H={H}, n={n}")
    if t < H:
        raise InvalidHorizon(f"t must be >= H, got t={t}, H={H}")
    if policy.H != H or policy.n_u != 1 or policy.n_x != n:
        raise InvalidHorizon(
            f"policy must be order {H} with 1 x {n} blocks, got order "
            f"{policy.H} with {policy.n_u} x {policy.n_x}"
        )
    # fail fast: A is upper triangular with 2's on its diagonal, so c >= 4^H and
    # the sum's [0, 0] entry is >= 4^(t-H), and bound[0, 0] >= 4^t >= 2^1024
    if t >= 512:
        raise NonFinite(f"witness covariance or bound overflowed by t={t}", step=t)
    sys = witness_plant(n)

    # both sides grow like 4^t: an overflow is reported below, never compared
    with np.errstate(over="ignore", invalid="ignore"):
        e1 = np.eye(1, n)
        row = row_powers(e1, sys.A, H + 1)[H, 0]  # e_1' A^H
        V = row_powers(e1, sys.A.T, t - H + 1)[:, 0]  # rows (A^k e_1)', k = 0 .. t-H
        bound = float(row @ row) * (V.T @ V)
        cov = drc_state_covariance(sys, policy, t + 1)
    if not (np.all(np.isfinite(bound)) and np.all(np.isfinite(cov))):
        raise NonFinite(f"witness covariance or bound overflowed by t={t}", step=t)
    return bound, bool(cov[0, 0] >= bound[0, 0] - WITNESS_TOL), cov
