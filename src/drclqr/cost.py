"""Average-cost evaluation: analytic, Monte-Carlo, and exact covariance.

Three routes to the infinite-horizon average cost

    lim (1/T) sum_t E[ x_t'Qx_t + u_t'Ru_t + 2 u_t'Sx_t ]

under x_{t+1} = A x_t + B u_t + w_t with w_t ~ N(0, I):

* :func:`cost_of_gain`: steady-state covariance route for u = Kx.
* :func:`cost_of_drc`: the exact trace identity
  trace(G + 2 L'J + L'ML) for an H-order disturbance-response policy.
* :func:`simulate`: a seeded Monte-Carlo rollout for either controller type.

:func:`drc_state_covariance` is the exact second moment of the state under a
DRC as a function of how many disturbances have entered; it needs no
stability assumption and is the primary tool of the instability witness in
the bounds module.

Noise is unit covariance throughout; every identity here is stated for that
normalization.  The Monte-Carlo stream is counter-based: the disturbance at
step t is a pure function of (seed, t), so rollouts are reproducible and
order-independent by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .drc import DRCPolicy, _gram_matrix, assemble
from .exceptions import InvalidHorizon, NonFinite, Unstable
from .lyapunov import gramian
from .model import LQRSystem, spectral_radius

__all__ = [
    "CostReport",
    "cost_of_gain",
    "cost_of_drc",
    "simulate",
    "drc_state_covariance",
    "disturbance",
    "OVERFLOW_LIMIT",
]

# A state whose largest entry exceeds this is declared overflowed.  Stable
# test trajectories peak around 1e2, so there is no risk of false positives,
# and the witness rollouts cross it long before reaching float overflow.
OVERFLOW_LIMIT = 1e50

COST_METHODS = ("analytic_gain", "analytic_drc", "monte_carlo")


@dataclass(frozen=True)
class CostReport:
    """Average per-step cost plus how it was obtained.

    ``std_error`` is 0 for the analytic methods and the usual sample standard
    error for Monte-Carlo.
    """

    value: float
    method: str
    std_error: float = 0.0

    def __post_init__(self):
        if self.method not in COST_METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {COST_METHODS}")


def _stage_weight(sys: LQRSystem, K: np.ndarray) -> np.ndarray:
    """Q + K'RK + S'K + K'S: the stage cost contracted onto the state."""
    return sys.Q + K.T @ sys.R @ K + sys.S.T @ K + K.T @ sys.S


def cost_of_gain(sys: LQRSystem, K) -> CostReport:
    """Average cost of the state feedback u = Kx, by steady-state covariance.

    The stationary covariance solves Sigma = (A+BK) Sigma (A+BK)' + I, which
    is the Gramian recursion with transposed roles; the cost is then
    trace(Sigma (Q + K'RK + S'K + K'S)).  For the DARE-optimal gain this
    equals trace(P) exactly.
    """
    K = np.atleast_2d(np.asarray(K, dtype=float))
    A_cl = sys.A + sys.B @ K
    sr = spectral_radius(A_cl)
    if sr >= 1.0:
        raise Unstable(f"closed loop A+BK has spectral radius {sr:.6g} >= 1; cost diverges")
    sigma = gramian(A_cl.T, np.eye(sys.n_x)).G
    value = float(np.trace(sigma @ _stage_weight(sys, K)))
    return CostReport(value=value, method="analytic_gain")


def cost_of_drc(sys: LQRSystem, G, policy: DRCPolicy) -> CostReport:
    """Average cost of an H-order DRC via trace(G + 2 L'J + L'ML).

    Assembles (M, J) at the policy's own order and evaluates the exact
    quadratic cost identity; requires a stable A (otherwise the DRC cost is
    infinite and the identity's ingredients do not exist).
    """
    sr = spectral_radius(sys.A)
    if sr >= 1.0:
        raise Unstable(f"A has spectral radius {sr:.6g} >= 1; DRC cost diverges")
    mats = assemble(sys, G, policy.H)
    L = policy.stacked()
    value = float(np.trace(_gram_matrix(G) + 2.0 * L.T @ mats.J + L.T @ mats.M @ L))
    return CostReport(value=value, method="analytic_drc")


# ---------------------------------------------------------------------------
# Seeded counter-based noise
# ---------------------------------------------------------------------------

def disturbance(seed: int, t: int, n: int) -> np.ndarray:
    """The standard-normal disturbance vector for step t of a rollout.

    A Philox generator keyed on (seed, t) supplies the uniforms, Box-Muller
    turns them into normals; component i of the result is the i-th draw of
    that per-step block.  Pure function of its arguments: two calls with the
    same (seed, t, n) return identical vectors regardless of call order.
    """
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, t], dtype=np.uint64)))
    pairs = (n + 1) // 2
    u = gen.random(2 * pairs)
    u1 = 1.0 - u[:pairs]  # shift into (0, 1] so the log is finite
    u2 = u[pairs:]
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.empty(2 * pairs)
    z[0::2] = r * np.cos(2.0 * np.pi * u2)
    z[1::2] = r * np.sin(2.0 * np.pi * u2)
    return z[:n]


def _check_finite(x: np.ndarray, t: int):
    if not np.all(np.isfinite(x)) or float(np.max(np.abs(x))) > OVERFLOW_LIMIT:
        raise NonFinite(f"state overflow at step {t} (|x| > {OVERFLOW_LIMIT:g})", step=t)


def simulate(sys: LQRSystem, controller, steps: int, burn_in: int = 1000, seed: int = 0) -> CostReport:
    """Monte-Carlo average cost of a gain matrix or a DRC policy.

    Rolls x_{t+1} = A x_t + B u_t + w_t from x_0 = 0 with the counter-based
    noise of :func:`disturbance`; the reported value is the mean stage cost
    over t in [burn_in, steps) and std_error the sample standard error over
    that window.  Gain controllers must be stabilizing (the estimate is
    meaningless otherwise); a DRC on an unstable plant is allowed to run and
    diverge, surfacing as :class:`NonFinite` with the offending step index.

    A DRC uses the true realized disturbances, with w_s = 0 for s < 0.
    """
    if burn_in < 0 or steps <= burn_in:
        raise ValueError(f"need steps > burn_in >= 0, got steps={steps}, burn_in={burn_in}")
    steps = int(steps)
    burn_in = int(burn_in)
    n_x, n_u = sys.n_x, sys.n_u
    A, B, Q, R, S = sys.A, sys.B, sys.Q, sys.R, sys.S

    if isinstance(controller, DRCPolicy):
        if controller.n_x != n_x or controller.n_u != n_u:
            raise InvalidHorizon(
                f"policy blocks are {controller.n_u} x {controller.n_x}, system needs {n_u} x {n_x}"
            )
        H = controller.H
        # blocks side by side: u_t = L_flat @ [w_{t-1}; ...; w_{t-H}]
        L_flat = np.hstack(controller.blocks)
        hist = np.zeros(H * n_x)
        gain = None
    else:
        gain = np.atleast_2d(np.asarray(controller, dtype=float))
        sr = spectral_radius(A + B @ gain)
        if sr >= 1.0:
            raise Unstable(f"closed loop A+BK has spectral radius {sr:.6g} >= 1")

    x = np.zeros(n_x)
    costs = np.empty(steps - burn_in)
    for t in range(steps):
        u = gain @ x if gain is not None else L_flat @ hist
        if t >= burn_in:
            costs[t - burn_in] = x @ (Q @ x) + u @ (R @ u) + 2.0 * u @ (S @ x)
        w = disturbance(seed, t, n_x)
        x = A @ x + B @ u + w
        _check_finite(x, t)
        if gain is None:
            hist = np.concatenate((w, hist[: (H - 1) * n_x])) if H > 1 else w
    n = costs.size
    value = float(np.mean(costs))
    std_error = float(np.std(costs, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return CostReport(value=value, method="monte_carlo", std_error=std_error)


def drc_state_covariance(sys: LQRSystem, policy: DRCPolicy, t: int) -> np.ndarray:
    """Exact state second moment once t disturbances have entered.

    Under a DRC the state is a linear combination of past disturbances with
    matrix coefficients C_k = A^k + sum_{j=1..k} A^{k-j} B L_j (and C_k =
    A^{k-H} C_H once k exceeds the order H), so the second moment is

        I + sum_{k=1}^{min(H,t)-1} C_k C_k'
          + sum_{k=H}^{t-1} A^{k-H} C_H C_H' (A^{k-H})' .

    t = 1 returns I (only the newest disturbance has arrived).  No stability
    is assumed: on an unstable plant this grows without bound, which is
    exactly what the instability witness measures.
    """
    if t < 1:
        raise InvalidHorizon(f"t must be >= 1, got {t}")
    A, B = sys.A, sys.B
    H = policy.H
    cov = np.eye(sys.n_x)
    C = np.eye(sys.n_x)
    for k in range(1, min(H, t)):
        C = A @ C + B @ policy.blocks[k - 1]
        cov += C @ C.T
    if t > H:
        C_H = A @ C + B @ policy.blocks[H - 1]
        T = C_H
        for _ in range(H, t):
            cov += T @ T.T
            T = A @ T
    return (cov + cov.T) / 2.0
