"""Average-cost evaluation: analytic, Monte-Carlo, and exact covariance.

Three routes to the infinite-horizon average cost

    lim (1/T) sum_t E[ x_t'Qx_t + u_t'Ru_t + 2 u_t'Sx_t ]

under x_{t+1} = A x_t + B u_t + w_t with w_t ~ N(0, I):

* :func:`cost_of_gain`: steady-state covariance route for u = Kx.
* :func:`cost_of_drc`: the trace identity trace(G + 2 L'J + L'ML) for an
  H-order disturbance-response policy, exact in exact arithmetic.
* :func:`simulate`: a seeded Monte-Carlo rollout for either controller type.

:func:`drc_state_covariance` is the exact second moment of the state under a
DRC as a function of how many disturbances have entered; it needs no
stability assumption and is the primary tool of the instability witness in
the bounds module.

Noise is unit covariance throughout; every identity here is stated for that
normalization.  The Monte-Carlo stream is counter-based: the disturbance at
step t is a pure function of (seed, t), so rollouts are reproducible and
order-independent by construction.  Its layout: with p = ceil(n/2)
Box-Muller pairs and s = ceil(2p/4), step t reads the Philox stream keyed on
the seed at counter increments t*s+1 .. t*s+s (four uint64 each, one
uniform double per uint64) and uses the first 2p doubles, p for the radii
and p for the angles.  Pair j is r_j (cos 2 pi u_j, sin 2 pi u_j) (Box and
Muller, 1958), evaluated from the half-angle tangent t = tan(pi u_j) as
r_j ((1 - t^2), 2t) / (1 + t^2): numpy's float64 ``tan`` is a vectorized
kernel where its ``cos`` and ``sin`` may be scalar library calls, and the
result is within a few ulps of r_j of the cosine and sine route.  numpy
picks its float64 ``tan`` and ``log`` kernels by CPU type, so the stream's
last bits can differ between CPU types; on one machine they are
deterministic.  A rollout keys one generator and draws its noise from it
in blocks of steps: every row ends on a whole counter step, so the blocks
read the same rows as one generator per step would; :func:`disturbance`
positions a generator at step t instead.  Each block's states come from a
log-depth doubling scan rather than a step-by-step loop.  (An earlier
layout keyed one generator on (seed, t) per step, so the same seed gave
different numbers before.)

The Monte-Carlo ``std_error`` is a batch-means estimate: floor(sqrt(n))
consecutive batches over the n post-burn-in costs.  Stage costs of a
rollout are autocorrelated, and std / sqrt(n) would understate the error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .drc import DRCPolicy, assemble
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

    ``std_error`` is 0 for the analytic methods and, for Monte-Carlo, the
    batch-means standard error of the mean (0 for a single cost).
    """

    value: float
    method: str
    std_error: float = 0.0

    def __post_init__(self):
        if self.method not in COST_METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {COST_METHODS}")


def cost_of_gain(sys: LQRSystem, K) -> CostReport:
    """Average cost of the state feedback u = Kx, by steady-state covariance.

    The stationary covariance solves Sigma = (A+BK) Sigma (A+BK)' + I, which
    is the Gramian recursion with transposed roles; the cost is then
    trace(Sigma (Q + K'RK + S'K + K'S)).  For the DARE-optimal gain this
    equals trace(P) exactly.  An unstable closed loop raises :class:`Unstable`
    from the Gramian's own check, re-raised with the closed loop named.
    """
    K = np.atleast_2d(np.asarray(K, dtype=float))
    A_cl = sys.A + sys.B @ K
    try:
        sigma = gramian(A_cl.T, np.eye(sys.n_x))
    except Unstable as exc:
        raise Unstable(f"closed loop A+BK: {exc}") from exc
    value = float(np.trace(sigma @ sys.stage_weight(K)))
    return CostReport(value=value, method="analytic_gain")


def cost_of_drc(sys: LQRSystem, G, policy: DRCPolicy) -> CostReport:
    """Average cost of an H-order DRC via trace(G + 2 L'J + L'ML).

    Assembles (M, J) at the policy's own order and evaluates the quadratic
    cost identity, which is exact in exact arithmetic.  In floating point
    the sum cancels against tr G, so its absolute error scales with tr G:
    on n_x 40 plants with rho(A) = 1 - 1e-6 and tr G = 1e9 it is 4e-5 to
    3e-4 at H = 30, on one of them more than the order-30 cost gap itself.
    :func:`drclqr.drc.order_gaps` gives that gap without the cancellation.
    G is the Gramian of (A, Q), which exists only for a stable A
    (:func:`drclqr.lyapunov.gramian` refuses any other), so A's stability
    is a precondition of G and is not checked again here.
    """
    mats = assemble(sys, G, policy.H)
    L = policy.stacked()
    value = float(np.trace(G + 2.0 * L.T @ mats.J + L.T @ mats.M @ L))
    return CostReport(value=value, method="analytic_drc")


# ---------------------------------------------------------------------------
# Seeded counter-based noise and the blocked rollout
# ---------------------------------------------------------------------------

# The rollout runs in blocks of _BLOCK steps, so its working memory does not
# grow with `steps`.  Within a block the state recursion is a doubling scan of
# at most ceil(log2 _BLOCK) whole-block matrix products (see ``_states``).
_BLOCK = 2048

# A scan level adds y (F^k)', each entry of which is at most n 2^-60 max|y|,
# less than half an ulp of max|y| for n < 64.  A power whose entries are all
# this small has vanished, and so have its squares: their levels are skipped.
_VANISHED = 2.0**-60


def _stream(seed: int, t0: int, n: int) -> np.random.Generator:
    """The generator whose next draw is the disturbance of step t0.

    By the counter layout in the module docstring step t starts after
    counter increment t*s, so positioning is one construction.
    """
    pairs = (n + 1) // 2
    s = (2 * pairs + 3) // 4
    return np.random.Generator(np.random.Philox(key=seed, counter=t0 * s))


def _draw(gen: np.random.Generator, m: int, n: int) -> np.ndarray:
    """The next m disturbances of ``gen``'s stream as the rows of an (m, n) array.

    Each row takes 4s doubles, a whole number of Philox counter steps, so
    after m rows the generator stands at the start of the next step's row:
    a row depends only on (seed, t), not on the blocks it was drawn in.
    """
    pairs = (n + 1) // 2
    s = (2 * pairs + 3) // 4
    u = gen.random((m, 4 * s))
    r = np.sqrt(-2.0 * np.log(1.0 - u[:, :pairs]))  # 1 - u lies in (0, 1]: finite log
    t = np.tan(np.pi * u[:, pairs : 2 * pairs])  # half-angle tangent; |t| < 2e16, so t*t is finite
    t2 = t * t
    scale = r / (1.0 + t2)
    z = np.empty((m, 2 * pairs))
    z[:, 0::2] = scale * (1.0 - t2)  # r cos(2 pi u)
    z[:, 1::2] = scale * (2.0 * t)  # r sin(2 pi u)
    return z[:, :n]


def disturbance(seed: int, t: int, n: int) -> np.ndarray:
    """The standard-normal disturbance vector for step t of a rollout.

    Row t of the stream :func:`simulate` draws in blocks (see the module
    docstring for the counter layout), from a generator positioned at step t.
    Pure function of its arguments: two calls with the same (seed, t, n)
    return identical vectors regardless of call order.
    """
    return _draw(_stream(seed, t, n), 1, n)[0]


def _states(x0: np.ndarray, d: np.ndarray, F: np.ndarray, powers_T: list[np.ndarray]) -> np.ndarray:
    """States x_0 .. x_m of x_{t+1} = F x_t + d_t from x_0 = x0, shape (m+1, n).

    ``powers_T[j]`` is (F^(2^j))'.  A recursive-doubling prefix scan over the
    forcing rows e_0 = d_0 + F x0, e_s = d_s: the level of step k = 2^j adds
    F^k times the row k places back to every row, after which row i holds
    sum F^(i-s) e_s over i-2k < s <= i.  Once 2k >= m that is x_{i+1}, so
    ceil(log2 m) levels complete every row; a shorter ``powers_T`` runs fewer,
    which :func:`simulate` hands it once the powers have vanished.  F x0 is a
    product with F itself: BLAS rounds a matrix-vector product by the
    matrix's layout, and F keeps the carry's bits independent of how
    ``powers_T[0]`` is stored.
    """
    m, n = d.shape
    xs = np.empty((m + 1, n))
    xs[0] = x0
    y = xs[1:]
    y[:] = d
    y[0] += F @ x0
    for j, P_T in enumerate(powers_T[: (m - 1).bit_length()]):
        k = 1 << j
        y[k:] += y[:-k] @ P_T
    return xs


def _batch_layout(n: int) -> tuple[int, int]:
    """(batches, batch length) of the batch-means error over n costs.

    floor(sqrt(n)) (at least two) consecutive batches of n // b costs; the
    spread of their means is honest once a batch outlasts the correlation
    time, where std / sqrt(n) would treat every step as independent.  The
    n - b (n // b) costs past the last full batch count toward the mean only.
    A single cost has no error to estimate; the length stays at least one so
    that batch indices are defined.
    """
    b = max(int(np.sqrt(n)), 2)
    return b, max(n // b, 1)


def simulate(sys: LQRSystem, controller, steps: int, burn_in: int = 1000, seed: int = 0) -> CostReport:
    """Monte-Carlo average cost of a gain matrix or a DRC policy.

    Rolls x_{t+1} = A x_t + B u_t + w_t from x_0 = 0 with the counter-based
    noise of :func:`disturbance`; the reported value is the mean stage cost
    over t in [burn_in, steps) and std_error its batch-means standard error
    (floor(sqrt(n)) batches over the n costs of that window, summed by one
    ``bincount`` per block, so memory does not grow with ``steps``).  Gain
    controllers must be stabilizing (the estimate is meaningless otherwise);
    a DRC on an unstable plant is allowed to run and diverge, surfacing as
    :class:`NonFinite` with the step whose update produced the first state
    that is non-finite or exceeds ``OVERFLOW_LIMIT``.  ``steps`` and
    ``burn_in`` are truncated to integers; a window that is then empty, or an
    infinite or NaN bound, raises ``ValueError``.

    A DRC uses the true realized disturbances, with w_s = 0 for s < 0.  The
    work runs in fixed blocks of steps, all drawn from one generator keyed
    on ``seed``: the DRC input as an FIR filter over the block's noise, the
    state by a doubling scan (see ``_states``) over the powers F, F^2, F^4,
    ... that have not vanished (every entry at most 2^-60; a non-finite
    power never has).
    """
    window = f"need steps > burn_in >= 0, got steps={steps}, burn_in={burn_in}"
    try:
        steps, burn_in = int(steps), int(burn_in)
    except (OverflowError, ValueError) as exc:  # an infinite or NaN window
        raise ValueError(window) from exc
    if burn_in < 0 or steps <= burn_in:
        raise ValueError(window)
    n_x, n_u = sys.n_x, sys.n_u
    A, B = sys.A, sys.B

    if isinstance(controller, DRCPolicy):
        if controller.n_x != n_x or controller.n_u != n_u:
            raise InvalidHorizon(
                f"policy blocks are {controller.n_u} x {controller.n_x}, system needs {n_u} x {n_x}"
            )
        H = controller.H
        gain = None
        F = A
        hist = np.zeros((H, n_x))  # w_{t0-H} .. w_{t0-1}
        weight = sys.joint_weight()  # stage cost z'Wz, z = [x; u]
    else:
        gain = np.atleast_2d(np.asarray(controller, dtype=float))
        F = A + B @ gain
        sr = spectral_radius(F)
        if sr >= 1.0:
            raise Unstable(f"closed loop A+BK has spectral radius {sr:.6g} >= 1")
        weight = sys.stage_weight(gain)  # stage cost x'W_K x

    x = np.zeros(n_x)
    n = steps - burn_in
    batches, length = _batch_layout(n)
    batch_sums = np.zeros(batches)
    total = 0.0
    # The right-hand operands of the block products, F', the L_k' and B', are
    # copied once into contiguous arrays: on a transposed view OpenBLAS takes
    # a slower path for these skinny products, 1.5-2x slower in timeit
    # (minimum of 2000, n_x 10, n_u 2: a 2048-row block @ L_k' 15 -> 7.5 us,
    # @ F' 22-23 -> 14-15 us, u @ B' 14 -> 9 us).
    F_T = np.ascontiguousarray(F.T)
    if gain is None:
        blocks_T = np.ascontiguousarray(controller.blocks.transpose(0, 2, 1))  # (H, n_x, n_u)
        B_T = np.ascontiguousarray(B.T)
    gen = _stream(seed, 0, n_x)
    with np.errstate(over="ignore", invalid="ignore"):
        powers_T = []  # (F^k)' for k = 1, 2, 4, ... < _BLOCK, up to the first that has vanished
        P_T = F_T
        while 1 << len(powers_T) < _BLOCK and not np.abs(P_T).max() <= _VANISHED:  # NaN never vanishes
            powers_T.append(P_T)
            P_T = P_T @ P_T
        for t0 in range(0, steps, _BLOCK):
            m = min(_BLOCK, steps - t0)
            w = _draw(gen, m, n_x)
            if gain is None:
                padded = np.vstack((hist, w))
                u = sum(padded[H - k : H - k + m] @ L_T for k, L_T in enumerate(blocks_T, start=1))
                hist = padded[m:]
                d = u @ B_T + w
            else:
                d = w
            xs = _states(x, d, F, powers_T)
            if not np.abs(xs[1:]).max() <= OVERFLOW_LIMIT:  # NaN fails this too
                bad = ~np.all(np.abs(xs[1:]) <= OVERFLOW_LIMIT, axis=1)
                t = t0 + int(np.argmax(bad))
                raise NonFinite(f"state overflow at step {t} (|x| > {OVERFLOW_LIMIT:g})", step=t)
            x = xs[m]
            lo = max(burn_in - t0, 0)
            if lo < m:
                z = xs[lo:m] if gain is not None else np.hstack((xs[lo:m], u[lo:m]))
                costs = np.einsum("ij,ij->i", z @ weight, z)
                total += float(np.sum(costs))
                g0 = t0 + lo - burn_in  # index of costs[0] among all n costs; bin `batches` is the tail
                batch_sums += np.bincount(np.arange(g0, g0 + costs.size) // length, costs, batches + 1)[:batches]
    std_error = 0.0
    if n > 1:
        std_error = float(np.std(batch_sums / length, ddof=1) / np.sqrt(batches))
    return CostReport(value=total / n, method="monte_carlo", std_error=std_error)


def drc_state_covariance(sys: LQRSystem, policy: DRCPolicy, t: int) -> np.ndarray:
    """Exact state second moment once t disturbances have entered.

    Under a DRC the state is a linear combination of past disturbances whose
    matrix coefficients follow one recursion from C_0 = I,

        C_k = A C_{k-1} + B L_k   (k <= H) ,     C_k = A C_{k-1}   (k > H) ,

    that is C_k = A^k + sum_{j <= min(k, H)} A^{k-j} B L_j, so the second
    moment is I + sum_{k=1}^{t-1} C_k C_k'.

    t = 1 returns I (only the newest disturbance has arrived).  No stability
    is assumed: on an unstable plant this grows without bound, which is
    exactly what the instability witness measures.
    """
    if t < 1:
        raise InvalidHorizon(f"t must be >= 1, got {t}")
    A, B = sys.A, sys.B
    cov = np.eye(sys.n_x)
    C = np.eye(sys.n_x)
    for k in range(1, t):
        C = A @ C + B @ policy.blocks[k - 1] if k <= policy.H else A @ C
        cov += C @ C.T
    return (cov + cov.T) / 2.0
