"""Independent reference route for the benchmark's output checks.

Nothing here imports drclqr.  Plants are read with the json module, the
Riccati and Lyapunov solves come from scipy, the DRC system is assembled in
block-Toeplitz form and solved order by order from its leading blocks, and
costs are evaluated along the closed-loop impulse response rather than by
the package's trace identity.  The Monte-Carlo tolerance comes from an
independent replica simulator, never from the package's std_error.
"""

from __future__ import annotations

import json

import numpy as np
import scipy.linalg


def read_plant(path) -> dict:
    """The matrices of a system file, keyed by name, as float arrays."""
    with open(path, "r", encoding="utf-8") as fh:
        return {k: np.array(v, dtype=float) for k, v in json.load(fh).items()}


def prestabilized(p: dict) -> dict:
    """The plant with K0 absorbed: A+BK0, Q+K0'S+S'K0+K0'RK0, RK0+S."""
    if "K0" not in p:
        return p
    A, B, Q, R, S, K0 = (p[k] for k in ("A", "B", "Q", "R", "S", "K0"))
    return {
        "A": A + B @ K0,
        "B": B,
        "Q": Q + K0.T @ S + S.T @ K0 + K0.T @ R @ K0,
        "R": R,
        "S": R @ K0 + S,
    }


def spectral_radius(M) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def dare(p: dict):
    """(P, K) from scipy's DARE solver with the cross term 2u'Sx."""
    A, B, Q, R, S = (p[k] for k in ("A", "B", "Q", "R", "S"))
    P = scipy.linalg.solve_discrete_are(A, B, Q, R, s=S.T)
    K = -np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A + S)
    return P, K


def gramian(p: dict) -> np.ndarray:
    """G with A'GA + Q = G."""
    return scipy.linalg.solve_discrete_lyapunov(p["A"].T, p["Q"])


def gain_cost(p: dict, K) -> float:
    """Average cost of u = Kx from the stationary state covariance."""
    A_cl = p["A"] + p["B"] @ K
    sigma = scipy.linalg.solve_discrete_lyapunov(A_cl, np.eye(A_cl.shape[0]))
    W = p["Q"] + K.T @ p["R"] @ K + p["S"].T @ K + K.T @ p["S"]
    return float(np.trace(sigma @ W))


def drc_system(p: dict, G, H: int):
    """(M, J) of order H, built from the Toeplitz blocks T_d = J_d B."""
    A, B, R, S = p["A"], p["B"], p["R"], p["S"]
    n_u = B.shape[1]
    BtG = B.T @ G
    J, power = [], np.eye(A.shape[0])  # power = A^{k-1}
    for _ in range(H):
        J.append(BtG @ power @ A + S @ power)
        power = power @ A
    T = [BtG @ B + R] + [Jd @ B for Jd in J[:-1]]
    M = np.empty((H * n_u, H * n_u))
    for k in range(H):
        for m in range(H):
            M[k * n_u : (k + 1) * n_u, m * n_u : (m + 1) * n_u] = T[k - m] if k >= m else T[m - k].T
    return M, np.vstack(J)


def drc_solve(M, J, H: int, n_u: int) -> np.ndarray:
    """Stacked optimal order-H blocks, from the leading blocks of a larger (M, J)."""
    n = H * n_u
    return scipy.linalg.cho_solve(scipy.linalg.cho_factor(M[:n, :n]), -J[:n])


def drc_cost(p: dict, G, L) -> float:
    """Average cost of the DRC with stacked blocks L, along its impulse response.

    x_t = sum_k Phi_k w_{t-k} with Phi_1 = I and Phi_{k+1} = A Phi_k + B L_k;
    past order H the response is A^j Phi_{H+1}, whose cost sums to
    trace(Phi_{H+1}' G Phi_{H+1}).
    """
    A, B, Q, R, S = (p[k] for k in ("A", "B", "Q", "R", "S"))
    n_u = B.shape[1]
    phi, total = np.eye(A.shape[0]), 0.0
    for k in range(L.shape[0] // n_u):
        Lk = L[k * n_u : (k + 1) * n_u]
        total += np.trace(phi.T @ Q @ phi) + np.trace(Lk.T @ R @ Lk) + 2.0 * np.trace(Lk.T @ S @ phi)
        phi = A @ phi + B @ Lk
    return float(total + np.trace(phi.T @ G @ phi))


def replica_costs(p: dict, controller, drc: bool, steps: int, burn_in: int, replicas: int, seed: int):
    """Mean stage cost over [burn_in, steps) of independent rollouts from x_0 = 0.

    ``controller`` is a gain K (u = Kx) or, with ``drc``, stacked DRC blocks L
    (u_t = sum_k L_k w_{t-k}, with w_s = 0 for s < 0).  All replicas advance
    together.  The noise comes from numpy's default generator, a different
    stream from the package's: the spread of these means estimates the spread
    of any estimate of the same length.
    """
    A, B = p["A"], p["B"]
    n_x, n_u = B.shape
    W = np.block([[p["Q"], p["S"].T], [p["S"], p["R"]]])
    rng = np.random.default_rng(seed)
    if drc:
        L_flat = np.hstack([controller[k * n_u : (k + 1) * n_u] for k in range(controller.shape[0] // n_u)])
        hist = np.zeros((replicas, L_flat.shape[1]))
    x = np.zeros((replicas, n_x))
    total = np.zeros(replicas)
    chunk = 500
    for t0 in range(0, steps, chunk):
        noise = rng.standard_normal((chunk, replicas, n_x))
        for t, w in enumerate(noise[: steps - t0], start=t0):
            u = hist @ L_flat.T if drc else x @ controller.T
            if t >= burn_in:
                z = np.hstack((x, u))
                total += np.sum((z @ W) * z, axis=1)
            x = x @ A.T + u @ B.T + w
            if drc:
                hist = np.hstack((w, hist[:, : hist.shape[1] - n_x]))
    return total / (steps - burn_in)
