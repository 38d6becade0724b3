"""Seeded plant generators, one per workload.

Each generator draws a plant from ``numpy.random.default_rng`` keyed on
(seed, workload) and writes it as a strict system file with
``drclqr.cli.save_system``, so the program only ever sees the file and reads
it back through its own loader and validator.  The same seed gives
byte-identical files.
"""

from __future__ import annotations

import numpy as np

import reference

WORKLOADS = ("sweep", "certify", "montecarlo")

# About a quarter of certify draws land in this band around the median.
CERTIFY_RHO_CL = (0.968, 0.973)


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOADS.index(workload)])


def _orthogonal(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _weights(rng, n_x: int, n_u: int):
    """Q, R, S split from one well-conditioned joint block F F' + I (PD)."""
    F = rng.standard_normal((n_x + n_u, n_x + n_u)) / np.sqrt(n_x + n_u)
    W = F @ F.T + np.eye(n_x + n_u)
    return W[:n_x, :n_x], W[n_x:, n_x:], W[n_x:, :n_x]


def make_plant(workload: str, seed: int):
    """Return (A, B, Q, R, S, K0-or-None) for ``workload`` at ``seed``.

    * sweep: n_x=10, n_u=2, open-loop unstable A = Abar - B K0, where
      Abar = 0.95 * (random orthogonal), so rho(A + B K0) = 0.95.
    * certify: n_x=40, n_u=2, A = 0.99 * (random orthogonal), R scaled x100:
      a near-marginal plant whose solver costs dominate.  Draws repeat until
      the optimal closed loop (scipy's DARE) has rho(A+BK) in CERTIFY_RHO_CL,
      which holds the DARE iteration count steady across seeds.
    * montecarlo: n_x=10, n_u=2, A = 0.9 * (random orthogonal).
    """
    rng = _rng(seed, workload)
    if workload == "sweep":
        n_x, n_u = 10, 2
        Abar = 0.95 * _orthogonal(rng, n_x)
        B = rng.standard_normal((n_x, n_u))
        K0 = rng.standard_normal((n_u, n_x))
        # grow K0 until the open loop A = Abar - B K0 is unstable
        while reference.spectral_radius(Abar - B @ K0) <= 1.05:
            K0 = 1.5 * K0
        A = Abar - B @ K0
        Q, R, S = _weights(rng, n_x, n_u)
        return A, B, Q, R, S, K0
    if workload == "certify":
        n_x, n_u = 40, 2
        while True:
            A = 0.99 * _orthogonal(rng, n_x)
            B = rng.standard_normal((n_x, n_u))
            Q, R, S = _weights(rng, n_x, n_u)
            R = 100.0 * R
            _, K = reference.dare({"A": A, "B": B, "Q": Q, "R": R, "S": S})
            if CERTIFY_RHO_CL[0] <= reference.spectral_radius(A + B @ K) <= CERTIFY_RHO_CL[1]:
                return A, B, Q, R, S, None
    if workload == "montecarlo":
        n_x, n_u = 10, 2
        A = 0.9 * _orthogonal(rng, n_x)
        B = rng.standard_normal((n_x, n_u))
        Q, R, S = _weights(rng, n_x, n_u)
        return A, B, Q, R, S, None
    raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")


def write_plant(workload: str, seed: int, path) -> None:
    """Write the workload's plant for ``seed`` as a system file at ``path``."""
    from drclqr.cli import save_system
    from drclqr.model import LQRSystem

    A, B, Q, R, S, K0 = make_plant(workload, seed)
    save_system(LQRSystem(A=A, B=B, Q=Q, R=R, S=S), path, K0=K0)
