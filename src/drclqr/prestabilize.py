"""Pre-stabilization: run the DRC machinery on unstable plants.

A DRC needs a stable A.  When the plant is unstable, fix any stabilizing gain
K0, split the input as u = K0 x + v, and absorb K0 into the plant and the
weights:

    bar A = A + B K0
    bar Q = Q + K0'S + S'K0 + K0'R K0
    bar S = R K0 + S

The pair (bar A, B) with weights (bar Q, R, bar S) is again a valid LQR
instance (the joint weight block stays positive definite, by congruence), its
optimal gain is bar K = K - K0 where K is the original optimal gain, and a
DRC synthesized on the transformed system approximates bar K.  Adding K0 back
(:func:`recover_gain`) then recovers the original gain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionMismatch, NotStabilizing
from .model import LQRSystem, spectral_radius
from .riccati import solve_dare

__all__ = ["PrestabilizedSystem", "transform", "recover_gain", "default_prestabilizer"]


@dataclass(frozen=True)
class PrestabilizedSystem:
    """The gain K0 and the transformed stable system it defines."""

    K0: np.ndarray
    transformed: LQRSystem


def transform(sys: LQRSystem, K0) -> PrestabilizedSystem:
    """Absorb a stabilizing gain K0 into the plant and the weights.

    Raises :class:`NotStabilizing` when A + B K0 has spectral radius >= 1.
    With K0 = 0 on a stable plant the transformed system equals the original
    exactly.
    """
    K0 = np.atleast_2d(np.asarray(K0, dtype=float))
    if K0.shape != (sys.n_u, sys.n_x):
        raise DimensionMismatch(f"K0 has shape {K0.shape}, expected {(sys.n_u, sys.n_x)}")
    A_bar = sys.A + sys.B @ K0
    sr = spectral_radius(A_bar)
    if sr >= 1.0:
        raise NotStabilizing(f"A + B K0 has spectral radius {sr:.6g} >= 1")
    Q_bar = sys.Q + K0.T @ sys.S + sys.S.T @ K0 + K0.T @ sys.R @ K0
    S_bar = sys.R @ K0 + sys.S
    transformed = LQRSystem(A=A_bar, B=sys.B, Q=Q_bar, R=sys.R, S=S_bar)
    return PrestabilizedSystem(K0=K0, transformed=transformed)


def recover_gain(K0, L1) -> np.ndarray:
    """K0 + L1: map a first DRC block on the transformed system back.

    L1 approximates the transformed system's optimal gain K - K0, so the sum
    approximates the original optimal gain K.
    """
    K0 = np.atleast_2d(np.asarray(K0, dtype=float))
    L1 = np.atleast_2d(np.asarray(L1, dtype=float))
    if K0.shape != L1.shape:
        raise DimensionMismatch(f"shapes {K0.shape} and {L1.shape} do not agree")
    return K0 + L1


def default_prestabilizer(sys: LQRSystem) -> np.ndarray:
    """A reproducible stabilizing gain: the LQR gain for weights (I, I, 0).

    Convenience only: it solves an auxiliary DARE, so it assumes exactly what
    pre-stabilization is meant to provide.  Useful for tests and for plants
    where any stabilizing gain will do.
    """
    aux = LQRSystem(
        A=sys.A,
        B=sys.B,
        Q=np.eye(sys.n_x),
        R=np.eye(sys.n_u),
        S=np.zeros((sys.n_u, sys.n_x)),
    )
    return solve_dare(aux).K
