"""A fixed calibration kernel that tracks how fast the machine runs right now.

The reference machine changes speed by up to about 2x, for stretches from under a
second to minutes, and the op times of a run follow it.  The benchmark runs this
kernel between ops and scales each op time by ``REF_S`` divided by the kernel's
mean time just before and just after it.  The result is the op's length at the
speed the machine has in a quiet stretch, in seconds.  The kernel never touches drclqr, so it runs the same work on every
commit: a change to the program moves the scaled times, a change of machine speed
cancels out of them.

The kernel mixes the two kinds of work that dominate the workloads: a Python
loop of 10x10 numpy operations (``assemble``, ``simulate``) and a Python loop of
40x40 products and spectral norms (the certificate scan and the DARE on the
``certify`` plant).  It has no multi-threaded BLAS call: with two BLAS threads,
about one dense solve in two hundred stalls for up to a second on the reference
machine, and one such stall throws a calibration off.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's wall time on the reference machine in a quiet stretch (its
# fastest runs); it fixes the scale of the scaled times.
REF_S = 0.045

_rng = np.random.default_rng(0)
_SMALL = _rng.random((10, 10)) / 10
_MID = 0.99 * np.linalg.qr(_rng.standard_normal((40, 40)))[0]


def kernel_seconds() -> float:
    """Wall time of one run of the fixed kernel."""
    t0 = time.perf_counter()
    x = np.ones(10)
    for _ in range(8000):
        x = _SMALL @ x
        x = x / np.abs(x).max()
    P = np.eye(40)
    for _ in range(300):
        P = P @ _MID
        np.linalg.norm(P, 2)
    return time.perf_counter() - t0


def block(min_seconds: float) -> float:
    """Mean kernel time over back-to-back runs lasting at least ``min_seconds``."""
    times = [kernel_seconds()]
    while sum(times) < min_seconds:
        times.append(kernel_seconds())
    return sum(times) / len(times)


def scale(seconds: float, before: float, after: float, ref: float = REF_S) -> float:
    """``seconds`` at the quiet speed, given the reference's times around the interval.

    ``ref`` is the reference's own time in a quiet stretch: ``REF_S`` for the kernel.
    """
    return seconds * ref * 2.0 / (before + after)
