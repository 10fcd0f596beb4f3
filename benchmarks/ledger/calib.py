"""The calibration unit (``cu``): a frozen pure-numpy kernel.

Raw seconds drift 8-16 % between back-to-back runs of identical code on a
shared box; the same latencies divided by the time of a fixed kernel run
immediately before them stay within a few percent. One ``cu`` is one call
of :func:`calibrate`. The kernel has the shape of the program's hot loop
(int64 multiply-mod / add / conditional-subtract over a ``(9, 128)`` residue
stack) so that it slows down with the box the way the program does, but it
never imports ``repro``: a change to the program cannot move the unit.

FROZEN: editing the kernel or ``ROUNDS`` redefines every ``*_cu`` metric and
invalidates every recorded baseline.
"""

from __future__ import annotations

import time

import numpy as np

ROUNDS = 4000
#: What one call takes on the reference box (2 shared cores) at its median
#: pace. ``setup_s`` is reported in seconds *at this pace*; see
#: :func:`at_reference_pace`.
REFERENCE_S = 0.070
_MODULI = np.array(
    [1073741441, 1073740609, 1073739937, 1073739649, 1073738753,
     1073738497, 1073737729, 1073736961, 1073735297], dtype=np.int64,
)[:, None]
_A = (np.arange(9 * 128, dtype=np.int64).reshape(9, 128) * 2654435761 + 12345) % _MODULI
_B = (np.arange(9 * 128, dtype=np.int64).reshape(9, 128) * 40503 + 977) % _MODULI


def calibrate() -> float:
    """Run the kernel once; returns its wall time in seconds (one ``cu``)."""
    acc = _A.copy()
    start = time.perf_counter()
    for _ in range(ROUNDS):
        acc = acc * _B % _MODULI
        acc = acc + _A
        acc = np.where(acc >= _MODULI, acc - _MODULI, acc)
    elapsed = time.perf_counter() - start
    if int(acc[0, 0]) < 0:  # consume the result inside the timed region's scope
        raise AssertionError("calibration kernel produced a negative residue")
    return elapsed


def at_reference_pace(wall_s: float) -> float:
    """``wall_s`` scaled to the reference pace, by calibrating right now.

    Raw seconds on a shared box drift by up to a fifth within the hour; a
    metric that has to stay in seconds (``setup_s``) is therefore reported as
    the seconds it would have taken with the kernel at ``REFERENCE_S``."""
    pace = (calibrate() + calibrate()) / 2.0
    return wall_s * REFERENCE_S / pace
