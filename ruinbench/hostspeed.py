"""Host speed: a fixed mix of work timed between ops, and the scale that
turns a measured wall time into seconds on a host of nominal speed.

The shared host this benchmark was built on changes speed by up to 2x
over minutes, for every kind of work at once: the same op, the same
numpy call and the same mpmath loop all slow down together. A run's
wall times therefore move with the host as much as with the program.
The mix below does the kinds of work the program does (a pure-Python
loop, numpy convolutions, 400-bit mpmath arithmetic), in the
benchmark's own code, so a change to ruinwalk never changes its time.
An op's time multiplied by ``NOMINAL_S / mix time`` is what it would
take on a host where the mix takes ``NOMINAL_S``.

A change that makes numpy or mpmath themselves faster (another mpmath
backend, say) moves the mix too; the run record's ``env`` says which
was used.
"""

from __future__ import annotations

import statistics
import time

import mpmath
import numpy as np

# Seconds the mix takes on the nominal host: about its median on the
# 2-core host the reference figures in README.md come from.
NOMINAL_S = 0.003

_VEC = np.random.default_rng(0).random(1500)
# A context of its own, so the program's precision settings never reach it.
_CTX = mpmath.MPContext()
_CTX.prec = 400
_TERMS = [_CTX.mpf(i) / 7 for i in range(1, 120)]


def _mix() -> None:
    acc = 0
    for i in range(8000):
        acc += i * i
    np.convolve(_VEC, _VEC)
    np.convolve(_VEC, _VEC)
    s = _CTX.mpf(0)
    for _ in range(2):
        for x in _TERMS:
            s = s * x + x


def mix_seconds(repeats: int = 1) -> float:
    """Median wall time of the mix over ``repeats`` runs of it."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _mix()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scale(samples: list[float]) -> float:
    """Factor from wall time to nominal-host time, from mix samples taken
    around the timed work."""
    return NOMINAL_S / statistics.median(samples)
