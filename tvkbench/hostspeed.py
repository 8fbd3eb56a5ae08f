"""Host speed of the moment, read from a fixed pure-Python kernel.

On a shared host the same call can take 1.5x longer for minutes at a time
while another tenant loads the core and caches. Such a slowdown stretches
every stretch of Python code alike, so a fixed kernel timed next to the
pipeline calls measures it. ``scale(seconds, kernel_s)`` turns a measured
time into seconds at the speed where the kernel takes ``REFERENCE_S``.

The kernel is exact rational elimination, the arithmetic tvk itself does,
but it shares no code with tvk: a change to tvk cannot change the kernel's
time. The collector is off while it runs, so the heap tvk leaves behind
does not either.
"""
from __future__ import annotations

import gc
import random
import time
from fractions import Fraction

REFERENCE_S = 0.004  # the kernel's time on a 2-vCPU x86_64 VM, Python 3.11.7, when not slowed
DETS = 16  # determinants per kernel run

_rng = random.Random(1)
_MATRIX = [[Fraction(_rng.randint(-999, 999), _rng.randint(1, 99)) for _ in range(5)] for _ in range(5)]


def _det(m) -> Fraction:
    m = [row[:] for row in m]
    n = len(m)
    d = Fraction(1)
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c] != 0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            d = -d
        d *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return d


def kernel_seconds() -> float:
    """Wall time of one run of the kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(DETS):
            _det(_MATRIX)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(seconds: float, kernel_s: float) -> float:
    """``seconds`` measured while the kernel took ``kernel_s``, at reference speed."""
    return seconds * REFERENCE_S / kernel_s
