"""Frozen machine-speed yardstick.

On the 2-core shared host the baseline was measured on, Python runs at
one of two speeds about 1.7x apart and flips between them every 0.1-1 s.
One unmodified 50 ms RK4 march gave per-process medians from 36 to
60 ms, with CPU time tracking wall time, so the cause is the machine's
speed, not scheduling.  A median over multi-second operations therefore
moved by up to a quarter between runs.

Every timed operation is bracketed by two short slices of this kernel,
and its time is scaled by ``NOMINAL_S / mean(slice before, slice after)``.
That turns raw seconds into *normalised seconds*: the time the operation
would take on a machine that runs this kernel in ``NOMINAL_S``.  In a
trial on that host, a check operation's raw medians over five processes
spread from 130.9 to 160.2 ms while its normalised medians spread from
154.6 to 160.5 ms.  The bracket only works for short operations (tens
to a few hundred milliseconds); bracketing 1-4 s operations did not help.

The kernel is a plain-Python RK4 march of a 2-d harmonic oscillator: the
same mix of float arithmetic, tuple building and small function calls as
the program's own march.  It must never import ``sirham``, and it must not
change: a changed kernel changes the unit every committed number is in.
"""

from __future__ import annotations

import time

#: typical time of one slice on the machine the baseline was taken on;
#: this fixes the unit of every normalised time and must not change
NOMINAL_S = 0.040

_STEPS = 6400
_DT = 3.125e-4
#: final position after one slice, to catch an accidentally edited kernel
_EXPECTED_X = 0.41614683654759


def _rhs(y: tuple) -> tuple:
    return (y[1], -y[0])


def _march() -> float:
    y = (1.0, 0.0)
    half = 0.5 * _DT
    sixth = _DT / 6.0
    for _ in range(_STEPS):
        k1 = _rhs(y)
        k2 = _rhs(tuple(a + half * b for a, b in zip(y, k1)))
        k3 = _rhs(tuple(a + half * b for a, b in zip(y, k2)))
        k4 = _rhs(tuple(a + _DT * b for a, b in zip(y, k3)))
        y = tuple(
            a + sixth * (p + 2.0 * (q + r) + s)
            for a, p, q, r, s in zip(y, k1, k2, k3, k4)
        )
    return y[0]


def slice_s() -> float:
    """Run one slice of the kernel and return its wall time in seconds."""
    start = time.perf_counter()
    x = _march()
    elapsed = time.perf_counter() - start
    if abs(x + _EXPECTED_X) > 1e-9:
        raise RuntimeError(f"yardstick kernel changed: x = {x!r}")
    return elapsed
