"""How fast the host runs Python right now, from a fixed reference loop.

On a shared virtual machine the speed of a core changes by up to 1.8x
for seconds or minutes at a time, and it slows the engine and this loop
alike.  Timing the loop right before and after each timed call gives the
host's speed at that moment, and dividing by it turns a wall time into
*nominal seconds*: the time the call would take on a host where
``reference()`` takes ``NOMINAL_REF_S``.  A change to the engine moves
nominal seconds as it moves wall time; a change of the host's speed
cancels out.

The loop uses only the standard library (``Fraction`` sums, big integers,
a dict with tuple keys: the operations the engine spends its time in) and
must never change, or nominal seconds before and after the change are no
longer comparable.
"""
from __future__ import annotations

import time
from fractions import Fraction

NOMINAL_REF_S = 1e-3


def reference() -> Fraction:
    total = Fraction(0)
    seen = {}
    for i in range(1, 200):
        total += Fraction(i, i * i + 1)
        seen[(i, i % 7)] = total
    return total


def reference_ns(calls: int = 1) -> int:
    """Median wall time of ``calls`` calls of ``reference()``, in
    nanoseconds.  The first calls in a process run slower while the
    interpreter specialises the loop; warm it up with ``reference()``."""
    times = []
    for _ in range(calls):
        start = time.perf_counter_ns()
        reference()
        times.append(time.perf_counter_ns() - start)
    return sorted(times)[calls // 2]


def nominal_s(elapsed_ns: int, before_ns: int, after_ns: int) -> float:
    """``elapsed_ns`` of wall time in nominal seconds, the host's speed
    taken as the mean of the reference timed before and after."""
    return elapsed_ns * NOMINAL_REF_S / ((before_ns + after_ns) / 2)
