"""A fixed reference computation that tracks the speed of a shared machine.

The machine the benchmark runs on is shared: other load slows every job by
up to 2x, for seconds at a time, and for whole minutes by 20-40%.  The
fastest of a run's passes cancels the short swings but not the long ones.
So the measuring process also times this reference between jobs: fixed
pure-Python work of the same kind as the package's kernels (integer gcds as
in exact rational arithmetic, tuple sums as in monomial keys, dict updates
as in polynomial terms), using no code of the package and no library code a
package change could touch.  Its low decile over a run is the run's
machine speed, and run.py reports job times scaled to the speed at which
the reference takes NOMINAL_S.

Garbage collection is off while the reference runs, so that a package that
changes the collector's settings does not change the reference.
"""

from __future__ import annotations

import gc
import math
import statistics
import time

# The reference's low-decile time on an undisturbed 2-CPU x86-64 machine
# with CPython 3.11; only the ratio of two runs' figures matters.
NOMINAL_S = 0.0015

_KEYS = tuple(tuple((i * j) % 5 - 2 for j in range(1, 8)) for i in range(16))


def work() -> int:
    acc: dict[tuple[int, ...], int] = {}
    num, den = 1, 1
    for i in range(1, 1000):
        num = (num * (i % 97 + 1) + den * (i % 89)) % 1_000_000_007
        den = den * (i % 83 + 1) % 998_244_353 + 1
        g = math.gcd(num, den)
        num, den = num // g, den // g
        key = tuple(x + y for x, y in zip(_KEYS[i % 16], _KEYS[i * 7 % 16]))
        acc[key] = acc.get(key, 0) + num % 65_537
    return len(acc)


def timed() -> float:
    """Seconds one run of the reference takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def slowdown(samples: list[float]) -> float:
    """How much slower than nominal the machine ran: the low decile of the
    reference's times over NOMINAL_S."""
    low = statistics.quantiles(samples, n=10)[0] if len(samples) >= 2 else samples[0]
    return low / NOMINAL_S
