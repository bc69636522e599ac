"""Speed calibration: report times at a fixed reference speed.

On a shared host the speed of a core changes by up to 2x within seconds
(another tenant on the same physical core).  Raw medians of 30 s runs
then spread by 15-30%, which hides any change smaller than that.  So
every timed call is bracketed by this fixed pure-Python kernel (exact
`Fraction` arithmetic, like the library's own inner loops), and its
duration is scaled to the speed at which the kernel takes K_REF_S:

    scaled = elapsed * K_REF_S / mean(kernel before, kernel after)

A change that makes the library faster or slower moves the scaled time
just as it moves the raw one; the host's drift cancels.  Raw times are
kept in the run record.
"""

from __future__ import annotations

import time
from fractions import Fraction

ITERATIONS = 500
K_REF_S = 0.001  # the kernel's time on an uncontended 2.1 GHz Xeon core


def kernel_s() -> float:
    start = time.perf_counter()
    x = Fraction(0)
    for i in range(ITERATIONS):
        x += Fraction(i % 7, 13)
    return time.perf_counter() - start


def scaled(elapsed: float, before: float, after: float) -> float:
    return elapsed * 2 * K_REF_S / (before + after)
