"""The fixed reference loop that ``run.py`` and its child processes time.

Its time tracks how fast the host runs the calling process at that
moment: on the 2-vCPU KVM reference host the same loop swings between
about 1.3 and 2.2 ms within seconds, as every operation does.
"""

from __future__ import annotations

import time

import numpy as np

#: the loop's input is fixed, so every call does the same work: a
#: permutation of 0..65535 (40503 is odd, so multiplying by it mod 2**16
#: is a bijection), built without numpy.random so that the system under
#: test's memory does not grow by that module
_ARRAY = (np.arange(65_536) * 40_503 % 65_536).astype(float)
#: the loop's median time on the reference host; host-adjusted operation
#: times are expressed at this speed
NOMINAL_MS = 1.5


def reference_ms() -> float:
    """One timed pass of a pure-Python loop and a NumPy sort."""
    start = time.perf_counter()
    acc = 0
    for i in range(10_000):
        acc = (acc * 31 + i) % 1_000_003
    np.sort(_ARRAY)
    return (time.perf_counter() - start) * 1000


def reference_sample() -> float:
    """The median of three passes."""
    return sorted(reference_ms() for _ in range(3))[1]
