"""A fixed reference kernel that measures how fast the shared CPU runs now.

The benchmark's machine is a few virtual CPUs of a shared host, and its speed
moves with the host's load: the same `Scene.verify` takes 1.3 s for half a
minute and 2.3 s for the next, and every stage of the library slows together.
The kernel below does the three kinds of work the library does (small numpy
calls, as in scalar support evaluation and root refinement; numpy calls on
large arrays, as in batched positions and rendering; plain Python float
arithmetic), takes about 3.5 ms a pass, and slows with the library: over 3
minutes of alternating the two, its time and that of a 2 s verify moved
together with a correlation of 0.9 while both spread by a quarter.

A timed stage is scaled by REFERENCE_S over the kernel's time around it, so
the benchmark reports what the stage would take at the speed the machine had
when REFERENCE_S was measured. The kernel never calls the library, so a change
to the library cannot move it.
"""

from __future__ import annotations

import math
import time

import numpy as np

# about the tenth percentile of kernel_s() over half a minute on a 2-vCPU
# Intel Xeon virtual machine (Python 3.11.7, numpy 2.4.6), whose kernel times
# then ranged from 2.1 to 3.9 ms: the speed of a lightly loaded host
REFERENCE_S = 0.0025

_SMALL = np.linspace(0.0, 2.0 * math.pi, 64)
_LARGE = np.linspace(0.0, 2.0 * math.pi, 16384)


def _kernel() -> float:
    acc = 0.0
    for i in range(100):
        acc += float(np.sum(np.cos(_SMALL * (1.0 + i * 1e-3)) * np.sin(_SMALL)))
    for i in range(4):
        acc += float(np.sum(np.cos(_LARGE * (1.0 + i))))
    for i in range(10000):
        acc += math.cos(i * 1e-3) * 0.5
    return acc


# every kernel_s() result of this process, for the run's summary
timings: list[float] = []


def kernel_s(repeats: int = 10) -> float:
    """Mean time of one kernel pass over `repeats` passes, in seconds."""
    t0 = time.perf_counter()
    for _ in range(repeats):
        _kernel()
    t = (time.perf_counter() - t0) / repeats
    timings.append(t)
    return t


def scale(before: float, after: float) -> float:
    """Factor that takes a time measured between two kernel timings to the
    reference speed."""
    return REFERENCE_S / (0.5 * (before + after))
