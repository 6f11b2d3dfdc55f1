"""Host-speed probes, and timings restated at a reference host speed.

On the shared 2-vCPU VM where the benchmark was written, the host's speed
changes from second to second between a fast and a slow state (a fixed
pure-Python loop takes about 6.5 ms or about 9.5 ms, on either vCPU), and
the share of slow time drifts over minutes.  Two sets of raw runs of the
same code could differ by more than any useful regression bound.

The probes run no code of the program.  The benchmark takes them between
ops, untimed, and restates each op's time as it would read on a host
where the probe takes its reference time: the op's seconds times the
reference over the mean of the two probes taken just before and just
after it.  CLI calls and imports use the start probe; in-process work
uses the loop probe.
"""

from __future__ import annotations

import sys
from time import perf_counter

# A fresh interpreter that imports numpy.  It tracked the host's state for
# whole `robinsonblocks` processes better than a bare interpreter start.
START_ARGV = [sys.executable, "-c", "import numpy"]

# About the probes' medians on the VM the benchmark was written on.
START_REF_S = 0.160
LOOP_REF_S = 0.0095


def loop_s() -> float:
    """A fixed pure-Python loop."""
    t0 = perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return perf_counter() - t0


def restate(seconds: float, before: float, after: float, reference: float) -> float:
    """``seconds`` at the reference speed, from the probes around the op."""
    return seconds * reference * 2 / (before + after)
