"""How fast this CPU runs plain Python during a run.

On a shared machine the speed of the same code drifts by tens of percent
between runs of a few seconds (other tenants, frequency changes), more
than the changes the benchmark has to resolve. Reported times are
therefore scaled to a reference speed: a fixed kernel that calls nothing
from the package is timed every PROBE_EVERY_S between requests, and a
run's times are multiplied by ``REFERENCE_S / mean(kernel time)``. A time
in reference units is the wall time the run would have taken on a CPU
that runs the kernel in REFERENCE_S. Raw wall times are reported too.
"""

import argparse
import json
from statistics import fmean
from time import perf_counter

# About the kernel's mean time on an unloaded Intel Xeon vCPU, CPython 3.11.
REFERENCE_S = 400e-6
# Probe again when the last probe is older than this.
PROBE_EVERY_S = 0.1


def kernel() -> str:
    """A small schoolbook convolution (integer multiply-adds, list indexing)
    and some argument parsing and JSON formatting from the standard
    library: the two kinds of work the package's requests are made of."""
    a = list(range(1000, 1048))
    b = list(range(7, 55))
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    parser = argparse.ArgumentParser(prog="probe")
    parser.add_argument("--n", type=int)
    parser.add_argument("--f", choices=["x", "y"])
    parser.add_argument("--g", action="append")
    parser.parse_args(["--n", "5", "--f", "x", "--g", "1", "--g", "2"])
    return json.dumps({"k%d" % i: str(c) for i, c in enumerate(out[:20])}, indent=2)


class Speed:
    """Kernel timings over a run; ``factor`` turns wall time into
    reference time."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def probe(self) -> None:
        for _ in range(3):
            t0 = perf_counter()
            kernel()
            self.samples.append(perf_counter() - t0)
        self._last = perf_counter()

    def maybe_probe(self) -> None:
        if perf_counter() - self._last >= PROBE_EVERY_S:
            self.probe()

    @property
    def factor(self) -> float:
        return REFERENCE_S / fmean(self.samples)
