"""Host-speed correction for timings taken on a shared machine.

On a virtual machine that shares its cores, the same pure-Python work can
take anywhere from 1x to 2x as long depending on what the neighbours do,
in phases that last seconds to minutes.  A pass of the heavy workload
measured 26 s to 45 s of wall time on unchanged code.

``HostSpeed`` samples the host's speed on the benchmark's own core while a
pass runs: every ``PROBE_INTERVAL_S`` a SIGALRM handler times one fixed
probe, a small sparse-row update on ``Fraction``s like the verifier's
inner loops.  Consecutive probes are grouped in chunks of ``CHUNK``; the
median probe time of a chunk gives the speed factor
``(REFERENCE_PROBE_S / median) ** SENSITIVITY`` for the interval the chunk
covers.  ``seconds(t0, t1)`` integrates that factor over an interval and
removes the probes' own time, giving reference seconds: the time the
interval would have taken on a host where the probe takes
``REFERENCE_PROBE_S``.  The probes cost about 1% of a pass.

The verifier slows down less than the probe when the host is busy.  Over
two sets of ten runs of every workload (10 to 28 passes per workload and
set), the exponent that left the least spread of pass times was 0.8 to 0.9
on each workload; 1.0 over-corrected, reading busy phases 2-6% fast.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_right
from fractions import Fraction
from time import perf_counter

PROBE_INTERVAL_S = 0.05
CHUNK = 10
# The unit: a little under the fastest probe times seen (0.27 ms at the 5th
# percentile) on a 2-vCPU Intel Xeon VM at 2.1 GHz under CPython 3.11.7.
REFERENCE_PROBE_S = 0.00025
SENSITIVITY = 0.85


def _probe_work() -> None:
    row: dict = {}
    for i in range(1, 100):
        j = (i * 7) % 41
        w = row.get(j, Fraction(0)) + Fraction(i, 3)
        if w:
            row[j] = w


class HostSpeed:
    """Context manager that probes the host while the body runs."""

    def __init__(self):
        self.starts: list = []
        self.durations: list = []
        self._curve = None  # built on exit

    def probe(self, *_signal_args) -> None:
        t = perf_counter()
        _probe_work()
        self.starts.append(t)
        self.durations.append(perf_counter() - t)

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        while len(self.starts) < CHUNK:  # a short body still gets a local estimate
            self.probe()
        self._curve = self._build_curve()

    def _build_curve(self):
        """Breakpoints, speed factors, the integral up to each breakpoint, and
        the running total of the probes' own time in reference seconds.

        Chunk j holds probes [j*CHUNK, (j+1)*CHUNK); the last chunk also takes
        the remainder.  Its factor holds from its first probe to the next
        chunk's first probe, and beyond the ends of the probed interval."""
        n_chunks = max(len(self.starts) // CHUNK, 1)
        breaks, factors, cumulative, probe_total = [], [], [0.0], [0.0]
        for j in range(n_chunks):
            stop = (j + 1) * CHUNK if j + 1 < n_chunks else len(self.starts)
            chunk = self.durations[j * CHUNK:stop]
            breaks.append(self.starts[j * CHUNK])
            factors.append((REFERENCE_PROBE_S / statistics.median(chunk)) ** SENSITIVITY)
            if j:
                cumulative.append(cumulative[-1] + (breaks[j] - breaks[j - 1]) * factors[j - 1])
            for d in chunk:
                probe_total.append(probe_total[-1] + d * factors[j])
        return breaks, factors, cumulative, probe_total

    def _integral(self, t: float) -> float:
        breaks, factors, cumulative, _ = self._curve
        j = max(bisect_right(breaks, t) - 1, 0)
        return cumulative[j] + (t - breaks[j]) * factors[j]

    def seconds(self, t0: float, t1: float) -> float:
        """Reference seconds spent in [t0, t1], probes excluded.  Valid once
        the context has exited."""
        probe_total = self._curve[3]
        probes = probe_total[bisect_right(self.starts, t1)] - probe_total[bisect_right(self.starts, t0)]
        return self._integral(t1) - self._integral(t0) - probes
