"""Machine-speed probe and the scaling that turns wall time into reference time.

The speed of a small shared VM changes by tens of percent from one second
to the next, and CPU time tracks wall time, so neither clock alone gives
steady figures.  The benchmark therefore times this fixed probe a few times
in each gap between measured intervals and reports

    reference_seconds = wall_seconds * REFERENCE_PROBE_S / local_probe_s

where ``local_probe_s`` is the median of the probes in the gaps just before
and just after the interval.  Wider windows, and means in place of the
median, gave wider run-to-run spreads on this benchmark's workloads: the
probe sees short fast bursts that the program does not share.  The probe
imports nothing from ``rpif``, so no change to the program can change it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: probe time, in seconds, of the machine the reference figures refer to
#: (2-core x86-64 VM, Python 3.11, numpy 2.4, one BLAS thread); frozen so
#: that figures from different runs and commits stay comparable
REFERENCE_PROBE_S = 0.9e-3

_LOOP = 6000
_POINTS = (np.linspace(0.0, 4.0, 4096) * (0.5 - 1.0j)).astype(complex)


def probe() -> float:
    """Wall time of about 1 ms of pure-Python arithmetic plus numpy exp/sin."""
    start = time.perf_counter()
    acc = 0
    for i in range(_LOOP):
        acc = (acc * 31 + i) % 1000003
    np.exp(_POINTS)
    np.sin(_POINTS)
    return time.perf_counter() - start


def scale(raw_s: list[float], gaps: list[list[float]],
          reference_s: float = REFERENCE_PROBE_S) -> list[float]:
    """Reference-speed seconds of intervals timed between gaps of probes.

    ``gaps[i]`` holds the probe times taken just before interval ``i``, and
    ``gaps[-1]`` those taken after the last interval.
    """
    if len(gaps) != len(raw_s) + 1:
        raise ValueError(f"need {len(raw_s) + 1} gaps of probes for {len(raw_s)} "
                         f"intervals, got {len(gaps)}")
    return [raw * reference_s / statistics.median(gaps[i] + gaps[i + 1])
            for i, raw in enumerate(raw_s)]
