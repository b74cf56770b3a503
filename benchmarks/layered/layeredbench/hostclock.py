"""Host seconds at a reference host speed.

The box this benchmark runs on is a few cores of a shared host whose
speed flips, every few tens of milliseconds, between a fast state and
one ~1.65x slower, and the share of slow time drifts over minutes: the
same repetition reads 4.5 s in one run and 8 s in the next.  No
estimator over multi-second repetitions removes that (median, mean and
minimum spread alike), so the clock measures the host's speed *while*
the timed block runs and reports the block's length in **reference
seconds**: the time the block would have taken on a host that runs the
probe at :data:`REFERENCE_SPEED` throughout.

How: an interval timer (``SIGALRM`` every :data:`PROBE_INTERVAL_S`)
runs a fixed probe (~0.2 ms: a pure-Python loop, then numpy reductions)
in the main thread between two bytecodes of the timed block and records
how long it took.  The block's own time is its wall time minus the
probes; the work it did is that time multiplied by the time-weighted
mean probe speed; dividing by the reference speed gives reference
seconds.  On a host that runs the probe at the reference speed
throughout, reference seconds are wall seconds.

It measures from outside: one process, one thread, nothing added to the
program (the probes cost the block ~2% of a core and some cache).  It
assumes the block slows down by the same factor as the probe.  That is
roughly so on this host (README "Host noise": the elasticity of
repetition time to probe speed was 0.7-0.85 on all four workloads over
25 minutes, nearer 1 in noisy stretches), and it is what removes the
large swings; what is left, ~5% per repetition, is noise the probe does
not see plus noise only the probe sees.  The speed a probe reads also
depends a little on what it interrupts (how much of its 256 KiB the
program left in the cache), so a change to the program's memory
footprint can move reference seconds by a few percent on its own: the
wall seconds are kept beside them for that reason.
"""

from __future__ import annotations

import gc
import signal
import time
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

import numpy as np

__all__ = ["Timed", "timed", "REFERENCE_SPEED", "PROBE_INTERVAL_S"]

#: Probes per second that define the reference host: about what a probe
#: reads, beside the program, on the box this was written on when its
#: neighbours are quiet.
REFERENCE_SPEED = 5000.0
PROBE_ITERATIONS = 2000
PROBE_REDUCTIONS = 10
PROBE_INTERVAL_S = 0.01
_PROBE_ARRAY = np.linspace(0.0, 1.0, 32768)


@dataclass(frozen=True)
class Timed:
    """How long one block took, and how fast the host was meanwhile."""

    #: Wall seconds from start to end, probes included.
    wall_s: float
    #: Wall seconds minus the time spent inside probes.
    busy_s: float
    #: Time-weighted mean probe speed over the block, probes/s.
    host_speed: float
    probes: int

    @property
    def reference_s(self) -> float:
        """The block's length on a host running at the reference speed."""
        return self.busy_s * self.host_speed / REFERENCE_SPEED


def _probe() -> float:
    """Run the fixed probe once; host seconds it took.

    Half interpreter loop, half numpy reductions over a 256 KiB array:
    like the program, and unlike a bare loop, part of it waits on the
    cache, so a busy sibling slows both by about the same factor.
    """
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i % 7
    for _ in range(PROBE_REDUCTIONS):
        _PROBE_ARRAY.sum()
    return time.perf_counter() - start


def timed(fn: Callable[[], Any]) -> tuple[Timed, Any]:
    """Run ``fn()`` under the speed probe: (its timing, its result)."""
    samples: list[tuple[float, float]] = []  # (probe end, probe seconds)

    def on_tick(signum: int, frame: Any) -> None:
        took = _probe()
        samples.append((time.perf_counter(), took))

    gc.collect()
    previous_handler = signal.signal(signal.SIGALRM, on_tick)
    previous_timer = signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    start = time.perf_counter()
    try:
        result = fn()
        end = time.perf_counter()
    finally:
        signal.setitimer(signal.ITIMER_REAL, *previous_timer)
        signal.signal(signal.SIGALRM, previous_handler)
    if not samples:  # a block shorter than one tick
        took = _probe()
        samples.append((end + took, took))
    # Each probe speaks for the stretch of the block since the probe
    # before it; the last one also for the tail after it.
    weighted = covered = 0.0
    previous_end = start
    for probe_end, took in samples:
        stretch = max(probe_end - took - previous_end, 0.0)
        weighted += stretch / took
        covered += stretch
        previous_end = probe_end
    tail = max(end - previous_end, 0.0)
    weighted += tail / samples[-1][1]
    covered += tail
    wall_s = end - start
    inside = sum(took for probe_end, took in samples if probe_end <= end)
    mean_speed = weighted / covered if covered > 0 else 1.0 / samples[-1][1]
    return Timed(wall_s, wall_s - inside, mean_speed, len(samples)), result
