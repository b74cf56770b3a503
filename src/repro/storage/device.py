"""Closed-queue timing model of a random-read storage device.

The paper characterizes each device by its random-read throughput at
queue depth 1 and at queue depth 128 (Table 2).  We reproduce exactly
those two observables with a two-parameter model:

- ``latency_ns``: the service time of one read when the device is idle.
  At queue depth 1 the measured throughput is ``1 / latency``.
- ``max_iops``: the saturated random-read throughput.  Internally the
  device behaves like ``ceil(max_iops * latency)`` parallel flash
  channels, each serving one request at a time, plus a completion
  regulator that spaces departures at least ``1 / max_iops`` apart so the
  saturation point matches the measured figure even when the channel
  count rounds up.

Requests are assigned to the earliest-free channel (FCFS), which yields
the qualitative behaviour the paper relies on: throughput grows with
queue depth until saturation, and latency inflates near saturation
(Sec. 6.5, Figure 15).

An optional bandwidth term adds ``length / bandwidth`` to the service
time and widens the regulator gap for large transfers, modeling why the
paper measures IOPS at 512 bytes "in order not to be bandwidth-limited".
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.utils.units import NS_PER_S
from repro.utils.validation import require_positive

__all__ = ["DeviceProfile", "DeviceStats", "StorageDevice"]


@dataclass(frozen=True)
class DeviceProfile:
    """Calibration parameters for one device model (one row of Table 2)."""

    name: str
    latency_ns: float
    max_iops: float
    bandwidth_bytes_per_s: float = 3.0e9
    capacity_bytes: int = 2 * 1024**4

    def __post_init__(self) -> None:
        require_positive(self.latency_ns, "latency_ns")
        require_positive(self.max_iops, "max_iops")
        require_positive(self.bandwidth_bytes_per_s, "bandwidth_bytes_per_s")

    @property
    def qd1_iops(self) -> float:
        """Throughput with a single outstanding request."""
        return NS_PER_S / self.latency_ns

    @property
    def channels(self) -> int:
        """Number of internal parallel service units implied by the profile."""
        return max(1, math.ceil(self.max_iops * self.latency_ns / NS_PER_S))

    def iops_at_queue_depth(self, queue_depth: int) -> float:
        """Analytic steady-state throughput at a fixed queue depth.

        This is the closed-queue approximation
        ``min(queue_depth / latency, max_iops)``; the event-driven
        simulation in :class:`StorageDevice` agrees with it closely and
        the Table 2 benchmark checks both.
        """
        require_positive(queue_depth, "queue_depth")
        return min(queue_depth * NS_PER_S / self.latency_ns, self.max_iops)


@dataclass
class DeviceStats:
    """Completion statistics accumulated by a :class:`StorageDevice`."""

    completed: int = 0
    total_latency_ns: float = 0.0
    first_submit_ns: float = field(default=math.inf)
    last_completion_ns: float = 0.0

    @property
    def mean_latency_ns(self) -> float:
        """Average request latency (submit to completion)."""
        return self.total_latency_ns / self.completed if self.completed else 0.0

    def observed_iops(self) -> float:
        """Throughput over the busy window (completions per second)."""
        window = self.last_completion_ns - self.first_submit_ns
        if self.completed == 0 or window <= 0:
            return 0.0
        return self.completed * NS_PER_S / window

    def utilization(self, profile: DeviceProfile) -> float:
        """Observed throughput as a fraction of the profile's maximum."""
        return self.observed_iops() / profile.max_iops


class StorageDevice:
    """Event-driven instance of a :class:`DeviceProfile`.

    The device is purely a *timing* component: :meth:`submit` takes a
    submission timestamp and returns the completion timestamp.  Byte
    content lives in the block store.
    """

    def __init__(self, profile: DeviceProfile) -> None:
        self.profile = profile
        #: Request length -> (service time, regulator gap); both depend
        #: only on the frozen profile, and reads come in two sizes.
        self._timing_ns: dict[int, tuple[float, float]] = {}
        self.reset()

    def reset(self) -> None:
        """Forget all bookings and statistics."""
        # Channel free times, oldest booking first.  A completion is >= the
        # previous departure plus a positive gap, so never earlier than
        # anything queued: the earliest-free channel is the left end and a
        # new booking goes on the right — the pool is a FIFO queue.
        self._ring = deque([0.0] * self.profile.channels)
        self._last_departure_ns = -math.inf
        self.stats = DeviceStats()

    def _service_time_ns(self, length: int) -> float:
        transfer = length * NS_PER_S / self.profile.bandwidth_bytes_per_s
        return self.profile.latency_ns + transfer

    def _regulator_gap_ns(self, length: int) -> float:
        iops_gap = NS_PER_S / self.profile.max_iops
        bandwidth_gap = length * NS_PER_S / self.profile.bandwidth_bytes_per_s
        return max(iops_gap, bandwidth_gap)

    def _deferred(self, submit_ns: float) -> float:
        """When a request submitted at ``submit_ns`` reaches the device.

        This and :meth:`_latency_scale` are the fault-injection hooks
        (:class:`repro.serving.replication.TimelineDevice`); the base
        device never defers or degrades.
        """
        return submit_ns

    def _latency_scale(self, start_ns: float) -> float:
        """Service-time multiplier in effect when a read starts at ``start_ns``."""
        return 1.0

    def submit(self, submit_ns: float, length: int) -> float:
        """Book a random read of ``length`` bytes; return its completion time."""
        return self.submit_run(((submit_ns, length),))[0]

    def submit_run(self, run: Sequence[tuple[float, int]]) -> list[float]:
        """Book ``(submit_ns, length)`` reads in order; return their completions
        (non-decreasing).  Every length is checked before anything is booked."""
        timings = self._timing_ns
        for _, length in run:
            if length not in timings:
                if length <= 0:
                    raise ValueError(f"length must be positive, got {length}")
                timings[length] = (self._service_time_ns(length), self._regulator_gap_ns(length))
        popleft, append = self._ring.popleft, self._ring.append
        deferred, latency_scale = self._deferred, self._latency_scale
        stats = self.stats
        last_ns = self._last_departure_ns
        total_latency_ns, first_submit_ns = stats.total_latency_ns, stats.first_submit_ns
        completions = []
        for submit_ns, length in run:
            service_ns, gap_ns = timings[length]
            submit_ns = deferred(submit_ns)
            # Earliest-free channel (FCFS over a pool of parallel service units).
            # ``b if b > a else a`` is ``max(a, b)`` without a call per request.
            free_ns = popleft()
            start = free_ns if free_ns > submit_ns else submit_ns
            completion = start + service_ns * latency_scale(start)
            # Departure regulator: completions cannot come faster than max_iops.
            regulated = last_ns + gap_ns
            last_ns = regulated if regulated > completion else completion
            append(last_ns)
            total_latency_ns += last_ns - submit_ns
            if submit_ns < first_submit_ns:
                first_submit_ns = submit_ns
            completions.append(last_ns)
        self._last_departure_ns = last_ns
        stats.completed += len(run)
        stats.total_latency_ns, stats.first_submit_ns = total_latency_ns, first_submit_ns
        stats.last_completion_ns = max(stats.last_completion_ns, last_ns)
        return completions

    def __repr__(self) -> str:
        return f"StorageDevice({self.profile.name!r})"
