"""Striping across multiple devices (the paper's Table 5 configurations).

The paper scales random-read IOPS by attaching several identical drives
(cSSD x 4, eSSD x 8, XLFDD x 12) and spreading the index across them.
:class:`StripedVolume` routes each request's *timing* to a device chosen
by the block index of its address; the byte content itself lives in a
single :class:`~repro.storage.blockstore.BlockStore` because the bytes do
not depend on which drive holds them.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.storage.device import DeviceProfile, DeviceStats, StorageDevice
from repro.utils.validation import require_positive

__all__ = ["StripedVolume"]


class StripedVolume:
    """A set of devices striped at a fixed unit (default: one 512-B block)."""

    def __init__(self, devices: Sequence[StorageDevice], stripe_unit: int = 512) -> None:
        if not devices:
            raise ValueError("a volume needs at least one device")
        require_positive(stripe_unit, "stripe_unit")
        self.devices = list(devices)
        self.stripe_unit = stripe_unit

    @classmethod
    def of(cls, profile: DeviceProfile, count: int, stripe_unit: int = 512) -> "StripedVolume":
        """Build a volume of ``count`` identical devices."""
        require_positive(count, "count")
        return cls([StorageDevice(profile) for _ in range(count)], stripe_unit)

    @property
    def device_count(self) -> int:
        """Number of member devices."""
        return len(self.devices)

    @property
    def max_iops(self) -> float:
        """Aggregate saturated random-read throughput (Table 5, right column)."""
        return sum(device.profile.max_iops for device in self.devices)

    @property
    def capacity_bytes(self) -> int:
        """Aggregate capacity."""
        return sum(device.profile.capacity_bytes for device in self.devices)

    def reset(self) -> None:
        """Reset all member devices' bookings and statistics."""
        for device in self.devices:
            device.reset()

    def device_for(self, address: int) -> StorageDevice:
        """Device holding the stripe that ``address`` falls in."""
        return self.devices[(address // self.stripe_unit) % len(self.devices)]

    def submit(self, submit_ns: float, address: int, length: int) -> float:
        """Book a read and return its completion time.

        Reads are expected to stay within one stripe unit (the index layout
        only issues single-block reads); longer reads are charged to the
        device owning the first stripe, which slightly favors the volume
        but never changes who wins an experiment.
        """
        return self.device_for(address).submit(submit_ns, length)

    def submit_batch(
        self, now: float, io_cpu_ns: float, overhead_ns: float, requests: Sequence[tuple[int, int]]
    ) -> tuple[float, float, float]:
        """Book ``(address, length)`` requests issued back-to-back from ``now``.

        The CPU pays ``overhead_ns`` before each request: one addition to
        ``now`` and to the caller's running ``io_cpu_ns`` per request, in
        request order (``overhead_ns * n`` is another float).  Devices
        are independent, so each books its share as one run.  Returns
        ``(now, io_cpu_ns, latest completion)``; a non-positive length
        raises before anything is booked.
        """
        devices, unit = self.devices, self.stripe_unit
        count = len(devices)
        runs: list[list[tuple[float, int]]] = [[] for _ in devices]
        for position, (address, length) in enumerate(requests):
            if length <= 0:
                raise ValueError(
                    f"request {position} of the batch: length must be positive, got {length}"
                )
            now += overhead_ns
            io_cpu_ns += overhead_ns
            runs[(address // unit) % count].append((now, length))  # device_for(address)
        done_ns = now  # the last request completes later than it was issued
        for device, run in zip(devices, runs):
            if run:
                done_ns = max(done_ns, device.submit_run(run)[-1])
        return now, io_cpu_ns, done_ns

    def combined_stats(self) -> DeviceStats:
        """Merge member device statistics into one record."""
        merged = DeviceStats()
        for device in self.devices:
            stats = device.stats
            merged.completed += stats.completed
            merged.total_latency_ns += stats.total_latency_ns
            merged.first_submit_ns = min(merged.first_submit_ns, stats.first_submit_ns)
            merged.last_completion_ns = max(merged.last_completion_ns, stats.last_completion_ns)
        return merged

    def __repr__(self) -> str:
        names = {device.profile.name for device in self.devices}
        return f"StripedVolume({len(self.devices)} x {'/'.join(sorted(names))})"
