"""Tests for repro.storage.device."""

import heapq
import math

import numpy as np
import pytest

from repro.serving.replication import TimelineDevice
from repro.storage.device import DeviceProfile, StorageDevice
from repro.storage.profiles import DEVICE_PROFILES
from repro.utils.units import NS_PER_S


def closed_loop_iops(device: StorageDevice, queue_depth: int, n: int = 2000) -> float:
    outstanding: list[float] = []
    submitted = 0
    now = 0.0
    last = 0.0
    while submitted < n or outstanding:
        while submitted < n and len(outstanding) < queue_depth:
            heapq.heappush(outstanding, device.submit(now, 512))
            submitted += 1
        now = heapq.heappop(outstanding)
        last = max(last, now)
    return n * NS_PER_S / last


def test_qd1_matches_latency():
    profile = DEVICE_PROFILES["cssd"]
    measured = closed_loop_iops(StorageDevice(profile), queue_depth=1)
    assert measured == pytest.approx(profile.qd1_iops, rel=0.05)


def test_high_qd_saturates_at_max_iops():
    profile = DEVICE_PROFILES["essd"]
    measured = closed_loop_iops(StorageDevice(profile), queue_depth=256, n=5000)
    assert measured == pytest.approx(profile.max_iops, rel=0.05)


def test_throughput_monotone_in_queue_depth():
    profile = DEVICE_PROFILES["cssd"]
    rates = [closed_loop_iops(StorageDevice(profile), qd, n=1000) for qd in (1, 4, 16, 64)]
    assert rates == sorted(rates)


def test_latency_inflates_near_saturation():
    device = StorageDevice(DEVICE_PROFILES["cssd"])
    closed_loop_iops(device, queue_depth=1, n=500)
    low_latency = device.stats.mean_latency_ns
    device.reset()
    closed_loop_iops(device, queue_depth=256, n=500)
    assert device.stats.mean_latency_ns > low_latency


def test_analytic_queue_depth_model():
    profile = DEVICE_PROFILES["xlfdd"]
    assert profile.iops_at_queue_depth(1) == pytest.approx(profile.qd1_iops)
    assert profile.iops_at_queue_depth(10_000) == profile.max_iops


def test_submit_validates_length():
    device = StorageDevice(DEVICE_PROFILES["cssd"])
    with pytest.raises(ValueError):
        device.submit(0.0, 0)


def test_bandwidth_term_slows_large_reads():
    profile = DEVICE_PROFILES["cssd"]
    device = StorageDevice(profile)
    small = device.submit(0.0, 512)
    device.reset()
    large = device.submit(0.0, 1024 * 1024)
    assert large > small


def test_reset_clears_stats():
    device = StorageDevice(DEVICE_PROFILES["cssd"])
    device.submit(0.0, 512)
    device.reset()
    assert device.stats.completed == 0
    assert device.stats.observed_iops() == 0.0


def test_profile_validation():
    with pytest.raises(ValueError):
        DeviceProfile(name="bad", latency_ns=0, max_iops=1000)
    with pytest.raises(ValueError):
        DeviceProfile(name="bad", latency_ns=100, max_iops=-1)


# -- the channel heap against the linear scan it replaced --------------------


class _LinearScanBooking:
    """``submit`` as it was before the channel heap: a Python
    ``min(range(channels), key=...)`` per request and the service time
    and regulator gap recomputed per call.  Kept here as the oracle."""

    def reset(self):
        super().reset()
        self._free_ns = [0.0] * self.profile.channels

    def submit(self, submit_ns, length):
        submit_ns = self._arrival(submit_ns)
        channel = min(range(len(self._free_ns)), key=self._free_ns.__getitem__)
        start = max(submit_ns, self._free_ns[channel])
        completion = start + self._service_time_ns(length) * self._latency_scale(start)
        completion = max(completion, self._last_departure_ns + self._regulator_gap_ns(length))
        self._free_ns[channel] = completion
        self._last_departure_ns = completion
        self.stats.completed += 1
        self.stats.total_latency_ns += completion - submit_ns
        self.stats.first_submit_ns = min(self.stats.first_submit_ns, submit_ns)
        self.stats.last_completion_ns = max(self.stats.last_completion_ns, completion)
        return completion


class _OracleDevice(_LinearScanBooking, StorageDevice):
    def _arrival(self, submit_ns):
        return submit_ns


class _OracleTimelineDevice(_LinearScanBooking, TimelineDevice):
    def _arrival(self, submit_ns):
        return self._deferred(submit_ns)


def _submission_stream(rng, n, profile):
    """``(submit_ns, length)`` pairs mixing idle gaps, same-instant
    bursts (exact ties on the submit time and, from a cold device, on
    every channel's free time), overload stretches where the departure
    regulator sets every completion, and bandwidth-bound large reads."""
    gap = NS_PER_S / profile.max_iops
    now = 0.0
    out = []
    while len(out) < n:
        mode = rng.integers(4)
        burst = int(rng.integers(1, 4 * profile.channels + 2))
        if mode == 0:  # idle device, widely spaced single reads
            for _ in range(burst):
                now += float(rng.exponential(3.0 * profile.latency_ns))
                out.append((now, 512))
        elif mode == 1:  # same-instant burst
            now += float(rng.exponential(profile.latency_ns))
            out.extend((now, 8 if i % 2 else 512) for i in range(burst))
        elif mode == 2:  # offered faster than max_iops: regulator-bound
            for _ in range(burst):
                now += float(rng.uniform(0.0, 0.9 * gap))
                out.append((now, 512))
        else:  # mixed sizes, some out of order (several CPU workers)
            for _ in range(burst):
                jitter = float(rng.uniform(-0.5, 1.0)) * profile.latency_ns
                length = int(rng.choice([8, 512, 4096, 1 << 20]))
                out.append((max(0.0, now + jitter), length))
            now += profile.latency_ns
    return out[:n]


TINY = DeviceProfile(name="tiny", latency_ns=10_000.0, max_iops=250_000.0)  # 3 channels


@pytest.mark.parametrize("profile", [DEVICE_PROFILES["cssd"], TINY], ids=lambda p: p.name)
def test_heap_booking_equals_linear_scan_booking(profile):
    stream = _submission_stream(np.random.default_rng(41), 60_000, profile)
    device, oracle = StorageDevice(profile), _OracleDevice(profile)
    assert profile.channels == len(oracle._free_ns)
    for round_ in range(2):  # the second round starts from reset(): ties again
        for submit_ns, length in stream:
            assert device.submit(submit_ns, length) == oracle.submit(submit_ns, length)
        assert device.stats == oracle.stats
        device.reset()
        oracle.reset()


def test_heap_booking_equals_linear_scan_booking_under_fault_windows():
    profile = DEVICE_PROFILES["cssd"]
    unit = profile.latency_ns
    events = [
        (2 * unit, 40 * unit, 3.0, 0.0, 0.0),  # latency window only
        (20 * unit, 90 * unit, 1.0, 5 * unit, 2 * unit),  # stall storm, overlapping
        (60 * unit, 70 * unit, 2.0, 3 * unit, 1 * unit),  # both, nested
        (150 * unit, math.inf, 1.5, 11 * unit, 4 * unit),  # open-ended
    ]
    stream = _submission_stream(np.random.default_rng(43), 100_000, profile)
    device, oracle = TimelineDevice(profile, events), _OracleTimelineDevice(profile, events)
    got = [device.submit(submit_ns, length) for submit_ns, length in stream]
    want = [oracle.submit(submit_ns, length) for submit_ns, length in stream]
    assert got == want
    assert device.stats == oracle.stats
    # The windows really were exercised: some reads ran slower than any
    # healthy read could, and some were deferred past a stall.
    assert max(c - s for c, (s, _) in zip(got, stream)) > 3 * unit
