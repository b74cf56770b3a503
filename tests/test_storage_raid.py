"""Tests for repro.storage.raid."""

import pytest

from repro.storage.device import StorageDevice
from repro.storage.profiles import DEVICE_PROFILES
from repro.storage.raid import StripedVolume


def make_volume(count=4, stripe=512):
    return StripedVolume.of(DEVICE_PROFILES["cssd"], count, stripe)


def test_round_robin_routing_by_block():
    volume = make_volume(count=4, stripe=512)
    assert volume.device_for(0) is volume.devices[0]
    assert volume.device_for(511) is volume.devices[0]
    assert volume.device_for(512) is volume.devices[1]
    assert volume.device_for(512 * 5) is volume.devices[1]


def test_striping_multiplies_throughput():
    single = make_volume(count=1)
    quad = make_volume(count=4)
    assert quad.max_iops == pytest.approx(4 * single.max_iops)
    # Spread submissions land on different devices, so completions do
    # not serialize behind one device's regulator.
    t_single = max(single.submit(0.0, i * 512, 512) for i in range(64))
    t_quad = max(quad.submit(0.0, i * 512, 512) for i in range(64))
    assert t_quad < t_single


def test_striping_math_exact_device_index():
    """``device = (address // stripe_unit) mod count`` for any unit."""
    volume = StripedVolume.of(DEVICE_PROFILES["cssd"], 3, stripe_unit=4096)
    for address, expected in (
        (0, 0),
        (4095, 0),
        (4096, 1),
        (8191, 1),
        (8192, 2),
        (12288, 0),  # wraps around after count * stripe_unit bytes
        (3 * 4096 * 1000 + 2 * 4096, 2),
    ):
        assert volume.device_for(address) is volume.devices[expected]


def test_striping_cycle_length_is_count_times_unit():
    count, stripe = 4, 512
    volume = make_volume(count=count, stripe=stripe)
    for block in range(3 * count):
        assert (
            volume.device_for(block * stripe)
            is volume.devices[block % count]
        )


def test_long_read_charged_to_first_stripe_owner():
    volume = make_volume(count=4, stripe=512)
    volume.submit(0.0, 512, 4096)  # spans stripes 1..8, owner is device 1
    assert volume.devices[1].stats.completed == 1
    assert all(
        volume.devices[i].stats.completed == 0 for i in (0, 2, 3)
    )


def test_spread_addresses_land_on_all_devices():
    volume = make_volume(count=4, stripe=512)
    for block in range(8):
        volume.submit(0.0, block * 512, 512)
    assert [device.stats.completed for device in volume.devices] == [2, 2, 2, 2]


def test_combined_stats_merges_devices():
    volume = make_volume(count=2)
    for i in range(10):
        volume.submit(0.0, i * 512, 512)
    merged = volume.combined_stats()
    assert merged.completed == 10
    assert merged.completed == sum(d.stats.completed for d in volume.devices)


def test_reset_propagates():
    volume = make_volume(count=2)
    volume.submit(0.0, 0, 512)
    volume.reset()
    assert all(d.stats.completed == 0 for d in volume.devices)


def test_validation():
    with pytest.raises(ValueError):
        StripedVolume([], stripe_unit=512)
    with pytest.raises(ValueError):
        StripedVolume([StorageDevice(DEVICE_PROFILES["cssd"])], stripe_unit=0)
    with pytest.raises(ValueError):
        StripedVolume.of(DEVICE_PROFILES["cssd"], 0)


def test_capacity_aggregates():
    volume = make_volume(count=3)
    assert volume.capacity_bytes == 3 * DEVICE_PROFILES["cssd"].capacity_bytes


def test_submit_batch_is_submit_per_request_with_the_overhead_paid_before_each():
    batch, single = make_volume(count=4), make_volume(count=4)
    requests = [(0, 512), (512, 512), (4 * 512, 8), (512, 512), (7 * 512, 4096)]
    now, io_cpu_ns, completions = 50.0, 7.0, []
    for address, length in requests:
        now += 333.3
        io_cpu_ns += 333.3
        completions.append(single.submit(now, address, length))
    assert batch.submit_batch(50.0, 7.0, 333.3, requests) == (now, io_cpu_ns, max(completions))
    assert [d.stats for d in batch.devices] == [d.stats for d in single.devices]
    assert batch.devices[2].stats.completed == 0
    # Nothing to issue: the clock stands still and the batch is done at once.
    assert batch.submit_batch(9.0, 1.0, 333.3, ()) == (9.0, 1.0, 9.0)


def test_submit_batch_checks_every_length_before_booking_any():
    volume = make_volume(count=2)
    with pytest.raises(ValueError, match="request 2 of the batch: length must be positive, got 0"):
        volume.submit_batch(0.0, 0.0, 1000.0, [(0, 512), (512, 512), (1024, 0)])
    assert volume.combined_stats().completed == 0
    assert all(set(device._ring) == {0.0} for device in volume.devices)
