"""Tests for repro.serving.replication."""

import math

import numpy as np
import pytest

from repro.core.params import E2LSHParams
from repro.serving.replication import (
    FaultSpec,
    ReplicaGroup,
    ReplicaRouter,
    RoutingConfig,
    TimelineDevice,
    build_replica_engines,
)
from repro.serving.sharding import ShardedIndex
from repro.storage.blockstore import MemoryBlockStore
from repro.storage.device import StorageDevice
from repro.storage.profiles import DEVICE_PROFILES


@pytest.fixture(scope="module")
def replicated():
    rng = np.random.default_rng(7)
    data = rng.standard_normal((300, 10)).astype(np.float32)
    return ShardedIndex.build(
        data,
        E2LSHParams(n=300),
        n_shards=2,
        scheme="hash",
        seed=7,
        replicas=3,
        faults=(FaultSpec(shard=1, replica=2, latency_multiplier=5.0),),
    )


# -- FaultSpec ---------------------------------------------------------------


def test_fault_degrades_latency_and_iops():
    profile = DEVICE_PROFILES["cssd"]
    slow = FaultSpec(shard=0, replica=0, latency_multiplier=5.0).degrade(profile)
    assert slow.latency_ns == pytest.approx(5.0 * profile.latency_ns)
    assert slow.max_iops == pytest.approx(profile.max_iops / 5.0)
    assert slow.name != profile.name


def test_fault_identity_multiplier_is_noop():
    profile = DEVICE_PROFILES["cssd"]
    assert FaultSpec(shard=0, replica=0).degrade(profile) is profile


def test_fault_targeting():
    fault = FaultSpec(shard=1, replica=2, latency_multiplier=2.0)
    assert fault.applies_to(1, 2)
    assert not fault.applies_to(1, 1)
    assert not fault.applies_to(0, 2)


def test_fault_validation():
    with pytest.raises(ValueError):
        FaultSpec(shard=-1, replica=0)
    with pytest.raises(ValueError):
        FaultSpec(shard=0, replica=0, latency_multiplier=0.5)
    with pytest.raises(ValueError):
        FaultSpec(shard=0, replica=0, stall_period_ns=100.0, stall_duration_ns=100.0)
    with pytest.raises(ValueError):
        FaultSpec(shard=0, replica=0, stall_duration_ns=-1.0)
    # Half-specified stall windows would silently inject nothing.
    with pytest.raises(ValueError):
        FaultSpec(shard=0, replica=0, stall_period_ns=1000.0)
    with pytest.raises(ValueError):
        FaultSpec(shard=0, replica=0, stall_duration_ns=100.0)


def always_stalling(period_ns, duration_ns):
    """An always-on stall pattern: the open window [0, inf)."""
    return TimelineDevice(
        DEVICE_PROFILES["cssd"], events=[(0.0, math.inf, 1.0, period_ns, duration_ns)]
    )


def test_stalling_device_defers_submissions_inside_window():
    device = always_stalling(period_ns=1000.0, duration_ns=200.0)
    in_stall = device.submit(1050.0, 512)  # window [1000, 1200): waits
    device.reset()
    clear = device.submit(1200.0, 512)  # just past the window
    assert in_stall == clear
    device.reset()
    assert device.submit(500.0, 512) < in_stall  # mid-period is unaffected


def test_stall_deferral_terminates_when_rounding_lands_short_of_the_window_end():
    """``t - phase + duration`` can round to an ulp *inside* the stall;
    the re-check must not spin on a deferral that no longer advances."""
    device = always_stalling(period_ns=50_000.0, duration_ns=16963.00491138953)
    deferred = device._deferred(100612.6377563971)
    assert deferred == pytest.approx(116963.00491138953)


def test_always_on_stall_fault_builds_an_open_window():
    fault = FaultSpec(shard=0, replica=0, stall_period_ns=1000.0, stall_duration_ns=200.0)
    engines, _ = build_replica_engines(MemoryBlockStore(), 0, faults=(fault,))
    (member,) = engines[0].volume.devices
    assert isinstance(member, TimelineDevice)
    assert member.events == ((0.0, math.inf, 1.0, 1000.0, 200.0),)


# -- windowed faults (FaultSpec start/stop + TimelineDevice) ------------------


def test_windowed_fault_fields_and_active_at():
    steady = FaultSpec(shard=0, replica=0, latency_multiplier=2.0)
    assert not steady.windowed
    assert steady.active_at(0.0) and steady.active_at(1e12)
    windowed = FaultSpec(
        shard=0, replica=0, latency_multiplier=2.0, start_ns=100.0, stop_ns=200.0
    )
    assert windowed.windowed
    assert not windowed.active_at(99.0)
    assert windowed.active_at(100.0) and windowed.active_at(199.0)
    assert not windowed.active_at(200.0)
    open_ended = FaultSpec(
        shard=0, replica=0, latency_multiplier=2.0, start_ns=100.0
    )
    assert open_ended.windowed and open_ended.active_at(1e12)


def test_windowed_fault_validation():
    with pytest.raises(ValueError):
        FaultSpec(shard=0, replica=0, latency_multiplier=2.0, start_ns=-1.0)
    with pytest.raises(ValueError):
        FaultSpec(
            shard=0, replica=0, latency_multiplier=2.0, start_ns=100.0, stop_ns=100.0
        )


def test_timeline_device_scales_latency_inside_window_only():
    profile = DEVICE_PROFILES["cssd"]
    window = (1e6, 2e6, 4.0, 0.0, 0.0)
    device = TimelineDevice(profile, events=[window])
    before = device.submit(0.0, 512)
    assert before == pytest.approx(StorageDevice(profile).submit(0.0, 512))
    device.reset()
    inside = device.submit(1.5e6, 512)
    assert inside - 1.5e6 >= 4.0 * profile.latency_ns
    device.reset()
    after = device.submit(2.5e6, 512)
    assert after - 2.5e6 < 2.0 * profile.latency_ns


def test_timeline_device_defers_through_stall_windows():
    profile = DEVICE_PROFILES["cssd"]
    # Stalls of 200ns every 1000ns, only inside [10_000, 12_000).
    device = TimelineDevice(profile, events=[(10_000.0, 12_000.0, 1.0, 1000.0, 200.0)])
    # Phase anchors at window start: [10_000, 10_200) stalls.
    stalled = device.submit(10_050.0, 512)
    device.reset()
    clear = device.submit(10_200.0, 512)
    assert stalled == clear
    device.reset()
    # Outside the window the same phase does not stall.
    assert device.submit(9_050.0, 512) < stalled


def test_timeline_device_validation():
    profile = DEVICE_PROFILES["cssd"]
    with pytest.raises(ValueError, match="at least one"):
        TimelineDevice(profile, events=[])
    with pytest.raises(ValueError, match="start"):
        TimelineDevice(profile, events=[(200.0, 100.0, 2.0, 0.0, 0.0)])
    with pytest.raises(ValueError, match="multiplier"):
        TimelineDevice(profile, events=[(0.0, 100.0, 0.5, 0.0, 0.0)])
    with pytest.raises(ValueError, match="stall"):
        TimelineDevice(profile, events=[(0.0, 100.0, 1.0, 10.0, 10.0)])


def test_build_replica_engines_windowed_fault_uses_timeline_device():
    store = MemoryBlockStore()
    faults = (
        FaultSpec(
            shard=0,
            replica=1,
            latency_multiplier=3.0,
            start_ns=1e6,
            stop_ns=2e6,
        ),
    )
    engines, profiles = build_replica_engines(
        store, shard_id=0, replicas=2, faults=faults
    )
    # The windowed replica keeps its steady-state profile (the fault is
    # transient), but its devices follow the timeline.
    assert profiles[1].latency_ns == profiles[0].latency_ns
    devices = engines[1].volume.devices
    assert all(isinstance(device, TimelineDevice) for device in devices)
    assert all(
        not isinstance(device, TimelineDevice) for device in engines[0].volume.devices
    )


# -- engine building ---------------------------------------------------------


def test_two_stall_faults_on_one_replica_rejected():
    store = MemoryBlockStore()
    faults = (
        FaultSpec(shard=0, replica=0, stall_period_ns=1000.0, stall_duration_ns=100.0),
        FaultSpec(shard=0, replica=0, stall_period_ns=9000.0, stall_duration_ns=500.0),
    )
    with pytest.raises(ValueError, match="stall"):
        build_replica_engines(store, shard_id=0, replicas=1, faults=faults)


def test_replica_engines_share_store_not_volumes():
    store = MemoryBlockStore()
    engines, profiles = build_replica_engines(store, shard_id=0, replicas=3)
    assert len(engines) == len(profiles) == 3
    assert all(engine.store is store for engine in engines)
    assert len({id(engine.volume) for engine in engines}) == 3


def test_faulted_replica_gets_degraded_profile(replicated):
    group = replicated.replica_groups[1]
    healthy, degraded = group.profiles[0], group.profiles[2]
    assert degraded.latency_ns == pytest.approx(5.0 * healthy.latency_ns)
    # The fault targeted shard 1 replica 2 only.
    assert group.profiles[1].latency_ns == healthy.latency_ns
    assert all(
        profile.latency_ns == healthy.latency_ns
        for profile in replicated.replica_groups[0].profiles
    )


def test_build_rejects_out_of_range_fault():
    data = np.random.default_rng(0).standard_normal((100, 8)).astype(np.float32)
    with pytest.raises(ValueError):
        ShardedIndex.build(
            data,
            E2LSHParams(n=100),
            n_shards=2,
            replicas=2,
            faults=(FaultSpec(shard=2, replica=0),),
        )
    with pytest.raises(ValueError):
        ShardedIndex.build(
            data,
            E2LSHParams(n=100),
            n_shards=2,
            replicas=2,
            faults=(FaultSpec(shard=0, replica=2),),
        )


def test_sharded_index_reports_replication_factor(replicated):
    assert replicated.n_replicas == 3
    assert all(group.n_replicas == 3 for group in replicated.replica_groups)
    # Replica 0 is the shard's own engine (single-copy batch path).
    for shard, group in zip(replicated.shards, replicated.replica_groups):
        assert group.engines[0] is shard.engine


def test_replica_group_validation(replicated):
    shard = replicated.shards[0]
    with pytest.raises(ValueError):
        ReplicaGroup(shard=shard, engines=[], profiles=[])
    with pytest.raises(ValueError):
        ReplicaGroup(shard=shard, engines=[shard.engine], profiles=[])


# -- RoutingConfig -----------------------------------------------------------


def test_routing_config_validation():
    with pytest.raises(ValueError):
        RoutingConfig(policy="bogus")
    with pytest.raises(ValueError):
        RoutingConfig(policy="hedged", hedge_delay_ns=-1.0)
    with pytest.raises(ValueError):
        RoutingConfig(hedge_quantile=0.0)
    with pytest.raises(ValueError):
        RoutingConfig(hedge_multiplier=0.0)
    with pytest.raises(ValueError):
        RoutingConfig(hedge_min_observations=0)
    # An explicit hedge delay on a non-hedging policy would silently do
    # nothing; reject the contradiction instead.
    with pytest.raises(ValueError):
        RoutingConfig(policy="round_robin", hedge_delay_ns=100.0)
    assert RoutingConfig(policy="hedged").hedging
    assert not RoutingConfig(policy="round_robin").hedging


# -- ReplicaRouter -----------------------------------------------------------


def pick_and_commit(router, shard, outstanding, capacity=8):
    replica = router.route(shard, outstanding, capacity)
    if replica is not None:
        router.commit(shard, replica)
    return replica


def test_round_robin_cycles_per_shard():
    router = ReplicaRouter(RoutingConfig(policy="round_robin"), n_shards=2)
    picks = [pick_and_commit(router, 0, [0, 0, 0]) for _ in range(6)]
    assert picks == [0, 1, 2, 0, 1, 2]
    # Shard cursors are independent.
    assert pick_and_commit(router, 1, [0, 0, 0]) == 0


def test_round_robin_route_is_a_pure_probe():
    """Probing without committing (query shed on another shard) must
    not advance the cursor — otherwise shed/admit alternation pins the
    shard onto a single replica."""
    router = ReplicaRouter(RoutingConfig(policy="round_robin"), n_shards=1)
    assert router.route(0, [0, 0], capacity=8) == 0
    assert router.route(0, [0, 0], capacity=8) == 0  # no drift
    router.commit(0, 0)
    assert router.route(0, [0, 0], capacity=8) == 1


def test_round_robin_skips_full_lanes():
    router = ReplicaRouter(RoutingConfig(policy="round_robin"), n_shards=1)
    assert router.route(0, [8, 0, 8], capacity=8) == 1
    assert router.route(0, [8, 8, 8], capacity=8) is None


def test_least_outstanding_picks_min():
    router = ReplicaRouter(RoutingConfig(policy="least_outstanding"), n_shards=1)
    assert router.route(0, [3, 1, 2], capacity=8) == 1
    assert router.route(0, [8, 8, 8], capacity=8) is None


def test_least_outstanding_tie_breaks_to_lowest_index():
    """Satellite: deterministic tie-breaking (replays are exact)."""
    router = ReplicaRouter(RoutingConfig(policy="least_outstanding"), n_shards=1)
    for _ in range(5):
        assert router.route(0, [2, 2, 2], capacity=8) == 0
    assert router.route(0, [2, 1, 1], capacity=8) == 1


def test_secondary_excludes_primary():
    router = ReplicaRouter(RoutingConfig(policy="hedged"), n_shards=1)
    assert router.secondary(0, primary=0, outstanding=[0, 5, 1], capacity=8) == 2
    assert router.secondary(0, primary=2, outstanding=[4, 5, 0], capacity=8) == 0
    # Ties among secondaries break to the lowest index.
    assert router.secondary(0, primary=1, outstanding=[3, 0, 3], capacity=8) == 0
    assert router.secondary(0, primary=0, outstanding=[0, 8, 8], capacity=8) is None


def test_adaptive_hedge_delay_anchors_at_observed_quantile():
    config = RoutingConfig(policy="hedged", hedge_min_observations=4, hedge_multiplier=2.0)
    router = ReplicaRouter(config, n_shards=1)
    assert router.hedge_delay_ns() is None  # cold
    for latency in (100.0, 200.0, 300.0, 400.0):
        router.observe(latency)
    # Nearest-rank p50 of {100..400} is 200; multiplier doubles it.
    assert router.hedge_delay_ns() == pytest.approx(400.0)
    router.observe(50.0)  # cache invalidates; p50 of 5 values is 200
    assert router.hedge_delay_ns() == pytest.approx(400.0)


def test_explicit_hedge_delay_wins_over_observations():
    config = RoutingConfig(policy="hedged", hedge_delay_ns=123.0)
    router = ReplicaRouter(config, n_shards=1)
    assert router.hedge_delay_ns() == 123.0


def test_non_hedged_policies_never_hedge():
    router = ReplicaRouter(RoutingConfig(policy="least_outstanding"), n_shards=1)
    for latency in range(20):
        router.observe(float(latency))
    assert router.hedge_delay_ns() is None


def test_observation_reservoir_is_bounded():
    from repro.serving.replication import HEDGE_OBSERVATION_CAP

    router = ReplicaRouter(RoutingConfig(policy="hedged"), n_shards=1)
    for latency in range(HEDGE_OBSERVATION_CAP + 100):
        router.observe(float(latency))
    assert router.observations == HEDGE_OBSERVATION_CAP
    # The anchor still reads the (now frozen) quantile.
    assert router.hedge_delay_ns() is not None
