"""R-way shard replication: replica groups, routing, fault injection.

A shard holds a *copy* of its slice of the index; replication puts R
such copies on R independent device volumes so the dispatcher can trade
IOPS for tail latency.  Because the simulator separates bytes (the
block store) from timing (the device volume), replicas share one store
and one built index — only the timing components are duplicated, which
is exactly what distinguishes replicas from shards.

Three routing policies decide which replica serves a sub-query:

- ``round_robin``: cycle through the replicas of each shard, skipping
  lanes that are at capacity.  Oblivious — a slow replica keeps
  receiving its full share and drags the tail.
- ``least_outstanding``: pick the replica with the fewest outstanding
  sub-queries (ties break to the lowest replica index, so replays are
  deterministic).  A degraded replica backs up and is organically
  avoided.
- ``hedged``: route like ``round_robin``, but arm a *hedge timer* at
  admission; if the primary has not answered after a delay anchored at
  the observed sub-query p50, re-issue the sub-query to a second
  replica and take whichever copy answers first.  The loser is
  cancelled if it is still queued, and counted either way — hedging
  buys tail latency with duplicate IOPS, and the accounting makes the
  price visible.

Fault injection (:class:`FaultSpec`) degrades a chosen replica with a
latency multiplier and/or intermittent stalls.  Without a fault the
simulated replicas are symmetric and hedges almost never win the race;
a single slow replica is the scenario where hedged routing measurably
beats round-robin (see ``benchmarks/test_serving_replicas.py``).
"""

from __future__ import annotations

import math
from bisect import insort
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.storage.blockstore import BlockStore
from repro.storage.device import DeviceProfile, StorageDevice
from repro.storage.engine import AsyncIOEngine, EngineSession
from repro.storage.profiles import DEVICE_PROFILES, INTERFACE_PROFILES
from repro.storage.raid import StripedVolume

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (sharding imports us)
    from repro.serving.sharding import Shard

__all__ = [
    "ROUTING_POLICIES",
    "HEDGE_OBSERVATION_CAP",
    "FaultSpec",
    "RoutingConfig",
    "ReplicaGroup",
    "ReplicaRouter",
    "TimelineDevice",
    "build_replica_engines",
]

ROUTING_POLICIES = ("round_robin", "least_outstanding", "hedged")

#: Adaptive hedge anchoring stops recording once this many sub-query
#: latencies are held: memory stays bounded and sorted insertion stays
#: cheap, and after thousands of observations the quantile is stable.
#: (Load-shift tracking over longer horizons would want a decaying
#: estimator instead; not needed at simulation scales.)
HEDGE_OBSERVATION_CAP = 4096


# --------------------------------------------------------------------------
# Fault injection
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FaultSpec:
    """Degrade one replica of one shard.

    ``latency_multiplier`` stretches the device's service time and
    shrinks its saturated IOPS by the same factor (a uniformly slow
    copy — thermal throttling, a failing drive, a noisy neighbour).
    ``stall_period_ns``/``stall_duration_ns`` add intermittent stalls:
    for the first ``stall_duration_ns`` of every ``stall_period_ns``
    window the device accepts no new requests (garbage collection
    pauses); requests submitted during a stall wait for the window to
    end, in-flight requests complete normally.

    ``start_ns``/``stop_ns`` bound the fault in simulated time: the
    degradation (and any stall pattern) is active only while
    ``start_ns <= t < stop_ns``.  The defaults (0, ``None`` = forever)
    reproduce the always-on PR-5 behaviour exactly; a *windowed* fault
    is instead applied per-request by a :class:`TimelineDevice`, which
    stretches the service time of reads starting inside the window
    (the saturated-IOPS regulator is left untouched — a transient slow
    spell, not a permanently smaller drive).
    """

    shard: int
    replica: int
    latency_multiplier: float = 1.0
    stall_period_ns: float = 0.0
    stall_duration_ns: float = 0.0
    start_ns: float = 0.0
    stop_ns: float | None = None

    def __post_init__(self) -> None:
        if self.shard < 0:
            raise ValueError(f"shard must be >= 0, got {self.shard}")
        if self.replica < 0:
            raise ValueError(f"replica must be >= 0, got {self.replica}")
        if self.latency_multiplier < 1.0:
            raise ValueError(
                f"latency_multiplier must be >= 1, got {self.latency_multiplier}"
            )
        if self.stall_duration_ns < 0 or self.stall_period_ns < 0:
            raise ValueError("stall period/duration must be >= 0")
        if (self.stall_duration_ns > 0) != (self.stall_period_ns > 0):
            raise ValueError(
                "stall_period_ns and stall_duration_ns must be set together "
                f"(got period={self.stall_period_ns}, duration={self.stall_duration_ns})"
            )
        if self.stall_duration_ns > 0 and self.stall_period_ns <= self.stall_duration_ns:
            raise ValueError(
                f"stall_period_ns ({self.stall_period_ns}) must exceed "
                f"stall_duration_ns ({self.stall_duration_ns})"
            )
        if self.start_ns < 0:
            raise ValueError(f"start_ns must be >= 0, got {self.start_ns}")
        if self.stop_ns is not None and self.stop_ns <= self.start_ns:
            raise ValueError(
                f"stop_ns ({self.stop_ns}) must exceed start_ns ({self.start_ns})"
            )

    @property
    def windowed(self) -> bool:
        """True when the fault is bounded in time (scenario timelines)."""
        return self.start_ns > 0 or self.stop_ns is not None

    def active_at(self, t_ns: float) -> bool:
        """True while the fault's window covers simulated time ``t_ns``."""
        if t_ns < self.start_ns:
            return False
        return self.stop_ns is None or t_ns < self.stop_ns

    def applies_to(self, shard: int, replica: int) -> bool:
        """True when this fault targets the given replica."""
        return self.shard == shard and self.replica == replica

    def degrade(self, profile: DeviceProfile) -> DeviceProfile:
        """The member-device profile after the latency multiplier."""
        if self.latency_multiplier == 1.0:
            return profile
        return replace(
            profile,
            name=f"{profile.name}!x{self.latency_multiplier:g}",
            latency_ns=profile.latency_ns * self.latency_multiplier,
            max_iops=profile.max_iops / self.latency_multiplier,
        )


class TimelineDevice(StorageDevice):
    """A device degraded by *time-windowed* fault events.

    Each event is ``(start_ns, stop_ns, latency_multiplier,
    stall_period_ns, stall_duration_ns)`` with ``stop_ns = inf`` for an
    open-ended window.  While a window is active, reads starting inside
    it are served ``latency_multiplier`` times slower, and — if the
    event carries a stall pattern — submissions landing in the first
    ``stall_duration_ns`` of every ``stall_period_ns`` (phase-anchored
    at the window's start) are deferred to the end of the stall.
    Deferral is re-checked until no event moves the submission again, so
    back-to-back windows (a stall *storm*) compose; overlapping windows
    multiply their latency factors.
    """

    def __init__(
        self,
        profile: DeviceProfile,
        events: Sequence[tuple[float, float, float, float, float]],
    ) -> None:
        super().__init__(profile)
        if not events:
            raise ValueError("a TimelineDevice needs at least one fault event")
        for start, stop, multiplier, period, duration in events:
            if not 0 <= start < stop:
                raise ValueError(f"need 0 <= start < stop, got [{start}, {stop})")
            if multiplier < 1.0:
                raise ValueError(f"latency multiplier must be >= 1, got {multiplier}")
            if duration > 0 and period <= duration:
                raise ValueError("need stall duration < stall period")
        self.events = tuple(sorted(events))

    def _deferred(self, submit_ns: float) -> float:
        moved = True
        while moved:
            moved = False
            for start, stop, _, period, duration in self.events:
                if duration <= 0 or not start <= submit_ns < stop:
                    continue
                phase = (submit_ns - start) % period
                if phase < duration:
                    # Rounding can land the deferred time an ulp short of
                    # the stall's end; only an actual advance re-checks.
                    deferred = min(submit_ns - phase + duration, stop)
                    moved = moved or deferred > submit_ns
                    submit_ns = deferred
        return submit_ns

    def _latency_scale(self, start_ns: float) -> float:
        scale = 1.0
        for start, stop, multiplier, _, _ in self.events:
            if start <= start_ns < stop:
                scale *= multiplier
        return scale


def build_replica_engines(
    store: BlockStore,
    shard_id: int,
    replicas: int = 1,
    device: str = "cssd",
    devices_per_replica: int = 1,
    interface: str = "io_uring",
    faults: Sequence[FaultSpec] = (),
    stripe_unit: int = 512,
) -> tuple[list[AsyncIOEngine], list[DeviceProfile]]:
    """One engine (own device volume) per replica over a shared store.

    Returns the engines plus the member-device profile of each replica
    after any matching :class:`FaultSpec` has been applied.
    """
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    if device not in DEVICE_PROFILES:
        raise KeyError(f"unknown device {device!r}; known: {sorted(DEVICE_PROFILES)}")
    if interface not in INTERFACE_PROFILES:
        raise KeyError(
            f"unknown interface {interface!r}; known: {sorted(INTERFACE_PROFILES)}"
        )
    engines: list[AsyncIOEngine] = []
    profiles: list[DeviceProfile] = []
    for replica in range(replicas):
        profile = DEVICE_PROFILES[device]
        matching = [f for f in faults if f.applies_to(shard_id, replica)]
        steady = [f for f in matching if not f.windowed]
        windowed = [f for f in matching if f.windowed]
        # Always-on degradation is baked into the profile (service time up,
        # saturated IOPS down), exactly the PR-5 behaviour.
        for fault in steady:
            profile = fault.degrade(profile)
        steady_stalls = [f for f in steady if f.stall_duration_ns > 0]
        if len(steady_stalls) > 1:
            raise ValueError(
                f"shard {shard_id} replica {replica} has {len(steady_stalls)} "
                "always-on stall faults; compose them into one FaultSpec "
                "(overlapping stall windows are not modeled)"
            )
        if windowed or steady_stalls:
            # Windowed faults and always-on stall patterns are applied
            # per-request by a TimelineDevice.  An always-on stall is the
            # open window [0, inf) and contributes only its stall fields —
            # its latency multiplier is already baked into the profile above.
            events = [
                (
                    f.start_ns,
                    math.inf if f.stop_ns is None else f.stop_ns,
                    f.latency_multiplier,
                    f.stall_period_ns,
                    f.stall_duration_ns,
                )
                for f in windowed
            ] + [
                (0.0, math.inf, 1.0, f.stall_period_ns, f.stall_duration_ns)
                for f in steady_stalls
            ]
            members = [
                TimelineDevice(profile, events) for _ in range(devices_per_replica)
            ]
            volume = StripedVolume(members, stripe_unit=stripe_unit)
        else:
            volume = StripedVolume.of(profile, devices_per_replica, stripe_unit)
        engines.append(AsyncIOEngine(volume, INTERFACE_PROFILES[interface], store))
        profiles.append(profile)
    return engines, profiles


# --------------------------------------------------------------------------
# Replica groups
# --------------------------------------------------------------------------


@dataclass
class ReplicaGroup:
    """R copies of one shard: shared index and store, independent timing."""

    shard: "Shard"
    engines: list[AsyncIOEngine]
    #: Member-device profile of each replica (after fault degradation).
    profiles: list[DeviceProfile]

    def __post_init__(self) -> None:
        if not self.engines:
            raise ValueError("a replica group needs at least one engine")
        if len(self.profiles) != len(self.engines):
            raise ValueError(
                f"{len(self.engines)} engines need {len(self.engines)} profiles, "
                f"got {len(self.profiles)}"
            )

    @property
    def n_replicas(self) -> int:
        """Replication factor R of this shard."""
        return len(self.engines)

    def sessions(self, workers: int = 1, profile_tasks: bool = False) -> list[EngineSession]:
        """Open one incremental session per replica."""
        return [
            engine.session(workers=workers, profile_tasks=profile_tasks)
            for engine in self.engines
        ]


# --------------------------------------------------------------------------
# Routing
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RoutingConfig:
    """Replica-selection policy and hedging knobs."""

    policy: str = "round_robin"
    #: Explicit hedge delay; ``None`` adapts to the observed sub-query
    #: latency quantile below.
    hedge_delay_ns: float | None = None
    #: Quantile (percent) anchoring the adaptive hedge delay.
    hedge_quantile: float = 50.0
    #: Scale applied to the anchored quantile (1.0 = hedge at p50).
    hedge_multiplier: float = 1.0
    #: Completed sub-queries required before adaptive hedging arms.
    hedge_min_observations: int = 8

    def __post_init__(self) -> None:
        if self.policy not in ROUTING_POLICIES:
            raise ValueError(
                f"unknown routing policy {self.policy!r}; known: {ROUTING_POLICIES}"
            )
        if self.hedge_delay_ns is not None and self.hedge_delay_ns < 0:
            raise ValueError(f"hedge_delay_ns must be >= 0, got {self.hedge_delay_ns}")
        if self.hedge_delay_ns is not None and self.policy != "hedged":
            raise ValueError(
                f"hedge_delay_ns is set but policy is {self.policy!r}; "
                "only 'hedged' issues hedged requests"
            )
        if not 0 < self.hedge_quantile <= 100:
            raise ValueError(
                f"hedge_quantile must be in (0, 100], got {self.hedge_quantile}"
            )
        if self.hedge_multiplier <= 0:
            raise ValueError(
                f"hedge_multiplier must be positive, got {self.hedge_multiplier}"
            )
        if self.hedge_min_observations < 1:
            raise ValueError(
                f"hedge_min_observations must be >= 1, got {self.hedge_min_observations}"
            )

    @property
    def hedging(self) -> bool:
        """True when the policy issues hedged requests."""
        return self.policy == "hedged"


@dataclass
class ReplicaRouter:
    """Stateful replica selection for one dispatcher run.

    The router owns the round-robin cursors and the sub-query latency
    observations that anchor the adaptive hedge delay; the dispatcher
    owns the lanes and passes their outstanding counts in.
    """

    config: RoutingConfig
    n_shards: int
    _cursors: list[int] = field(init=False)
    #: Observed sub-query latencies, kept sorted (``insort``) so the
    #: quantile anchor is an O(1) index read per admission instead of a
    #: full sort — long runs would otherwise go quadratic.
    _observed_ns: list[float] = field(init=False, default_factory=list)

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {self.n_shards}")
        self._cursors = [0] * self.n_shards

    def route(self, shard: int, outstanding: Sequence[int], capacity: int) -> int | None:
        """Replica to serve the next sub-query; ``None`` when all full.

        Pure probe — round-robin cursors advance only on :meth:`commit`,
        so a query shed because *another* shard is full leaves every
        cursor untouched (otherwise alternating admit/shed patterns
        would pin a shard's traffic onto one replica).
        """
        n = len(outstanding)
        if self.config.policy == "least_outstanding":
            least = min(outstanding)
            # First replica at the minimum: ties go to the lowest index.
            return outstanding.index(least) if least < capacity else None
        # round_robin and hedged: cycle, skipping lanes at capacity.
        cursor = self._cursors[shard]
        for step in range(n):
            candidate = (cursor + step) % n
            if outstanding[candidate] < capacity:
                return candidate
        return None

    def commit(self, shard: int, replica: int) -> None:
        """Record that the probed ``replica`` actually received work."""
        self._cursors[shard] = replica + 1  # route() reduces modulo R

    def secondary(
        self, shard: int, primary: int, outstanding: Sequence[int], capacity: int
    ) -> int | None:
        """Hedge target: least-outstanding replica other than ``primary``."""
        candidates = [
            r
            for r in range(len(outstanding))
            if r != primary and outstanding[r] < capacity
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda r: (outstanding[r], r))

    def observe(self, latency_ns: float) -> None:
        """Record one completed sub-query's admission-to-answer latency.

        Only the adaptive hedge anchor reads these, so recording is a
        no-op under other policies (and under an explicit hedge delay).
        """
        if not self.config.hedging or self.config.hedge_delay_ns is not None:
            return
        if len(self._observed_ns) < HEDGE_OBSERVATION_CAP:
            insort(self._observed_ns, latency_ns)

    @property
    def observations(self) -> int:
        """Sub-query latencies recorded so far."""
        return len(self._observed_ns)

    def hedge_delay_ns(self) -> float | None:
        """Current hedge delay; ``None`` while hedging is not armed."""
        if not self.config.hedging:
            return None
        if self.config.hedge_delay_ns is not None:
            return self.config.hedge_delay_ns
        count = len(self._observed_ns)
        if count < self.config.hedge_min_observations:
            return None
        # Nearest-rank quantile straight off the sorted observations.
        rank = math.ceil(self.config.hedge_quantile / 100 * count)
        return self._observed_ns[rank - 1] * self.config.hedge_multiplier
