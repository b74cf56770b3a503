"""Storage requirement curves (paper Sec. 4.3-4.5, Figures 3-8).

The paper derives these curves by *running in-memory E2LSH* and counting
what an external-memory execution would have had to read: for every
non-empty bucket probed, one hash-table I/O plus ``ceil(examined /
entries_per_block)`` bucket-block I/Os.  The helpers here turn the
per-query :class:`~repro.stats.QueryStats` records into
average I/O counts for any block size, then into the IOPS /
request-rate requirements of Eqs. 9-16.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.analysis.cost_model import required_iops, required_request_rate
from repro.stats import QueryStats
from repro.layout.bucket import entries_per_block
from repro.utils.units import format_iops, format_time

__all__ = [
    "average_n_io",
    "INMEMORY_COMPUTE_FRACTION",
    "DEFAULT_UTILIZATION_CAP",
    "RequirementPoint",
    "RequirementCurve",
    "requirement_curve",
    "inmemory_cpu_requirement_scale",
    "CapacityPlan",
    "plan_capacity",
    "plan_capacity_for_scenario",
]

#: Sec. 4.5: in-memory E2LSH spends ~10% of its time on footprint stalls,
#: so T_compute = 0.9 * T_E2LSH and Eq. 16 scales the request-rate
#: requirement by 1 / (1 - 0.9) = 10.
INMEMORY_COMPUTE_FRACTION = 0.9


def average_n_io(stats: Iterable[QueryStats], block_size: int | None = 512) -> float:
    """Average I/Os per query for a given read block size.

    ``block_size=None`` reproduces the paper's ``N_io,inf`` (every bucket
    fits one block): one table read + one bucket read per non-empty
    bucket.  Finite block sizes add ``ceil(examined / capacity)`` block
    reads per bucket, following chains only as far as the candidate
    budget required (Sec. 4.3, Figure 3).
    """
    total = 0.0
    count = 0
    capacity = None if block_size is None else entries_per_block(block_size)
    for record in stats:
        count += 1
        total += record.nonempty_buckets  # one hash-table I/O per probe
        if capacity is None:
            total += record.nonempty_buckets
        else:
            for examined in record.bucket_sizes_examined:
                total += max(1, math.ceil(examined / capacity))
    if count == 0:
        raise ValueError("no query stats supplied")
    return total / count


def inmemory_cpu_requirement_scale() -> float:
    """Eq. 16's factor 10: 1 / (1 - T_compute / T_E2LSH)."""
    return 1.0 / (1.0 - INMEMORY_COMPUTE_FRACTION)


@dataclass(frozen=True)
class RequirementPoint:
    """Storage requirements at one accuracy level."""

    overall_ratio: float
    n_io: float
    target_ns: float
    compute_ns: float
    #: Eq. 11 / 13 / 15: random-read IOPS the device must deliver.
    read_iops: float
    #: Eq. 10 / 12 / 14: request rate (1/T_request) the CPU must sustain.
    request_rate: float


@dataclass(frozen=True)
class RequirementCurve:
    """One curve of Figures 4-8: requirements across accuracy levels."""

    label: str
    points: tuple[RequirementPoint, ...]

    def max_read_iops(self) -> float:
        """Worst-case (largest) IOPS requirement along the curve."""
        return max(point.read_iops for point in self.points)

    def max_request_rate(self) -> float:
        """Worst-case request-rate requirement along the curve."""
        return max(point.request_rate for point in self.points)


def requirement_curve(
    label: str,
    ratios: Sequence[float],
    n_ios: Sequence[float],
    target_ns: Sequence[float],
    compute_ns: Sequence[float],
) -> RequirementCurve:
    """Assemble a requirement curve from per-accuracy measurements.

    ``target_ns`` is the query time to match (T_SRS for Figures 4-6,
    T_E2LSH for Figures 7-8); ``compute_ns`` is E2LSHoS's own compute
    time at that accuracy.
    """
    lengths = {len(ratios), len(n_ios), len(target_ns), len(compute_ns)}
    if len(lengths) != 1:
        raise ValueError("all input sequences must have equal length")
    points = tuple(
        RequirementPoint(
            overall_ratio=float(ratio),
            n_io=float(n_io),
            target_ns=float(target),
            compute_ns=float(compute),
            read_iops=required_iops(n_io, target),
            request_rate=required_request_rate(n_io, target, compute),
        )
        for ratio, n_io, target, compute in zip(ratios, n_ios, target_ns, compute_ns)
    )
    return RequirementCurve(label=label, points=points)


# --------------------------------------------------------------------------
# Service capacity planning: "how many shards for X QPS at Y ms p99?"
# --------------------------------------------------------------------------

#: Default fraction of a device's saturated IOPS to plan against.  Past
#: this load the closed-queue device model (and real SSDs, Sec. 6.5 /
#: Figure 15) inflates latency sharply, so tail-latency SLOs need slack.
DEFAULT_UTILIZATION_CAP = 0.7


@dataclass(frozen=True)
class CapacityPlan:
    """Shard count needed to serve a QPS target under a p99 SLO.

    The IOPS balance is Eq. 11 applied fleet-wide: the service must
    absorb ``target_qps * n_io_per_query`` random reads per second, and
    each shard contributes ``devices_per_shard * device_max_iops *
    utilization_cap`` of planned capacity.  The latency side is a
    *feasibility check*, not a queueing model: ``latency_floor_ns`` is a
    measured light-load latency (e.g. the p99 of an unloaded shard), and
    no amount of sharding gets under it because every query visits every
    shard (scatter-gather).
    """

    target_qps: float
    target_p99_ns: float
    n_io_per_query: float
    device_max_iops: float
    devices_per_shard: int
    utilization_cap: float
    latency_floor_ns: float
    #: Replication factor R: copies of each shard on independent devices.
    replicas: int = 1
    #: Fraction of sub-queries re-issued by hedged routing (duplicate
    #: reads inflate the demand side of the IOPS balance).
    hedge_fraction: float = 0.0

    @property
    def required_fleet_iops(self) -> float:
        """Random-read IOPS the whole fleet must absorb."""
        return self.target_qps * self.n_io_per_query * (1.0 + self.hedge_fraction)

    @property
    def per_shard_planned_iops(self) -> float:
        """IOPS one shard's replica group contributes at the planned
        utilization (replicas hold copies, so their IOPS add)."""
        return (
            self.device_max_iops
            * self.devices_per_shard
            * self.replicas
            * self.utilization_cap
        )

    @property
    def required_shards(self) -> int:
        """Minimum shard count satisfying the IOPS balance."""
        return max(1, math.ceil(self.required_fleet_iops / self.per_shard_planned_iops))

    @property
    def total_devices(self) -> int:
        """Devices across the fleet (all shards, all replicas)."""
        return self.required_shards * self.devices_per_shard * self.replicas

    @property
    def expected_utilization(self) -> float:
        """Device utilization at the target rate with the planned fleet."""
        capacity = self.total_devices * self.device_max_iops
        return self.required_fleet_iops / capacity

    @property
    def feasible(self) -> bool:
        """True if the SLO clears the measured light-load latency floor."""
        return self.latency_floor_ns <= self.target_p99_ns

    def describe(self) -> str:
        """One-paragraph human-readable plan (CLI output)."""
        hedge = (
            f" (+{self.hedge_fraction:.0%} hedge duplicates)"
            if self.hedge_fraction > 0
            else ""
        )
        head = (
            f"{self.target_qps:,.0f} q/s x {self.n_io_per_query:.1f} IO/query{hedge} = "
            f"{format_iops(self.required_fleet_iops)} fleet-wide; "
            f"{self.required_shards} shard(s) x {self.replicas} replica(s) x "
            f"{self.devices_per_shard} device(s) "
            f"at <= {self.utilization_cap:.0%} utilization "
            f"(expected {self.expected_utilization:.0%})"
        )
        if self.feasible:
            tail = (
                f"; p99 target {format_time(self.target_p99_ns)} clears the "
                f"light-load floor {format_time(self.latency_floor_ns)}"
            )
        else:
            tail = (
                f"; INFEASIBLE: p99 target {format_time(self.target_p99_ns)} is below "
                f"the light-load floor {format_time(self.latency_floor_ns)} — "
                "sharding cannot help (every query visits every shard)"
            )
        return head + tail


def plan_capacity(
    n_io_per_query: float,
    target_qps: float,
    target_p99_ns: float,
    device_max_iops: float,
    devices_per_shard: int = 1,
    utilization_cap: float = DEFAULT_UTILIZATION_CAP,
    latency_floor_ns: float = 0.0,
    replicas: int = 1,
    hedge_fraction: float = 0.0,
) -> CapacityPlan:
    """Size a sharded service for ``target_qps`` at a p99 SLO.

    ``n_io_per_query`` comes from measurement (``average_n_io`` or a
    load test's observed I/O count per completed query);
    ``latency_floor_ns`` from a light-load run of one shard.

    ``replicas`` multiplies each shard's planned IOPS (copies answer
    from independent devices) and the fleet's device bill;
    ``hedge_fraction`` is the duplicate-sub-query rate of hedged
    routing (a load test's ``ServiceReport.hedge_fraction``), which
    inflates the demand side — hedging trades exactly this IOPS
    overhead for tail latency.
    """
    if n_io_per_query < 0:
        raise ValueError(f"n_io_per_query must be >= 0, got {n_io_per_query}")
    if target_qps <= 0:
        raise ValueError(f"target_qps must be positive, got {target_qps}")
    if target_p99_ns <= 0:
        raise ValueError(f"target_p99_ns must be positive, got {target_p99_ns}")
    if device_max_iops <= 0:
        raise ValueError(f"device_max_iops must be positive, got {device_max_iops}")
    if devices_per_shard < 1:
        raise ValueError(f"devices_per_shard must be >= 1, got {devices_per_shard}")
    if not 0 < utilization_cap <= 1:
        raise ValueError(f"utilization_cap must be in (0, 1], got {utilization_cap}")
    if latency_floor_ns < 0:
        raise ValueError(f"latency_floor_ns must be >= 0, got {latency_floor_ns}")
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    if hedge_fraction < 0:
        raise ValueError(f"hedge_fraction must be >= 0, got {hedge_fraction}")
    return CapacityPlan(
        target_qps=target_qps,
        target_p99_ns=target_p99_ns,
        n_io_per_query=n_io_per_query,
        device_max_iops=device_max_iops,
        devices_per_shard=devices_per_shard,
        utilization_cap=utilization_cap,
        latency_floor_ns=latency_floor_ns,
        replicas=replicas,
        hedge_fraction=hedge_fraction,
    )


def plan_capacity_for_scenario(
    spec,
    report,
    *,
    latency_floor_ns: float = 0.0,
    utilization_cap: float = DEFAULT_UTILIZATION_CAP,
) -> CapacityPlan:
    """:func:`plan_capacity` fed directly from a scenario run.

    ``spec`` is a :class:`~repro.serving.scenario.ScenarioSpec` and
    ``report`` the :class:`~repro.serving.stats.ServiceReport` of its
    run — the same objects the ``scenarios``/``loadtest`` CLI holds, so
    planning needs no parallel kwarg plumbing.  The rate to plan for is
    the workload's *peak* offered rate (open loop — a diurnal crest or
    flash burst must be absorbed, not the mean) or the throughput the
    fleet proved it can sustain (closed loop).  The measured IO/query is
    deflated by the observed hedge fraction so the plan's hedge term
    re-adds duplicates without double counting.
    """
    from repro.storage.profiles import DEVICE_PROFILES

    workload = spec.workload
    target_qps = (
        workload.peak_qps if workload.mode == "open" else report.throughput_qps
    )
    return plan_capacity(
        n_io_per_query=report.mean_ios_per_query / (1.0 + report.hedge_fraction),
        target_qps=target_qps,
        target_p99_ns=spec.target_p99_ms * 1e6,
        device_max_iops=DEVICE_PROFILES[spec.serving.device].max_iops,
        devices_per_shard=spec.serving.devices_per_shard,
        utilization_cap=utilization_cap,
        latency_floor_ns=latency_floor_ns,
        replicas=spec.serving.replicas,
        hedge_fraction=report.hedge_fraction,
    )
