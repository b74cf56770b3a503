"""Service-level statistics: throughput, tail latency, queues, IOPS.

Latency here is *service* latency — simulated arrival to last-shard
completion, including admission queueing and micro-batching delay — not
the bare engine makespan of a batch run.  Percentiles use the
nearest-rank definition (deterministic, no interpolation), which is what
SLO accounting wants: "p99 = 2.1 ms" means 99% of completed queries
finished in at most 2.1 ms of simulated time.

With replicated shards the report carries two granularities: per-shard
aggregates (summed over the shard's replicas, backward compatible with
the single-copy fields) and per-replica IOPS / I/O counts /
active-window fractions, plus the hedge ledger — armed, cancelled
(primary answered before the timer fired), issued, wins, losses, and
losers cancelled while still queued.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from repro.storage.engine import EngineResult
from repro.utils.units import NS_PER_S, format_iops, format_time

__all__ = [
    "percentile",
    "QueryRecord",
    "UpdateRecord",
    "MergeRecord",
    "ServiceStats",
    "ServiceReport",
]


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: smallest value with ≥ p% at or below it."""
    if not 0 < p <= 100:
        raise ValueError(f"p must be in (0, 100], got {p}")
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no values to take a percentile of")
    rank = math.ceil(p / 100 * len(ordered))
    return float(ordered[rank - 1])


@dataclass(frozen=True)
class QueryRecord:
    """Lifecycle of one completed query."""

    query_id: int
    #: Which vector of the query pool was asked (Zipf reuse repeats these).
    pool_index: int
    arrival_ns: float
    finish_ns: float

    @property
    def latency_ns(self) -> float:
        """Arrival-to-completion service latency."""
        return self.finish_ns - self.arrival_ns


@dataclass(frozen=True)
class UpdateRecord:
    """Lifecycle of one completed ingest update (insert or delete).

    ``finish_ns`` is when the update was *applied* to the last target
    shard's delta state — queueing behind a full delta (compaction
    backpressure) is part of the latency, the background merge that
    later persists it is not.
    """

    update_id: int
    #: ``"insert"`` or ``"delete"``.
    kind: str
    arrival_ns: float
    finish_ns: float

    @property
    def latency_ns(self) -> float:
        """Arrival-to-applied ingest latency."""
        return self.finish_ns - self.arrival_ns


@dataclass(frozen=True)
class MergeRecord:
    """One completed background merge/compaction on one shard."""

    shard_id: int
    start_ns: float
    finish_ns: float
    #: Delta inserts rewritten into the static tables.
    inserts: int
    #: Tombstones compacted out of the static tables.
    tombstones: int
    #: Maintenance device requests the rewrite cost.
    write_ios: int
    #: Bytes written to the block store (SSD endurance, paper Sec. 7).
    write_bytes: int

    @property
    def duration_ns(self) -> float:
        """Merge-start to last-replica-completion span."""
        return self.finish_ns - self.start_ns


@dataclass
class ServiceStats:
    """Mutable collector filled in by the service loop."""

    records: list[QueryRecord] = field(default_factory=list)
    rejected: int = 0
    #: Admission-queue depth sampled at every enqueue (all lanes pooled).
    queue_depth_samples: list[int] = field(default_factory=list)
    #: Sub-queries per dispatched micro-batch.
    batch_sizes: list[int] = field(default_factory=list)
    #: Hedge timers armed at admission (hedged routing only).
    hedges_armed: int = 0
    #: Timers disarmed because the primary answered before the deadline.
    hedges_cancelled: int = 0
    #: Duplicates actually re-issued to a second replica.
    hedges_issued: int = 0
    #: Duplicates whose answer beat the primary's.
    hedge_wins: int = 0
    #: Duplicates beaten by the primary.
    hedge_losses: int = 0
    #: Losing copies cancelled while still queued (never cost device I/O).
    hedge_losers_cancelled: int = 0
    #: Timers that fired with no replica able to take the duplicate.
    hedges_suppressed: int = 0
    #: Completed ingest updates (second traffic class; never folded
    #: into the query latency distribution).
    update_records: list[UpdateRecord] = field(default_factory=list)
    #: Updates shed by ingest admission (full lane or exhausted id space).
    updates_rejected: int = 0
    #: Deletes that resolved to nothing (target shed or already gone).
    updates_noop: int = 0
    #: Completed background merges.
    merge_records: list[MergeRecord] = field(default_factory=list)
    #: Unmerged delta entries per shard at run end.
    merge_debt: tuple[int, ...] = ()

    def record_completion(
        self, query_id: int, pool_index: int, arrival_ns: float, finish_ns: float
    ) -> None:
        """Note one query finishing."""
        self.records.append(
            QueryRecord(
                query_id=query_id,
                pool_index=pool_index,
                arrival_ns=arrival_ns,
                finish_ns=finish_ns,
            )
        )

    def record_rejection(self) -> None:
        """Note one query shed by admission control."""
        self.rejected += 1

    def record_update(
        self, update_id: int, kind: str, arrival_ns: float, finish_ns: float
    ) -> None:
        """Note one ingest update applied to all its target shards."""
        self.update_records.append(
            UpdateRecord(
                update_id=update_id,
                kind=kind,
                arrival_ns=arrival_ns,
                finish_ns=finish_ns,
            )
        )

    def record_update_rejection(self) -> None:
        """Note one update shed by ingest admission control."""
        self.updates_rejected += 1

    def record_update_noop(self) -> None:
        """Note one delete that resolved to nothing."""
        self.updates_noop += 1

    def record_merge(self, record: MergeRecord) -> None:
        """Note one background merge completing on all replicas."""
        self.merge_records.append(record)

    def latencies_ns(self) -> np.ndarray:
        """Completed-query latencies in completion order."""
        return np.array([record.latency_ns for record in self.records], dtype=np.float64)

    def report(
        self, shard_results: Sequence[EngineResult | Sequence[EngineResult]]
    ) -> "ServiceReport":
        """Freeze the run into a :class:`ServiceReport`.

        ``shard_results`` holds, per shard, the per-replica
        :class:`EngineResult` list.
        """
        if any(isinstance(row, EngineResult) for row in shard_results):
            raise TypeError(
                "ServiceStats.report takes one list of per-replica "
                "EngineResults per shard, not a bare EngineResult"
            )
        nested: list[list[EngineResult]] = [list(row) for row in shard_results]
        if not self.records and self.rejected == 0:
            raise ValueError("no completed queries to report on")
        # A run whose every query admission shed has no latency
        # distribution to summarize, but it still happened: overload
        # experiments (tiny ``queue_capacity``, huge offered rate) want
        # the rejection count and queue figures back, not a crash.
        idle = tuple(tuple(0.0 for _ in row) for row in nested)
        report = ServiceReport(
            completed=len(self.records),
            rejected=self.rejected,
            duration_ns=0.0,
            throughput_qps=0.0,
            mean_latency_ns=0.0,
            p50_ns=0.0,
            p95_ns=0.0,
            p99_ns=0.0,
            max_latency_ns=0.0,
            mean_queue_depth=(
                float(np.mean(self.queue_depth_samples)) if self.queue_depth_samples else 0.0
            ),
            max_queue_depth=max(self.queue_depth_samples, default=0),
            mean_batch_size=(
                float(np.mean(self.batch_sizes)) if self.batch_sizes else 0.0
            ),
            shard_iops=tuple(0.0 for _ in nested),
            shard_io_counts=tuple(
                sum(result.io_count for result in row) for row in nested
            ),
            replica_iops=idle,
            replica_io_counts=tuple(
                tuple(result.io_count for result in row) for row in nested
            ),
            replica_active_fraction=idle,
            hedges_armed=self.hedges_armed,
            hedges_cancelled=self.hedges_cancelled,
            hedges_issued=self.hedges_issued,
            hedge_wins=self.hedge_wins,
            hedge_losses=self.hedge_losses,
            hedge_losers_cancelled=self.hedge_losers_cancelled,
            hedges_suppressed=self.hedges_suppressed,
            **self._ingest_fields(nested),
        )
        if not self.records:
            return report
        latencies = self.latencies_ns()
        first_arrival = min(record.arrival_ns for record in self.records)
        last_finish = max(record.finish_ns for record in self.records)
        duration = max(last_finish - first_arrival, 1.0)

        def active_fraction(result: EngineResult) -> float:
            stats = result.device_stats
            if stats.completed == 0:
                return 0.0
            active = stats.last_completion_ns - stats.first_submit_ns
            return min(1.0, max(0.0, active / duration))

        return replace(
            report,
            duration_ns=duration,
            throughput_qps=len(self.records) * NS_PER_S / duration,
            mean_latency_ns=float(latencies.mean()),
            p50_ns=percentile(latencies, 50),
            p95_ns=percentile(latencies, 95),
            p99_ns=percentile(latencies, 99),
            max_latency_ns=float(latencies.max()),
            shard_iops=tuple(
                sum(result.device_stats.observed_iops() for result in row)
                for row in nested
            ),
            replica_iops=tuple(
                tuple(result.device_stats.observed_iops() for result in row)
                for row in nested
            ),
            replica_active_fraction=tuple(
                tuple(active_fraction(result) for result in row) for row in nested
            ),
        )

    def _ingest_fields(self, nested: list[list[EngineResult]]) -> dict[str, object]:
        """The ingest traffic class's slice of the report.

        Update latency gets its own percentile distribution — folding
        update completions into the query percentiles would let a flood
        of cheap delta appends mask a query-tail regression.
        """
        update_latencies = [record.latency_ns for record in self.update_records]
        return {
            "updates_completed": len(self.update_records),
            "updates_rejected": self.updates_rejected,
            "updates_noop": self.updates_noop,
            "update_p50_ns": (
                percentile(update_latencies, 50) if update_latencies else 0.0
            ),
            "update_p95_ns": (
                percentile(update_latencies, 95) if update_latencies else 0.0
            ),
            "update_p99_ns": (
                percentile(update_latencies, 99) if update_latencies else 0.0
            ),
            "update_max_ns": max(update_latencies, default=0.0),
            "inserts_applied": sum(
                1 for record in self.update_records if record.kind == "insert"
            ),
            "deletes_applied": sum(
                1 for record in self.update_records if record.kind == "delete"
            ),
            "merges_completed": len(self.merge_records),
            "merge_write_ios": sum(record.write_ios for record in self.merge_records),
            "merge_write_bytes": sum(
                record.write_bytes for record in self.merge_records
            ),
            "shard_merge_debt": self.merge_debt,
            "shard_write_io_counts": tuple(
                sum(result.write_count for result in row) for row in nested
            ),
            "replica_write_io_counts": tuple(
                tuple(result.write_count for result in row) for row in nested
            ),
        }


@dataclass(frozen=True)
class ServiceReport:
    """Immutable summary of one load-test run."""

    completed: int
    rejected: int
    duration_ns: float
    throughput_qps: float
    mean_latency_ns: float
    p50_ns: float
    p95_ns: float
    p99_ns: float
    max_latency_ns: float
    mean_queue_depth: float
    max_queue_depth: int
    mean_batch_size: float
    #: Observed random-read IOPS per shard (summed over its replicas).
    shard_iops: tuple[float, ...]
    #: I/O requests issued per shard (summed over its replicas).
    shard_io_counts: tuple[int, ...]
    #: Observed IOPS per (shard, replica).
    replica_iops: tuple[tuple[float, ...], ...] = ()
    #: I/O requests issued per (shard, replica).
    replica_io_counts: tuple[tuple[int, ...], ...] = ()
    #: Active-window fraction of the run per (shard, replica): time from
    #: the replica's first submitted read to its last completion, over
    #: the run span.  A span metric, not device busy time — it shows
    #: *when* a replica saw traffic (a bypassed replica reads ~0), not
    #: how hard it worked (see ``replica_iops`` for that).
    replica_active_fraction: tuple[tuple[float, ...], ...] = ()
    hedges_armed: int = 0
    hedges_cancelled: int = 0
    hedges_issued: int = 0
    hedge_wins: int = 0
    hedge_losses: int = 0
    hedge_losers_cancelled: int = 0
    hedges_suppressed: int = 0
    #: Ingest updates applied to all their target shards.
    updates_completed: int = 0
    #: Updates shed by ingest admission control.
    updates_rejected: int = 0
    #: Deletes that resolved to nothing (their insert was shed, or the
    #: target was already deleted).
    updates_noop: int = 0
    #: Arrival-to-applied update latency percentiles — a separate
    #: distribution from the query percentiles above, never mixed.
    update_p50_ns: float = 0.0
    update_p95_ns: float = 0.0
    update_p99_ns: float = 0.0
    update_max_ns: float = 0.0
    inserts_applied: int = 0
    deletes_applied: int = 0
    #: Background merges that completed on every replica.
    merges_completed: int = 0
    #: Maintenance device requests all merges cost.
    merge_write_ios: int = 0
    #: Block-store bytes all merges wrote (SSD endurance).
    merge_write_bytes: int = 0
    #: Unmerged delta entries per shard at run end.
    shard_merge_debt: tuple[int, ...] = ()
    #: Maintenance write requests per shard (summed over its replicas);
    #: ``shard_io_counts`` stays reads-only, so the two columns give the
    #: query-vs-ingest device split directly.
    shard_write_io_counts: tuple[int, ...] = ()
    #: Maintenance write requests per (shard, replica).
    replica_write_io_counts: tuple[tuple[int, ...], ...] = ()

    @property
    def offered(self) -> int:
        """Queries that reached admission (completed + rejected)."""
        return self.completed + self.rejected

    @property
    def mean_ios_per_query(self) -> float:
        """Average I/Os a completed query cost across all shards."""
        return sum(self.shard_io_counts) / self.completed if self.completed else 0.0

    @property
    def n_replicas(self) -> int:
        """Replication factor reflected in the per-replica columns."""
        return max((len(row) for row in self.replica_io_counts), default=1)

    @property
    def hedge_fraction(self) -> float:
        """Duplicates issued per admitted sub-query (IOPS overhead proxy)."""
        subqueries = self.completed * max(1, len(self.shard_io_counts))
        return self.hedges_issued / subqueries if subqueries else 0.0

    def describe(self) -> str:
        """Multi-line human-readable summary (CLI output)."""
        lines = [
            f"completed {self.completed} queries in {format_time(self.duration_ns)} "
            f"({self.throughput_qps:,.0f} q/s), rejected {self.rejected}",
            f"latency: p50 {format_time(self.p50_ns)}, p95 {format_time(self.p95_ns)}, "
            f"p99 {format_time(self.p99_ns)}, max {format_time(self.max_latency_ns)}",
            f"queues: mean depth {self.mean_queue_depth:.1f}, max {self.max_queue_depth}, "
            f"mean batch {self.mean_batch_size:.1f}",
            "shards: "
            + ", ".join(
                f"#{i} {format_iops(iops)} ({count} IOs{self._active_suffix(i)})"
                for i, (iops, count) in enumerate(zip(self.shard_iops, self.shard_io_counts))
            ),
        ]
        if self.n_replicas > 1:
            for i, (iops_row, active_row) in enumerate(
                zip(self.replica_iops, self.replica_active_fraction)
            ):
                lines.append(
                    f"shard #{i} replicas: "
                    + ", ".join(
                        f"r{j} {format_iops(iops)} (active {active:.0%})"
                        for j, (iops, active) in enumerate(zip(iops_row, active_row))
                    )
                )
        if self.hedges_armed:
            lines.append(
                f"hedges: armed {self.hedges_armed}, cancelled {self.hedges_cancelled}, "
                f"issued {self.hedges_issued}, wins {self.hedge_wins}, "
                f"losses {self.hedge_losses}, suppressed {self.hedges_suppressed} "
                f"({self.hedge_losers_cancelled} losers cancelled in queue, "
                f"{self.hedge_fraction:.1%} duplicate rate)"
            )
        if self.updates_completed or self.updates_rejected or self.updates_noop:
            # The ingest traffic class reports its own latency
            # distribution — update completions are never folded into
            # the query percentiles above.
            lines.append(
                f"ingest: applied {self.updates_completed} updates "
                f"({self.inserts_applied} inserts, {self.deletes_applied} deletes), "
                f"rejected {self.updates_rejected}, no-ops {self.updates_noop}"
            )
            if self.updates_completed:
                lines.append(
                    f"ingest latency: p50 {format_time(self.update_p50_ns)}, "
                    f"p95 {format_time(self.update_p95_ns)}, "
                    f"p99 {format_time(self.update_p99_ns)}, "
                    f"max {format_time(self.update_max_ns)}"
                )
            lines.append(
                f"merges: {self.merges_completed} completed, "
                f"{self.merge_write_ios} write IOs, "
                f"{self.merge_write_bytes:,} bytes written, "
                f"debt {list(self.shard_merge_debt)}"
            )
        return "\n".join(lines)

    def _active_suffix(self, shard: int) -> str:
        """``, active NN%`` for the shard's busiest replica, if known."""
        if shard >= len(self.replica_active_fraction):
            return ""
        row = self.replica_active_fraction[shard]
        if not row:
            return ""
        return f", active {max(row):.0%}"
