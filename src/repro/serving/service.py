"""The query service: arrivals -> dispatcher -> replica engines, in one
simulated clock.

A run is a discrete-event simulation over **one event heap**
(:mod:`repro.serving.events`).  Query arrivals and ingest updates are
posted up front; the dispatcher posts lane flush deadlines and hedge
deadlines as it arms them; whoever hands work to a replica's engine
session posts that session's wake-up.  The loop pops the earliest
entry, skips it if the state it refers to has moved on (a *stale*
entry — see the events module for the rule per class), and otherwise
dispatches on its tag:

- ``EVENT_COMPLETION``: step that replica's session once (resume its
  earliest-ready task until it parks or finishes), re-post the
  session's next wake-up, and route a finished task's result;
- ``EVENT_FLUSH``: release every lane whose time trigger has passed;
- ``EVENT_HEDGE``: fire that one hedge timer;
- ``EVENT_ARRIVAL``: offer the query to admission;
- ``EVENT_UPDATE``: offer the update to the ingest lanes.

**Tie order is part of the contract** and is nothing but the tags'
numeric order: at equal timestamps, completions run before flushes,
flushes before hedges, hedges before arrivals, arrivals before updates.
Completions first means a sub-query finishing exactly at its hedge
deadline cancels the timer instead of issuing a useless duplicate, and
frees its admission slot before a same-instant arrival is considered;
hedges before arrivals means a duplicate joins the micro-batch an
arrival would trigger; updates last means the query path of a no-ingest
run is byte-identical to a loop that never heard of updates.  Same-time
wake-ups of different sessions resolve by ``(shard, replica)``.
Regression tests pin this order — do not renumber the tags.

Replica sessions advance independently (each replica owns its device
volume), but completions feed back into the loop: the last shard answer
of a query completes it, and — under a closed-loop workload — issues
that client's next query.  The scatter-gather merge itself is charged
zero time (a k-way merge of a few dozen candidates is noise next to
hashing and I/O).

Rejected queries (bounded admission) complete immediately from the
client's point of view: an open-loop client just goes away; a
closed-loop client retries after the micro-batch delay.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable

import numpy as np

from repro.core.e2lsh import QueryAnswer
from repro.obs.metrics import MetricsRegistry, Timeline
from repro.obs.selfprof import LoopProfile
from repro.obs.trace import NULL_TRACER, Tracer
from repro.serving.dispatcher import DispatchConfig, Dispatcher
from repro.serving.events import (
    EVENT_ARRIVAL,
    EVENT_COMPLETION,
    EVENT_FLUSH,
    EVENT_HEDGE,
    EVENT_UPDATE,
    Event,
)
from repro.serving.ingest import (
    IngestConfig,
    IngestCoordinator,
    MergeTicket,
    UpdateArrival,
)
from repro.serving.loadgen import (
    Arrival,
    ClosedLoopWorkload,
    OpenLoopWorkload,
    QuerySelector,
    open_loop_arrivals,
)
from repro.serving.replication import RoutingConfig
from repro.serving.sharding import ShardedIndex, merge_answers
from repro.serving.stats import ServiceReport, ServiceStats

__all__ = ["QueryService"]


class QueryService:
    """Serves top-k queries over a :class:`ShardedIndex` in simulated time."""

    def __init__(
        self,
        sharded: ShardedIndex,
        dispatch: DispatchConfig | None = None,
        routing: RoutingConfig | None = None,
        workers_per_shard: int = 1,
        tracer: Tracer | None = None,
        metrics_interval_ns: float | None = None,
        profile_interval_ns: float | None = None,
    ) -> None:
        self.sharded = sharded
        self.dispatch = dispatch or DispatchConfig()
        self.routing = routing or RoutingConfig()
        self.workers_per_shard = workers_per_shard
        #: Span tracer observing the run; the default no-ops every hook
        #: and keeps per-task engine profiling off (zero-cost-when-off).
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Simulated-time sampling period for the metrics timeline;
        #: ``None`` disables sampling.
        self.metrics_interval_ns = metrics_interval_ns
        #: Simulated-time sampling period for the *wall-clock* loop
        #: profile timeline; ``None`` disables it.  Wall figures are
        #: non-deterministic, so they live next to the metrics export,
        #: never in traces or reports.
        self.profile_interval_ns = profile_interval_ns
        #: Per-phase wall events/sec timeline of the last run (``None``
        #: unless ``profile_interval_ns`` was set).
        self.profile_timeline: Timeline | None = None
        #: Merged answers of the last run, keyed by query id.
        self.answers: dict[int, QueryAnswer] = {}
        #: Collector of the last run.
        self.stats = ServiceStats()
        #: Metrics registry of the last run (filled at run end).
        self.metrics = MetricsRegistry()
        #: Timeline of the last run (``None`` unless sampling enabled).
        self.timeline: Timeline | None = None
        #: Wall-clock self-profile of the last run's event loop.
        self.loop_profile = LoopProfile()
        #: Ingest coordinator of the last run (``None`` unless the run
        #: carried an update stream); exposes the delta/merge state for
        #: post-run verification (e.g. offline compaction).
        self.ingest: IngestCoordinator | None = None

    # -- public entry points --------------------------------------------------

    def run_open_loop(
        self, pool: np.ndarray, workload: OpenLoopWorkload, k: int = 10
    ) -> ServiceReport:
        """Offer a fixed arrival rate; report what the service sustained."""
        pool = self._check_pool(pool)
        arrivals = open_loop_arrivals(workload, pool.shape[0])
        return self._run(pool, arrivals, on_done=None, k=k)

    def run_closed_loop(
        self, pool: np.ndarray, workload: ClosedLoopWorkload, k: int = 10
    ) -> ServiceReport:
        """Run a fixed client fleet to completion (saturation throughput)."""
        pool = self._check_pool(pool)
        selector = QuerySelector(
            pool.shape[0], zipf_s=workload.zipf_s, seed=workload.seed + 1
        )
        issued = min(workload.concurrency, workload.n_queries)
        initial = [
            Arrival(query_id=i, time_ns=0.0, pool_index=selector.select(i))
            for i in range(issued)
        ]
        state = {"issued": issued}

        def on_done(now_ns: float) -> Arrival | None:
            if state["issued"] >= workload.n_queries:
                return None
            query_id = state["issued"]
            state["issued"] += 1
            return Arrival(
                query_id=query_id,
                time_ns=now_ns + workload.think_time_ns,
                pool_index=selector.select(query_id),
            )

        return self._run(pool, initial, on_done=on_done, k=k)

    def run_arrivals(
        self,
        pool: np.ndarray,
        arrivals: list[Arrival],
        k: int = 10,
        updates: list[UpdateArrival] | None = None,
        ingest: IngestConfig | None = None,
    ) -> ServiceReport:
        """Serve a pre-materialized arrival sequence (open loop).

        This is the entry point scenario runs use: the arrival stream —
        whatever its shape or query population — is generated up front
        from the scenario seed, so replaying a spec replays the exact
        event sequence.

        ``updates`` adds a second, concurrent traffic class: inserts and
        deletes admitted through per-shard ingest lanes, visible to
        queries via DRAM delta tables/tombstones, and persisted by
        background merges that compete with queries for device IOPS
        (see :mod:`repro.serving.ingest`).
        """
        pool = self._check_pool(pool)
        for arrival in arrivals:
            if not 0 <= arrival.pool_index < pool.shape[0]:
                raise ValueError(
                    f"arrival {arrival.query_id} targets pool index "
                    f"{arrival.pool_index}, pool has {pool.shape[0]} entries"
                )
        return self._run(
            pool, list(arrivals), on_done=None, k=k, updates=updates, ingest=ingest
        )

    # -- the event loop -------------------------------------------------------

    def _run(
        self,
        pool: np.ndarray,
        arrivals: list[Arrival],
        on_done: Callable[[float], Arrival | None] | None,
        k: int,
        updates: list[UpdateArrival] | None = None,
        ingest: IngestConfig | None = None,
    ) -> ServiceReport:
        self.stats = ServiceStats()
        self.answers = {}
        self.metrics = MetricsRegistry()
        self.timeline = (
            Timeline(self.metrics_interval_ns)
            if self.metrics_interval_ns is not None
            else None
        )
        self.loop_profile = profile = LoopProfile()
        tracer = self.tracer
        sessions = [
            group.sessions(
                workers=self.workers_per_shard, profile_tasks=tracer.enabled
            )
            for group in self.sharded.replica_groups
        ]
        events: list[Event] = [
            (a.time_ns, EVENT_ARRIVAL, a.query_id, a.pool_index) for a in arrivals
        ]
        dispatcher = Dispatcher(
            self.sharded,
            sessions,
            self.dispatch,
            self.stats,
            events,
            routing=self.routing,
            tracer=tracer,
        )
        coordinator: IngestCoordinator | None = None
        if updates:
            coordinator = IngestCoordinator(
                self.sharded,
                sessions,
                ingest if ingest is not None else IngestConfig(),
                self.stats,
                events,
                max_inserts=sum(1 for u in updates if u.kind == "insert"),
            )
            dispatcher.ingest = coordinator
            events.extend((u.time_ns, EVENT_UPDATE, u.update_id, u) for u in updates)
        heapq.heapify(events)
        self.ingest = coordinator
        n_shards = self.sharded.n_shards
        #: query_id -> (arrival_ns, pool_index, parts, latest finish so far)
        in_flight: dict[int, tuple[float, int, list[QueryAnswer], float]] = {}

        def sample(t_ns: float) -> dict:
            """Timeline row: run state as of the last event before t_ns."""
            return {
                "in_flight": len(in_flight),
                "completed": len(self.stats.records),
                "rejected": self.stats.rejected,
                "queue_depth": dispatcher.queue_depths(),
                "outstanding": dispatcher.outstanding_counts(),
                "replica_io_counts": [
                    [session.io_count for session in row] for row in sessions
                ],
                "hedges_issued": self.stats.hedges_issued,
                "hedge_wins": self.stats.hedge_wins,
                "hedges_cancelled": self.stats.hedges_cancelled,
            }

        def issue(arrival: Arrival | None) -> None:
            if arrival is not None:
                heapq.heappush(
                    events,
                    (arrival.time_ns, EVENT_ARRIVAL, arrival.query_id, arrival.pool_index),
                )

        timeline = self.timeline
        self.profile_timeline = profile_timeline = (
            Timeline(self.profile_interval_ns)
            if self.profile_interval_ns is not None
            else None
        )
        last_wall = {"events": 0.0, "seconds": 0.0}

        def profile_sample(t_ns: float) -> dict:
            """Per-interval wall events/sec (delta since the last tick)."""
            point = profile.checkpoint()
            events_seen = point["events_total"] - last_wall["events"]
            seconds = point["wall_seconds"] - last_wall["seconds"]
            last_wall["events"] = point["events_total"]
            last_wall["seconds"] = point["wall_seconds"]
            return {
                "events": events_seen,
                "wall_seconds": seconds,
                "events_per_sec": events_seen / seconds if seconds > 0 else 0.0,
            }

        def tick(now: float) -> None:
            """Bring the sampled timelines up to a live event's time."""
            if timeline is not None:
                timeline.advance(now, sample)
            if profile_timeline is not None:
                profile_timeline.advance(now, profile_sample)

        profile.start()
        while events:
            now, tag, a, b = heapq.heappop(events)
            # Each branch first drops a stale entry (see serving.events):
            # those are not events, so they neither tick nor count.
            if tag == EVENT_COMPLETION:
                session = sessions[a][b]
                if session.next_ready_ns != now:
                    continue
                tick(now)
                profile.engine_steps += 1
                completion = session.step()
                if session.has_work:
                    heapq.heappush(
                        events, (session.next_ready_ns, EVENT_COMPLETION, a, b)
                    )
                if completion is None:
                    continue
                if coordinator is not None and isinstance(completion.tag, MergeTicket):
                    # Background merge tasks bypass the dispatcher's
                    # lane accounting — they were never admitted.
                    coordinator.merge_task_done(completion.tag, completion.finish_ns)
                    continue
                part = dispatcher.subquery_done(a, b, completion)
                if part is None:
                    continue  # hedge loser; the answer already arrived
                query_id = completion.tag
                arrival_ns, pool_index, parts, latest = in_flight[query_id]
                parts.append(part)
                latest = max(latest, completion.finish_ns)
                if len(parts) < n_shards:
                    in_flight[query_id] = (arrival_ns, pool_index, parts, latest)
                    continue
                del in_flight[query_id]
                if coordinator is not None:
                    self.answers[query_id] = coordinator.finish_answer(
                        parts, pool[pool_index], k
                    )
                else:
                    self.answers[query_id] = merge_answers(parts, k)
                self.stats.record_completion(query_id, pool_index, arrival_ns, latest)
                tracer.query_completed(query_id, latest)
                if on_done is not None:
                    issue(on_done(latest))
            elif tag == EVENT_FLUSH:
                if dispatcher.flush_deadline_ns(a, b) > now:
                    continue
                tick(now)
                profile.flushes += 1
                dispatcher.flush_due(now)
            elif tag == EVENT_HEDGE:
                if not dispatcher.hedge_pending(b):
                    continue
                tick(now)
                profile.hedges += 1
                dispatcher.fire_hedge(now, b)
            elif tag == EVENT_ARRIVAL:
                tick(now)
                profile.arrivals += 1
                query_id, pool_index = a, b
                if dispatcher.admit(now, query_id, pool[pool_index], k=k):
                    in_flight[query_id] = (now, pool_index, [], 0.0)
                    tracer.query_admitted(query_id, now)
                else:
                    profile.rejections += 1
                    tracer.query_rejected(query_id, now)
                    if on_done is not None:
                        # Closed loop: the shed client retries after a backoff.
                        issue(
                            Arrival(
                                query_id=query_id,
                                time_ns=now + max(self.dispatch.max_delay_ns, 1.0),
                                pool_index=pool_index,
                            )
                        )
            else:
                tick(now)
                profile.updates += 1
                dispatcher.admit_update(now, b)
        profile.stop()

        if in_flight:  # pragma: no cover - defensive
            raise RuntimeError(f"{len(in_flight)} queries never completed")
        if coordinator is not None:
            coordinator.finalize()
        self._publish_metrics()
        return self.stats.report(
            [[session.result() for session in row] for row in sessions]
        )

    def _publish_metrics(self) -> None:
        """Mirror the finished run into the metrics registry."""
        metrics = self.metrics
        stats = self.stats
        metrics.counter("queries_completed").inc(len(stats.records))
        metrics.counter("queries_rejected").inc(stats.rejected)
        metrics.counter("hedges_issued").inc(stats.hedges_issued)
        metrics.counter("hedge_wins").inc(stats.hedge_wins)
        metrics.counter("hedges_cancelled").inc(stats.hedges_cancelled)
        latency = metrics.histogram("query_latency_ns")
        for record in stats.records:
            latency.observe(record.latency_ns)
        if stats.update_records or stats.updates_rejected or stats.updates_noop:
            metrics.counter("updates_completed").inc(len(stats.update_records))
            metrics.counter("updates_rejected").inc(stats.updates_rejected)
            metrics.counter("updates_noop").inc(stats.updates_noop)
            metrics.counter("merges_completed").inc(len(stats.merge_records))
            metrics.counter("merge_write_ios").inc(
                sum(record.write_ios for record in stats.merge_records)
            )
            # A separate histogram: update latency is its own traffic
            # class, never folded into query_latency_ns.
            update_latency = metrics.histogram("update_latency_ns")
            for update_record in stats.update_records:
                update_latency.observe(update_record.latency_ns)
        self.loop_profile.publish(metrics)

    def metrics_snapshot(self) -> dict:
        """Exportable metrics of the last run (registry, timeline, wall)."""
        return {
            "schema": "repro-metrics/1",
            "metrics": self.metrics.snapshot(),
            "timeline": self.timeline.as_dict() if self.timeline else None,
            "wall": self.loop_profile.as_dict(),
            "wall_timeline": (
                self.profile_timeline.as_dict() if self.profile_timeline else None
            ),
        }

    @staticmethod
    def _check_pool(pool: np.ndarray) -> np.ndarray:
        pool = np.asarray(pool, dtype=np.float32)
        if pool.ndim == 1:
            pool = pool[None, :]
        if pool.ndim != 2 or pool.shape[0] < 1 or pool.shape[1] < 1:
            raise ValueError(
                f"pool must be a non-empty (m, d) query matrix, got shape {pool.shape}"
            )
        return pool
