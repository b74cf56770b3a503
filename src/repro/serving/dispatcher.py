"""Admission control, micro-batching, and replica routing.

The dispatcher keeps one *lane* per replica — N shards x R replicas.
An admitted query fans out into one sub-query per shard
(scatter-gather); a :class:`~repro.serving.replication.ReplicaRouter`
picks which replica's lane receives each sub-query.  Each lane buffers
its sub-queries and releases them to the replica's engine session as a
micro-batch when either

- ``max_batch`` sub-queries are waiting (size trigger), or
- the oldest waiting sub-query has been queued ``max_delay_ns`` (time
  trigger — bounds the latency cost of batching at low load).

Admission is bounded per lane by ``queue_capacity`` *outstanding*
sub-queries (queued plus in flight).  A query is admitted only if every
shard has a replica lane with a free slot; otherwise it is shed and
counted — the service degrades by rejecting load instead of growing
queues without bound.

Under the ``hedged`` routing policy a hedge timer is armed per
sub-query at admission.  If the primary replica has not answered when
the timer fires, the sub-query is re-issued to a second replica and the
first answer wins.  The loser is *cancelled* when it is still queued in
its lane (it never reaches the device); once in flight its completion
is simply discarded.  Both outcomes are counted
(:class:`~repro.serving.stats.ServiceStats`), because hedging spends
duplicate IOPS to buy tail latency and the exchange rate matters.

The dispatcher keeps no clock and no timer queue of its own.  It posts
lane flush deadlines, hedge deadlines, and session wake-ups to the
run's one event heap (:mod:`repro.serving.events`) and the service loop
calls back — :meth:`Dispatcher.flush_due`, :meth:`Dispatcher.fire_hedge`
— when a posted entry that is still live comes up.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.obs.trace import NULL_TRACER, Tracer
from repro.serving.events import EVENT_COMPLETION, EVENT_FLUSH, EVENT_HEDGE, Event
from repro.serving.replication import ReplicaRouter, RoutingConfig
from repro.serving.sharding import ShardedIndex
from repro.serving.stats import ServiceStats
from repro.storage.engine import Completion, EngineSession

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.ingest import IngestCoordinator, UpdateArrival

__all__ = ["DispatchConfig", "Dispatcher"]


@dataclass(frozen=True)
class DispatchConfig:
    """Micro-batching and admission-control knobs."""

    #: Size trigger: flush a lane once this many sub-queries wait.
    max_batch: int = 8
    #: Time trigger: flush no later than first-enqueue + this delay.
    max_delay_ns: float = 50_000.0
    #: Max outstanding sub-queries per replica lane (queued + in flight).
    queue_capacity: int = 512

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_delay_ns < 0:
            raise ValueError(f"max_delay_ns must be >= 0, got {self.max_delay_ns}")
        if self.queue_capacity < 1:
            raise ValueError(f"queue_capacity must be >= 1, got {self.queue_capacity}")


@dataclass
class _Lane:
    """Per-replica admission queue.

    ``pending`` holds ``(query_id, query, k, enqueue_ns)`` in enqueue
    order, so the time trigger is always the *oldest surviving* entry's
    enqueue time plus ``max_delay_ns`` — cancelling a hedge loser out of
    the middle (or the front) of the queue never distorts younger
    entries' batching windows.  Whenever the oldest entry changes while
    the lane stays non-empty (first enqueue, front entry cancelled) the
    dispatcher posts the new deadline as an ``EVENT_FLUSH``; deadlines
    posted for earlier fronts go stale and are skipped when popped.
    Query *tasks* are planned at flush time, not admission time: a lane
    always flushes as one planned wave
    (:meth:`~repro.core.e2lshos.E2LSHoSIndex.query_tasks`), and a task
    is pure planning until the engine steps it, so deferring creation
    has zero simulated effect.
    """

    pending: list[tuple[int, Any, int, float]] = field(default_factory=list)
    outstanding: int = 0


@dataclass
class _HedgeState:
    """One armed hedge timer (per admitted sub-query)."""

    primary: int
    query: np.ndarray
    k: int
    #: Replica the duplicate went to; ``None`` until the timer fires.
    secondary: int | None = None
    #: Timer disarmed because the primary answered before the deadline.
    cancelled: bool = False


class Dispatcher:
    """Routes admitted queries into per-replica micro-batched sessions."""

    def __init__(
        self,
        sharded: ShardedIndex,
        sessions: Sequence[EngineSession] | Sequence[Sequence[EngineSession]],
        config: DispatchConfig,
        stats: ServiceStats,
        events: list[Event],
        routing: RoutingConfig | None = None,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        self.sharded = sharded
        self.sessions = self._check_sessions(sharded, sessions)
        self.config = config
        self.stats = stats
        #: The run's event heap (owned by the service loop); see
        #: :mod:`repro.serving.events` for what is posted to it.
        self._events = events
        self.routing = routing or RoutingConfig()
        self.tracer = tracer
        self.router = ReplicaRouter(self.routing, n_shards=sharded.n_shards)
        self._lanes = [[_Lane() for _ in row] for row in self.sessions]
        #: (query_id, shard) -> admission time, for hedge-anchor latencies.
        self._admit_ns: dict[tuple[int, int], float] = {}
        #: (query_id, shard) -> armed hedge timer.
        self._hedges: dict[tuple[int, int], _HedgeState] = {}
        #: Arming order; breaks ties between timers due at one instant.
        self._hedge_seq = 0
        #: Sub-queries whose answer arrived but whose hedge copy is still
        #: in flight; the copy's completion is discarded on arrival.
        self._expect_loser: set[tuple[int, int]] = set()
        #: Ingest coordinator handling the update traffic class (set by
        #: the service when the run carries an update stream); update
        #: admission rides its own per-shard lanes, never the query lanes.
        self.ingest: "IngestCoordinator | None" = None

    @staticmethod
    def _check_sessions(
        sharded: ShardedIndex,
        sessions: Sequence[EngineSession] | Sequence[Sequence[EngineSession]],
    ) -> list[list[EngineSession]]:
        if len(sessions) != sharded.n_shards:
            raise ValueError(
                f"{sharded.n_shards} shards need {sharded.n_shards} session rows, "
                f"got {len(sessions)}"
            )
        nested: list[list[EngineSession]] = [
            [row] if isinstance(row, EngineSession) else list(row) for row in sessions
        ]
        for shard_id, (row, group) in enumerate(zip(nested, sharded.replica_groups)):
            if len(row) != group.n_replicas:
                raise ValueError(
                    f"shard {shard_id} has {group.n_replicas} replicas, "
                    f"got {len(row)} sessions"
                )
        return nested

    # -- admission ------------------------------------------------------------

    def admit(self, now_ns: float, query_id: int, query: np.ndarray, k: int) -> bool:
        """Fan ``query`` out to one replica lane per shard; False = shed."""
        targets: list[int] = []
        for shard_id in range(self.sharded.n_shards):
            lanes = self._lanes[shard_id]
            replica = self.router.route(
                shard_id, [lane.outstanding for lane in lanes], self.config.queue_capacity
            )
            if replica is None:
                self.stats.record_rejection()
                return False
            targets.append(replica)
        hedge_delay = self.router.hedge_delay_ns()
        for shard_id, replica in enumerate(targets):
            self.router.commit(shard_id, replica)
            self._enqueue(shard_id, replica, query_id, query, k, now_ns)
            self._admit_ns[(query_id, shard_id)] = now_ns
            # A single-lane shard has nowhere to hedge to; arming a timer
            # would only litter the ledger with suppressed fires.
            if hedge_delay is not None and len(self._lanes[shard_id]) > 1:
                self._arm_hedge(query_id, shard_id, replica, query, k, now_ns + hedge_delay)
        # Size trigger fires during admission, batching B sub-queries exactly.
        for shard_id, replica in enumerate(targets):
            if len(self._lanes[shard_id][replica].pending) >= self.config.max_batch:
                self._flush(shard_id, replica, now_ns)
        return True

    def admit_update(self, now_ns: float, update: "UpdateArrival") -> None:
        """Admit one ingest update (second traffic class).

        Updates never touch the query lanes: the ingest coordinator
        keeps its own bounded per-shard lanes and sheds into
        ``updates_rejected``, so an ingest storm backpressures ingest
        instead of starving query admission.
        """
        if self.ingest is None:
            raise RuntimeError(
                "update admitted on a dispatcher with no ingest coordinator"
            )
        self.ingest.admit(now_ns, update)

    def _enqueue(
        self,
        shard_id: int,
        replica: int,
        query_id: int,
        query: np.ndarray,
        k: int,
        now_ns: float,
        hedge: bool = False,
    ) -> None:
        lane = self._lanes[shard_id][replica]
        lane.pending.append((query_id, query, k, now_ns))
        lane.outstanding += 1
        if len(lane.pending) == 1:
            self._post_flush(shard_id, replica)
        self.stats.queue_depth_samples.append(len(lane.pending))
        self.tracer.attempt_enqueued(query_id, shard_id, replica, hedge, now_ns)

    # -- flushing -------------------------------------------------------------

    def flush_deadline_ns(self, shard_id: int, replica: int) -> float:
        """The lane's time trigger (``inf`` while it is empty)."""
        pending = self._lanes[shard_id][replica].pending
        return pending[0][3] + self.config.max_delay_ns if pending else math.inf

    def _post_flush(self, shard_id: int, replica: int) -> None:
        heapq.heappush(
            self._events,
            (self.flush_deadline_ns(shard_id, replica), EVENT_FLUSH, shard_id, replica),
        )

    def flush_due(self, now_ns: float) -> None:
        """Fire every lane whose time trigger has passed."""
        for shard_id, row in enumerate(self._lanes):
            for replica in range(len(row)):
                if self.flush_deadline_ns(shard_id, replica) <= now_ns:
                    self._flush(shard_id, replica, now_ns)

    def _flush(self, shard_id: int, replica: int, now_ns: float) -> None:
        pending = self._lanes[shard_id][replica].pending
        if not pending:
            return
        session = self.sessions[shard_id][replica]
        shard = self.sharded.shards[shard_id]
        self.stats.batch_sizes.append(len(pending))
        # One planned wave per run of equal k (k is constant within a
        # service run, so this is one wave in practice).
        start, n = 0, len(pending)
        while start < n:
            k = pending[start][2]
            end = start + 1
            while end < n and pending[end][2] == k:
                end += 1
            chunk = pending[start:end]
            tasks = shard.query_tasks(np.stack([entry[1] for entry in chunk]), k=k)
            session.submit_batch(tasks, ready_ns=now_ns, tags=[entry[0] for entry in chunk])
            start = end
        heapq.heappush(self._events, (now_ns, EVENT_COMPLETION, shard_id, replica))
        for query_id, _, _, _ in pending:
            self.tracer.attempt_flushed(query_id, shard_id, replica, now_ns)
        pending.clear()

    # -- introspection (timeline sampling) ------------------------------------

    def queue_depths(self) -> list[list[int]]:
        """Sub-queries waiting (unflushed) per (shard, replica) lane."""
        return [[len(lane.pending) for lane in row] for row in self._lanes]

    def outstanding_counts(self) -> list[list[int]]:
        """Outstanding sub-queries (queued + in flight) per lane."""
        return [[lane.outstanding for lane in row] for row in self._lanes]

    # -- hedging --------------------------------------------------------------

    def _arm_hedge(
        self,
        query_id: int,
        shard_id: int,
        primary: int,
        query: np.ndarray,
        k: int,
        deadline_ns: float,
    ) -> None:
        key = (query_id, shard_id)
        self._hedges[key] = _HedgeState(primary=primary, query=query, k=k)
        heapq.heappush(self._events, (deadline_ns, EVENT_HEDGE, self._hedge_seq, key))
        self._hedge_seq += 1
        self.stats.hedges_armed += 1
        self.tracer.hedge_armed(query_id, shard_id, deadline_ns)

    def hedge_pending(self, key: tuple[int, int]) -> bool:
        """True while ``key``'s timer is armed: not answered, disarmed or fired."""
        state = self._hedges.get(key)
        return state is not None and not state.cancelled and state.secondary is None

    def fire_hedge(self, now_ns: float, key: tuple[int, int]) -> None:
        """Re-issue the sub-query whose (still pending) hedge timer is due."""
        state = self._hedges[key]
        query_id, shard_id = key
        lanes = self._lanes[shard_id]
        secondary = self.router.secondary(
            shard_id,
            state.primary,
            [lane.outstanding for lane in lanes],
            self.config.queue_capacity,
        )
        if secondary is None:
            # No replica can take the duplicate; leave the primary be.
            state.cancelled = True
            self.stats.hedges_suppressed += 1
            self.tracer.hedge_suppressed(query_id, shard_id, now_ns)
            return
        state.secondary = secondary
        self.tracer.hedge_fired(query_id, shard_id, secondary, now_ns)
        self._enqueue(shard_id, secondary, query_id, state.query, state.k, now_ns, hedge=True)
        self.stats.hedges_issued += 1
        if len(lanes[secondary].pending) >= self.config.max_batch:
            self._flush(shard_id, secondary, now_ns)

    def _cancel_queued(self, shard_id: int, replica: int, query_id: int) -> bool:
        """Drop a still-queued copy of (query_id, shard) from its lane."""
        lane = self._lanes[shard_id][replica]
        for position, entry in enumerate(lane.pending):
            if entry[0] == query_id:
                del lane.pending[position]
                lane.outstanding -= 1
                if position == 0 and lane.pending:
                    self._post_flush(shard_id, replica)
                return True
        return False

    # -- completion bookkeeping ----------------------------------------------

    def subquery_done(
        self, shard_id: int, replica: int, completion: Completion
    ) -> Any | None:
        """Process one replica completion.

        Returns the sub-query's answer when this completion wins (first
        copy to finish), or ``None`` for a hedge loser whose answer
        already arrived from the other replica.
        """
        lane = self._lanes[shard_id][replica]
        if lane.outstanding <= 0:
            raise RuntimeError(
                f"shard {shard_id} replica {replica} has no outstanding sub-queries"
            )
        lane.outstanding -= 1
        key = (completion.tag, shard_id)
        if key in self._expect_loser:
            self._expect_loser.discard(key)
            self.tracer.attempt_finished(
                completion.tag, shard_id, replica, completion, winner=False
            )
            return None
        admit_ns = self._admit_ns.pop(key, None)
        if admit_ns is None:  # pragma: no cover - defensive
            raise RuntimeError(f"completion for unknown sub-query {key}")
        self.router.observe(completion.finish_ns - admit_ns)
        state = self._hedges.pop(key, None)
        if state is not None and not state.cancelled:
            if state.secondary is None:
                # Primary answered before the timer fired: disarm it.
                state.cancelled = True
                self.stats.hedges_cancelled += 1
                self.tracer.hedge_disarmed(completion.tag, shard_id, completion.finish_ns)
            else:
                loser = state.primary if replica == state.secondary else state.secondary
                if replica == state.secondary:
                    self.stats.hedge_wins += 1
                else:
                    self.stats.hedge_losses += 1
                if self._cancel_queued(shard_id, loser, completion.tag):
                    # The losing copy never reached the device.
                    self.stats.hedge_losers_cancelled += 1
                    self.tracer.attempt_cancelled(
                        completion.tag, shard_id, loser, completion.finish_ns
                    )
                else:
                    self._expect_loser.add(key)
        self.tracer.attempt_finished(
            completion.tag, shard_id, replica, completion, winner=True
        )
        return completion.result
