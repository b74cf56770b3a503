"""Streaming ingest: per-shard delta tables, tombstones, and background merges.

PLSH (Sundaram et al., PVLDB'13) serves queries *while inserting* by
giving each node a small in-memory delta table that is periodically
merged into the static hash tables; the paper's Sec. 7 argues this
cheap incremental maintenance is LSH's key operational edge over
graph/tree indexes.  This module mirrors that shape on the serving
stack as a **second traffic class** next to queries:

- **Admission.**  Updates (:class:`UpdateArrival`) enter through the
  dispatcher on their own per-shard ingest lanes (bounded FIFO queues,
  separate from the query lanes).  An accepted update is *applied* to
  the target shards' DRAM delta state as soon as the delta table has
  room; otherwise it waits in the lane until a merge frees space.
  Update latency is arrival-to-applied — backpressure from compaction
  shows up as queueing delay, exactly like a production ingest path.
- **Delta visibility.**  Applied inserts live in DRAM and are answered
  by an exact scan merged into every query's scatter-gather result
  (PLSH's delta-table probe); applied deletes are DRAM tombstones that
  filter static answers immediately.  The delta scan and tombstone
  filter are charged zero simulated time — like the scatter-gather
  merge, a few dozen DRAM distance computations are noise next to
  hashing and I/O.
- **Merges.**  When a shard's delta reaches ``merge_threshold`` the
  coordinator snapshots it, rewrites its contents into the shard's
  block-store tables via :class:`~repro.core.updates.IndexUpdater`
  (the store mutation is applied eagerly; the snapshot stays visible
  in DRAM until the merge *completes*, and the scatter-gather merge
  deduplicates by id, so double visibility is harmless), and submits
  one background timing task per replica that charges the hashing CPU
  and the maintenance write I/O to the same sessions and device
  volumes queries run on.  Compaction competes with queries for IOPS;
  a stalled replica (:class:`~repro.serving.replication.FaultSpec`)
  holds the merge window open and lets the delta — and then the ingest
  lanes — fill behind it: a compaction-stall storm.

Determinism: every structure here is either a list in apply order or a
dict used for membership/lookup only (iteration goes through
``sorted``), so one seed still yields a byte-identical
``ServiceReport``.  Updates are posted to the run's event heap under
the :data:`~repro.serving.events.EVENT_UPDATE` tie-order tag — they run
last at equal timestamps, which keeps the query path of a no-ingest
run byte-identical to pre-ingest behavior — and a starting merge posts
an ``EVENT_COMPLETION`` wake-up for every replica session it submits a
timing task to.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.updates import IndexUpdater
from repro.serving.events import EVENT_COMPLETION, Event
from repro.serving.stats import MergeRecord, ServiceStats
from repro.storage.engine import Compute, EngineSession, Task, WriteBatch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.e2lsh import QueryAnswer
    from repro.serving.sharding import ShardedIndex

__all__ = [
    "INGEST_KINDS",
    "IngestConfig",
    "UpdateArrival",
    "MergeTicket",
    "IngestCoordinator",
]

INGEST_KINDS = ("insert", "delete")


@dataclass(frozen=True)
class IngestConfig:
    """Knobs of the delta/merge lifecycle (per shard)."""

    #: Max unmerged delta entries (inserts + tombstones) a shard holds;
    #: further accepted updates queue in the ingest lane.
    delta_capacity: int = 512
    #: Delta size that triggers a background merge.
    merge_threshold: int = 128
    #: Bounded ingest admission queue per shard; a full lane sheds.
    queue_capacity: int = 256
    #: Maintenance I/Os per ``WriteBatch`` a merge task issues.
    merge_io_batch: int = 32

    def __post_init__(self) -> None:
        if self.delta_capacity < 1:
            raise ValueError(f"delta_capacity must be >= 1, got {self.delta_capacity}")
        if not 1 <= self.merge_threshold <= self.delta_capacity:
            raise ValueError(
                f"merge_threshold must be in [1, delta_capacity="
                f"{self.delta_capacity}], got {self.merge_threshold}"
            )
        if self.queue_capacity < 1:
            raise ValueError(f"queue_capacity must be >= 1, got {self.queue_capacity}")
        if self.merge_io_batch < 1:
            raise ValueError(f"merge_io_batch must be >= 1, got {self.merge_io_batch}")


@dataclass(frozen=True)
class UpdateArrival:
    """One offered update, pre-materialized by the scenario seed.

    ``object_id`` is a *scheduled* (logical) id: for inserts, the id
    the workload generator assigned assuming nothing is shed; for
    deletes, the scheduled id of the target.  The coordinator maps
    scheduled ids to physical ids at admission, so a delete whose
    insert was shed resolves to a counted no-op instead of silently
    deleting the wrong object.
    """

    update_id: int
    time_ns: float
    #: ``"insert"`` or ``"delete"``.
    kind: str
    #: Scheduled id (see above).
    object_id: int
    #: Insert payload; ``None`` for deletes.
    vector: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in INGEST_KINDS:
            raise ValueError(f"unknown update kind {self.kind!r}; known: {INGEST_KINDS}")
        if self.kind == "insert" and self.vector is None:
            raise ValueError("insert updates need a vector")
        if self.kind == "delete" and self.vector is not None:
            raise ValueError("delete updates take no vector")


@dataclass(frozen=True, slots=True)
class MergeTicket:
    """Engine-completion tag of one merge's per-replica timing task.

    The service loop routes completions carrying a ticket to
    :meth:`IngestCoordinator.merge_task_done` instead of the
    dispatcher's query bookkeeping (merge tasks bypass the lanes).
    """

    shard_id: int
    seq: int


@dataclass
class _ShardDelta:
    """DRAM delta state of one shard.

    ``inserts``/``tombstones`` hold physical global ids in apply order.
    While a merge is in flight, the first ``snap_inserts`` /
    ``snap_tombstones`` entries are the frozen snapshot being rewritten
    into the store (removed at merge completion); entries after the
    prefix arrived later and may still be mutated (a delete of an
    unsnapshotted insert annihilates in place, never reaching storage).
    """

    inserts: list[int] = field(default_factory=list)
    tombstones: list[int] = field(default_factory=list)
    snap_inserts: int = 0
    snap_tombstones: int = 0
    merging: bool = False

    @property
    def size(self) -> int:
        return len(self.inserts) + len(self.tombstones)


@dataclass
class _MergeJob:
    """One in-flight background merge (at most one per shard)."""

    shard_id: int
    seq: int
    start_ns: float
    insert_ids: list[int]
    tombstone_ids: list[int]
    replicas_pending: int
    write_ios: int
    write_bytes: int


class IngestCoordinator:
    """Owns the delta/tombstone state and the merge lifecycle.

    Constructed by the service per run when the workload carries an
    ingest mix; the dispatcher delegates update admission here, and the
    service loop feeds merge-task completions back in.
    """

    def __init__(
        self,
        sharded: "ShardedIndex",
        sessions: list[list[EngineSession]],
        config: IngestConfig,
        stats: ServiceStats,
        events: list[Event],
        max_inserts: int = 0,
    ) -> None:
        if max_inserts < 0:
            raise ValueError(f"max_inserts must be >= 0, got {max_inserts}")
        self.sharded = sharded
        self.sessions = sessions
        self.config = config
        self.stats = stats
        #: The run's event heap (owned by the service loop).
        self._events = events
        n_shards = sharded.n_shards
        self._table_scheme = sharded.plan.scheme == "table"
        if self._table_scheme:
            self._initial_n = int(sharded.shards[0].index.data.shape[0])
        else:
            self._initial_n = int(sharded.plan.n_units)
        self._updaters = [IndexUpdater(shard.index) for shard in sharded.shards]
        self._lanes: list[deque[UpdateArrival]] = [deque() for _ in range(n_shards)]
        self._deltas = [_ShardDelta() for _ in range(n_shards)]
        #: Original object membership per shard (object schemes only);
        #: initial global id -> local id via binary search.
        self._members: list[np.ndarray | None] = []
        #: Local-id count per shard, counting *admitted* inserts, for
        #: the id-codec capacity check at admission.
        self._local_counts: list[int] = []
        for shard_id, shard in enumerate(sharded.shards):
            if self._table_scheme:
                self._members.append(None)
                self._local_counts.append(self._initial_n)
            else:
                members = sharded.plan.members(shard_id)
                self._members.append(members)
                self._local_counts.append(int(members.size))
            # Pre-size the global-id map so tasks planned before a
            # merge hold an array the merge can fill *in place* — an
            # in-flight query that picks up a just-merged insert remaps
            # it through the same bound array.  A table-partitioned
            # shard starts from the identity: its local ids are global
            # only until an insert is annihilated in DRAM, after which
            # every later merged insert lands on a store-local id below
            # its global one.
            if max_inserts > 0:
                known = shard.global_ids
                if known is None:
                    known = np.arange(self._initial_n, dtype=np.int64)
                shard.global_ids = np.concatenate(
                    [known, np.full(max_inserts, -1, dtype=np.int64)]
                )
        #: Physical gid -> vector for everything inserted this run
        #: (kept for late-applying shards; DRAM at simulation scale).
        self._live_vectors: dict[int, np.ndarray] = {}
        #: Physical gid -> number of shard deltas it is visible in.
        self._live_refs: dict[int, int] = {}
        #: Physical gid -> number of shard tombstones not yet compacted.
        self._tomb_refs: dict[int, int] = {}
        #: Scheduled insert id -> physical gid (diverges once inserts shed).
        self._assigned: dict[int, int] = {}
        #: Physical gid -> local id per shard, for merged inserts.
        self._local_ids: list[dict[int, int]] = [{} for _ in range(n_shards)]
        #: Physical gid -> owner shard (object schemes, inserted objects).
        self._owner: dict[int, int] = {}
        #: Physical gids with an accepted delete (membership tests only).
        self._deleted: set[int] = set()
        #: update_id -> (update, physical delete target, shards left).
        self._pending: dict[int, tuple[UpdateArrival, int, int]] = {}
        self._jobs: dict[int, _MergeJob] = {}
        self._merge_seq = 0
        self._next_gid = self._initial_n

    # -- admission ------------------------------------------------------------

    def admit(self, now_ns: float, update: UpdateArrival) -> None:
        """Admit one update: apply, queue, shed, or count a no-op."""
        if update.kind == "insert":
            targets = self._insert_targets()
            if targets is None or any(
                len(self._lanes[shard_id]) >= self.config.queue_capacity
                for shard_id in targets
            ):
                self.stats.record_update_rejection()
                return
            gid = self._next_gid
            self._next_gid += 1
            self._assigned[update.object_id] = gid
            assert update.vector is not None  # __post_init__ guarantees
            self._live_vectors[gid] = np.ascontiguousarray(
                update.vector, dtype=np.float32
            )
            if not self._table_scheme:
                self._owner[gid] = gid % self.sharded.n_shards
            for shard_id in targets:
                self._local_counts[shard_id] += 1
            target_gid = gid
        else:
            resolved = self._resolve_delete(update.object_id)
            if resolved is None:
                self.stats.record_update_noop()
                return
            targets = self._delete_targets(resolved)
            if any(
                len(self._lanes[shard_id]) >= self.config.queue_capacity
                for shard_id in targets
            ):
                self.stats.record_update_rejection()
                return
            self._deleted.add(resolved)
            target_gid = resolved
        self._pending[update.update_id] = (update, target_gid, len(targets))
        for shard_id in targets:
            self._lanes[shard_id].append(update)
            self._drain(shard_id, now_ns)

    def _insert_targets(self) -> list[int] | None:
        """Shards a new insert fans out to; ``None`` when id space is full."""
        if self._table_scheme:
            targets = list(range(self.sharded.n_shards))
        else:
            targets = [self._next_gid % self.sharded.n_shards]
        for shard_id in targets:
            # The prospective largest local id must fit the shard's
            # object-info codec (IndexUpdater would raise otherwise).
            if self._local_counts[shard_id] >= self._updaters[shard_id].capacity:
                return None
        return targets

    def _resolve_delete(self, scheduled_id: int) -> int | None:
        """Scheduled target -> physical gid; ``None`` makes it a no-op."""
        if scheduled_id < self._initial_n:
            physical = scheduled_id
        else:
            mapped = self._assigned.get(scheduled_id)
            if mapped is None:  # the insert was shed
                return None
            physical = mapped
        if physical in self._deleted:
            return None
        return physical

    def _delete_targets(self, gid: int) -> list[int]:
        if self._table_scheme:
            return list(range(self.sharded.n_shards))
        if gid < self._initial_n:
            return [int(self.sharded.plan.assignment[gid])]
        return [self._owner[gid]]

    # -- delta application -----------------------------------------------------

    def _drain(self, shard_id: int, now_ns: float) -> None:
        """Apply queued updates while the delta has room; check merges."""
        lane = self._lanes[shard_id]
        delta = self._deltas[shard_id]
        while lane and delta.size < self.config.delta_capacity:
            self._apply(shard_id, lane.popleft(), now_ns)
        self._maybe_merge(shard_id, now_ns)

    def _apply(
        self, shard_id: int, update: UpdateArrival, now_ns: float, record: bool = True
    ) -> None:
        delta = self._deltas[shard_id]
        _, gid, remaining = self._pending[update.update_id]
        if update.kind == "insert":
            delta.inserts.append(gid)
            self._live_refs[gid] = self._live_refs.get(gid, 0) + 1
        else:
            # A delete of an id still sitting in the *unsnapshotted*
            # delta annihilates the pair in DRAM — neither side ever
            # touches storage.  A snapshotted or static target gets a
            # tombstone, compacted out at this shard's next merge.
            try:
                position = delta.inserts.index(gid, delta.snap_inserts)
            except ValueError:
                position = -1
            if position >= 0:
                del delta.inserts[position]
                self._unref_live(gid)
            else:
                delta.tombstones.append(gid)
                self._tomb_refs[gid] = self._tomb_refs.get(gid, 0) + 1
        if remaining > 1:
            self._pending[update.update_id] = (update, gid, remaining - 1)
        else:
            del self._pending[update.update_id]
            if record:
                self.stats.record_update(
                    update.update_id, update.kind, update.time_ns, now_ns
                )

    def _unref_live(self, gid: int) -> None:
        refs = self._live_refs[gid] - 1
        if refs:
            self._live_refs[gid] = refs
        else:
            del self._live_refs[gid]

    def _unref_tomb(self, gid: int) -> None:
        refs = self._tomb_refs[gid] - 1
        if refs:
            self._tomb_refs[gid] = refs
        else:
            del self._tomb_refs[gid]

    # -- merge lifecycle -------------------------------------------------------

    def _maybe_merge(self, shard_id: int, now_ns: float) -> None:
        delta = self._deltas[shard_id]
        if delta.merging or delta.size < self.config.merge_threshold:
            return
        self._start_merge(shard_id, now_ns)

    def _start_merge(self, shard_id: int, now_ns: float) -> None:
        delta = self._deltas[shard_id]
        delta.merging = True
        delta.snap_inserts = len(delta.inserts)
        delta.snap_tombstones = len(delta.tombstones)
        insert_ids = list(delta.inserts)
        tombstone_ids = list(delta.tombstones)
        write_ios, write_bytes = self._mutate_store(shard_id, insert_ids, tombstone_ids)
        index = self.sharded.shards[shard_id].index
        compute_ns = index.maintenance_compute_ns(len(insert_ids) + len(tombstone_ids))
        ticket = MergeTicket(shard_id=shard_id, seq=self._merge_seq)
        self._merge_seq += 1
        self._jobs[shard_id] = _MergeJob(
            shard_id=shard_id,
            seq=ticket.seq,
            start_ns=now_ns,
            insert_ids=insert_ids,
            tombstone_ids=tombstone_ids,
            replicas_pending=len(self.sessions[shard_id]),
            write_ios=write_ios,
            write_bytes=write_bytes,
        )
        requests = self._write_requests(shard_id, write_ios)
        for replica, session in enumerate(self.sessions[shard_id]):
            session.submit(
                self._merge_task(compute_ns, requests), ready_ns=now_ns, tag=ticket
            )
            heapq.heappush(self._events, (now_ns, EVENT_COMPLETION, shard_id, replica))

    def _mutate_store(
        self, shard_id: int, insert_ids: list[int], tombstone_ids: list[int]
    ) -> tuple[int, int]:
        """Rewrite delta contents into the shard's static tables.

        Returns the (device requests, bytes written) the rewrite cost —
        the real read-modify-write footprint out of
        :class:`~repro.core.updates.UpdateStats` and the block store's
        endurance counter, which the background timing tasks then charge
        to the devices.
        """
        shard = self.sharded.shards[shard_id]
        updater = self._updaters[shard_id]
        store = shard.index.built.store
        requests_before = updater.stats.io_requests
        bytes_before = store.bytes_written
        if insert_ids:
            vectors = np.stack([self._live_vectors[gid] for gid in insert_ids])
            local_ids = updater.insert_batch(vectors)
            assert shard.global_ids is not None  # presized in __init__
            shard.global_ids[local_ids] = insert_ids
            self._local_ids[shard_id].update(zip(insert_ids, local_ids.tolist()))
        if tombstone_ids:
            updater.delete([self._local_id(shard_id, gid) for gid in tombstone_ids])
        return (
            updater.stats.io_requests - requests_before,
            store.bytes_written - bytes_before,
        )

    def _local_id(self, shard_id: int, gid: int) -> int:
        if gid >= self._initial_n:
            return self._local_ids[shard_id][gid]
        members = self._members[shard_id]
        if members is None:  # table partitioning: every shard holds all
            return gid
        return int(np.searchsorted(members, gid))

    def _write_requests(self, shard_id: int, n_ios: int) -> list[tuple[int, int]]:
        """Synthetic maintenance-write addresses, round-robin over stripes."""
        volume = self.sharded.replica_groups[shard_id].engines[0].volume
        block = self.sharded.shards[shard_id].index.built.block_size
        n_devices = volume.device_count
        unit = volume.stripe_unit
        return [((i % n_devices) * unit, block) for i in range(n_ios)]

    def _merge_task(self, compute_ns: float, requests: list[tuple[int, int]]) -> Task:
        """Background timing task: hash CPU, then chunked write waves."""
        yield Compute(compute_ns)
        batch = self.config.merge_io_batch
        for start in range(0, len(requests), batch):
            yield WriteBatch(requests[start : start + batch])
        return None

    def merge_task_done(self, ticket: MergeTicket, finish_ns: float) -> None:
        """One replica finished its merge task; last one completes the merge."""
        job = self._jobs[ticket.shard_id]
        if job.seq != ticket.seq:  # pragma: no cover - defensive
            raise RuntimeError(
                f"stale merge ticket {ticket} (current seq {job.seq})"
            )
        job.replicas_pending -= 1
        if job.replicas_pending:
            return
        del self._jobs[ticket.shard_id]
        delta = self._deltas[ticket.shard_id]
        del delta.inserts[: len(job.insert_ids)]
        del delta.tombstones[: len(job.tombstone_ids)]
        delta.snap_inserts = 0
        delta.snap_tombstones = 0
        delta.merging = False
        for gid in job.insert_ids:
            self._unref_live(gid)
        for gid in job.tombstone_ids:
            self._unref_tomb(gid)
        self.stats.record_merge(
            MergeRecord(
                shard_id=ticket.shard_id,
                start_ns=job.start_ns,
                finish_ns=finish_ns,
                inserts=len(job.insert_ids),
                tombstones=len(job.tombstone_ids),
                write_ios=job.write_ios,
                write_bytes=job.write_bytes,
            )
        )
        self._drain(ticket.shard_id, finish_ns)

    # -- query-side visibility -------------------------------------------------

    def finish_answer(
        self, parts: list["QueryAnswer"], query: np.ndarray, k: int
    ) -> "QueryAnswer":
        """Scatter-gather merge with delta visibility and tombstones.

        Static shard answers are filtered through the live tombstones,
        the DRAM delta contributes an exact top-k scan, and the usual
        k-way merge deduplicates by id (a snapshot entry visible both
        in DRAM and, mid-merge, in the store resolves to one answer
        row with the identical true distance).
        """
        from repro.serving.sharding import merge_answers

        filtered = [self._filter_tombstones(part) for part in parts]
        extra = self._delta_answer(query, k)
        if extra is not None:
            filtered.append(extra)
        return merge_answers(filtered, k)

    def _filter_tombstones(self, answer: "QueryAnswer") -> "QueryAnswer":
        from repro.core.e2lsh import QueryAnswer

        if not self._tomb_refs or not answer.ids.size:
            return answer
        keep = np.array(
            [gid not in self._tomb_refs for gid in answer.ids.tolist()], dtype=bool
        )
        if keep.all():
            return answer
        return QueryAnswer(
            ids=answer.ids[keep], distances=answer.distances[keep], stats=answer.stats
        )

    def _delta_answer(self, query: np.ndarray, k: int) -> "QueryAnswer | None":
        from repro.core.e2lsh import QueryAnswer
        from repro.stats import QueryStats

        if not self._live_refs:
            return None
        visible = [gid for gid in sorted(self._live_refs) if gid not in self._tomb_refs]
        if not visible:
            return None
        matrix = np.stack([self._live_vectors[gid] for gid in visible])
        # Match the static path's distance arithmetic bit for bit, so
        # duplicate ids dedup on identical values at the merge.
        diffs = matrix.astype(np.float64) - query.astype(np.float64)
        dists = np.sqrt(np.einsum("nd,nd->n", diffs, diffs))
        order = np.argsort(dists, kind="stable")[:k]
        ids = np.asarray([visible[i] for i in order.tolist()], dtype=np.int64)
        return QueryAnswer(ids=ids, distances=dists[order], stats=QueryStats())

    # -- run-end accounting ----------------------------------------------------

    @property
    def queued_updates(self) -> int:
        """Updates admitted but not yet applied everywhere."""
        return sum(len(lane) for lane in self._lanes)

    def lane_depths(self) -> list[int]:
        """Queued (admitted, unapplied) updates per shard ingest lane."""
        return [len(lane) for lane in self._lanes]

    def merge_debt(self) -> tuple[int, ...]:
        """Unmerged delta entries per shard (what a restart would replay)."""
        return tuple(delta.size for delta in self._deltas)

    def finalize(self) -> None:
        """Freeze run-end state into the stats collector."""
        if self._jobs:  # pragma: no cover - defensive
            raise RuntimeError(f"{len(self._jobs)} merges never completed")
        if self.queued_updates or self._pending:  # pragma: no cover - defensive
            raise RuntimeError(
                f"{self.queued_updates} updates still queued at run end"
            )
        self.stats.merge_debt = self.merge_debt()

    # -- offline compaction ----------------------------------------------------

    def compact_now(self) -> None:
        """Force-merge every shard's remaining delta, outside simulated time.

        An offline checkpoint for end-state verification: after this,
        the static indexes answer exactly what the delta-augmented
        service answered, so a from-scratch rebuild over the surviving
        objects can be compared byte for byte.  Charges no simulated
        device time — never call it mid-run.
        """
        if self._jobs:
            raise RuntimeError("cannot compact while a merge is in flight")
        for shard_id in range(self.sharded.n_shards):
            lane = self._lanes[shard_id]
            delta = self._deltas[shard_id]
            while lane:
                # Lanes only hold entries while the delta is full;
                # lift the cap for the offline pass.
                self._apply(shard_id, lane.popleft(), 0.0, record=False)
            if not delta.size:
                continue
            insert_ids = list(delta.inserts)
            tombstone_ids = list(delta.tombstones)
            self._mutate_store(shard_id, insert_ids, tombstone_ids)
            delta.inserts.clear()
            delta.tombstones.clear()
            delta.snap_inserts = 0
            delta.snap_tombstones = 0
            for gid in insert_ids:
                self._unref_live(gid)
            for gid in tombstone_ids:
                self._unref_tomb(gid)
