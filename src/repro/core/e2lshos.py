"""E2LSH-on-Storage (paper Sec. 5).

The hash index (tables + buckets) lives on storage; the database vectors
stay in DRAM.  Each query is a cooperative task following Figure 10:

1. compute the query's compound hash values (Compute),
2. read the hash-table slots of all occupancy-filtered tables of the
   current rung in one asynchronous batch (Step 1),
3. read the first block of every non-empty bucket in one batch (Step 2),
   then follow chain pointers in further batches while the S-candidate
   budget lasts,
4. fingerprint-filter the entries, fetch candidates from DRAM, compute
   true distances, and update the (R, c)-NN state (Step 3).

Many query tasks are interleaved by the
:class:`~repro.storage.engine.AsyncIOEngine`, which is how the paper
builds deep I/O queues (Sec. 5.4).  The same tasks executed against a
:class:`~repro.storage.page_cache.PageCache` reproduce the synchronous
memory-mapped baseline of Sec. 6.5.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Any, Generator, Sequence

import numpy as np

from repro.analysis.machine_model import DEFAULT_MACHINE, MachineModel
from repro.core.e2lsh import QueryAnswer
from repro.core.lsh import CompoundHashBank
from repro.core.params import E2LSHParams
from repro.stats import OpCounts, QueryStats
from repro.core.radii import RadiusLadder
# ``decode_block`` stays imported: the layered benchmark patches it by name here.
from repro.layout.bucket import NULL_ADDRESS, decode_block, decode_blocks  # noqa: F401
from repro.layout.builder import BuiltIndex, IndexBuilder, TableHandle
from repro.layout.hash_table import SLOT_SIZE
from repro.storage.blockstore import BlockStore, MemoryBlockStore
from repro.storage.engine import AsyncIOEngine, EngineResult, Task
from repro.storage.engine import Compute, Read, ReadBatch, Segment
from repro.storage.page_cache import PageCache
from repro.utils.validation import require_finite_rows

__all__ = ["E2LSHoSIndex", "BatchResult"]

#: The live body: unlike a :data:`Task` in general, it yields nothing else.
_LiveTask = Generator[Compute | ReadBatch, Any, QueryAnswer]
#: Upper bound on memoized queries; cleared wholesale when exceeded
#: (service query pools are far smaller, so this never churns).
_PLAN_CACHE_CAP = 4096
#: Fresh rows from which a wave's data plane is traced at plan time
#: (:meth:`E2LSHoSIndex._trace_rows`) instead of run row by row.  Measured
#: host cost per query, plan + engine, live -> traced by wave size (n=20,000,
#: L=24, min of 9 alternating runs): B=1 870 -> 1,566 us, 4: 505 -> 653,
#: 8: 447 -> 465, 16: 356 -> 333, 64: 310 -> 242, >=256: ~305 -> ~233.  The
#: serving stack plans at ``max_batch`` 8, mostly recurring rows: tracing
#: every wave cost ``serve-ingest`` 21 % (746 -> 589 ops/s), so the line is above.
_TRACE_MIN_WAVE = 16
#: Seen-bitmap cells (rows x objects) of one traced batch: bounds a trace's scratch memory.
_TRACE_BITMAP_CELLS = 1 << 22


@dataclass
class BatchResult:
    """Answers plus engine statistics for one batch of queries."""

    answers: list[QueryAnswer]
    engine: EngineResult

    @property
    def mean_query_time_ns(self) -> float:
        """Average per-query time (makespan over interleaved queries)."""
        return self.engine.mean_task_time_ns

    @property
    def queries_per_second(self) -> float:
        """Query throughput."""
        return self.engine.tasks_per_second


class _RungLookup:
    """Flattened occupancy filter and slot addresses for one rung.

    Concatenates every table's sorted ``present_values`` under a
    ``(table << 32) | value`` key — globally sorted because the keys are
    table-major and sorted within each table — so a single
    ``np.searchsorted`` answers all ``B x L`` membership probes of a
    query wave, replacing ``B x L`` Python-level
    :meth:`~repro.layout.builder.TableHandle.contains` calls.  Slot byte
    addresses come from the cached per-table bases, matching
    :meth:`~repro.layout.hash_table.OnStorageHashTable.slot_address`.
    """

    __slots__ = ("keys", "base_addresses", "tables", "_shifts")

    def __init__(self, handles: Sequence[TableHandle]) -> None:
        n_tables = len(handles)
        self._shifts = np.arange(n_tables, dtype=np.uint64) << np.uint64(32)
        self.keys = np.concatenate(
            [
                self._shifts[li] | handles[li].present_values.astype(np.uint64)
                for li in range(n_tables)
            ]
        )
        self.base_addresses = np.array(
            [handle.table.base_address for handle in handles], dtype=np.int64
        )
        self.tables = [handle.table for handle in handles]

    def contains(self, hash_values: np.ndarray) -> np.ndarray:
        """Occupancy mask for ``(B, L)`` hash values against this rung."""
        keys = self.keys
        if keys.size == 0:
            return np.zeros(hash_values.shape, dtype=bool)
        probes = (self._shifts[None, :] | hash_values.astype(np.uint64)).ravel()
        # Sorted probes walk the keys front to back (98k probes: 20 -> 5.7 ms); few gain nothing.
        order: np.ndarray | slice = np.argsort(probes) if probes.size > 256 else slice(None)
        probes = probes[order]
        pos = np.searchsorted(keys, probes)
        clamped = np.minimum(pos, keys.size - 1)
        hit = np.empty(probes.size, dtype=bool)
        hit[order] = (keys[clamped] == probes) & (pos < keys.size)
        return hit.reshape(hash_values.shape)


class _WavePlan:
    """Shared, lazily materialized hash state for one query wave.

    Holds the ``(B, d)`` query matrix and computes projections plus
    per-rung hash values, occupancy masks, and slot addresses once for
    the whole wave on first touch; each member task reads its own row
    ``i``.  Simulated Compute/Read charges stay per-task inside
    :meth:`E2LSHoSIndex._run_query` — the plan only amortizes the *wall*
    cost of the numpy calls across the wave, so a wave of B queries is
    indistinguishable (answers, I/O counts, simulated timing) from B
    scalar queries.
    """

    __slots__ = ("index", "queries", "_projections", "_rungs")

    def __init__(self, index: "E2LSHoSIndex", queries: np.ndarray) -> None:
        self.index = index
        self.queries = queries
        self._projections: np.ndarray | None = None
        self._rungs: dict[int, tuple] = {}

    @property
    def projections(self) -> np.ndarray:
        if self._projections is None:
            self._projections = self.index.built.bank.project_rows(self.queries)
        return self._projections

    def rung(self, rung_index: int, radius: float) -> tuple:
        """``(hash_values, slots, fingerprints, present, addresses)`` arrays
        and ``present.any(axis=1)`` as a list (most rungs probe nothing)."""
        cached = self._rungs.get(rung_index)
        if cached is None:
            built = self.index.built
            bank = built.bank
            hash_values = bank.hash_projections(self.projections, radius)
            slots, fingerprints = built.codec.split_hash(hash_values)
            lookup = self.index._rung_lookup(rung_index)
            present = lookup.contains(hash_values)
            addresses = lookup.base_addresses[None, :] + slots.astype(np.int64) * SLOT_SIZE
            occupied = present.any(axis=1).tolist()
            cached = (hash_values, slots, fingerprints, present, addresses, occupied)
            self._rungs[rung_index] = cached
        return cached


class _Memo:
    """What the index keeps per ``(query bytes, k, stop_k)``: the hash-plan
    row from first sight; from the first recurrence (a traced wave: from first
    sight) also the task's data plane — what the live body yields, a ``Segment``
    per I/O wait, and its answer in local ids — replayed while the store is
    unchanged.  ``answer`` is set last; partial ``segments`` never replay."""

    __slots__ = ("plan", "row", "k", "stop_k", "segments", "answer")

    def __init__(self, row: int, k: int, stop_k: int) -> None:
        self.plan: _WavePlan  # set by ``query_tasks`` before any task starts
        self.row, self.k, self.stop_k = row, k, stop_k
        self.segments: list[Segment] | None = None
        self.answer: tuple[np.ndarray, np.ndarray, QueryStats] | None = None


class _Replay:
    """One unfinished replay: the segments it has yielded, and from
    ``invalidate_query_caches`` the live body and its parked batch's payload."""

    __slots__ = ("memo", "id_map", "position", "live", "payload")

    def __init__(self, memo: _Memo, id_map: np.ndarray | None) -> None:
        self.memo, self.id_map = memo, id_map
        self.position = 0
        self.live: Task | None = None
        self.payload: list[bytes] | None = None


def _stray_id(address: int, object_id: int, n: int) -> ValueError:
    return ValueError(f"block at {address} holds object id {object_id}; the index has {n} objects")


def _answer(
    ids: np.ndarray, distances: np.ndarray, stats: QueryStats, id_map: np.ndarray | None
) -> QueryAnswer:
    if id_map is not None:
        # Looked up when the task finishes, not when it was planned:
        # a merge may have filled the (presized) map in between.
        ids = np.asarray(id_map[ids], dtype=np.int64)
    return QueryAnswer(ids=ids, distances=distances, stats=stats)


class E2LSHoSIndex:
    """External-memory E2LSH over a built on-storage index."""

    def __init__(
        self,
        built: BuiltIndex,
        data: np.ndarray,
        machine: MachineModel = DEFAULT_MACHINE,
    ) -> None:
        data = np.ascontiguousarray(data, dtype=np.float32)
        if data.shape[0] != built.params.n:
            raise ValueError(f"data has n={data.shape[0]}, index expects {built.params.n}")
        self.built = built
        self.data = data
        self.machine = machine
        #: Per-rung flattened occupancy/address tables, built on first
        #: query touch (queries share them across waves and batches).
        self._rung_lookups: dict[int, _RungLookup] = {}
        #: Query memo, (query bytes, k, stop_k) -> :class:`_Memo`.  Hashing
        #: is a pure function of the query and the (fixed) bank, and what a
        #: task reads, scores and returns a pure function of the key and
        #: the store's contents, so both are reused bit-for-bit until the
        #: next :meth:`invalidate_query_caches`.
        self._memo: dict[tuple[bytes, int, int], _Memo] = {}
        #: Unfinished replays in creation order (a dict as an ordered set).
        self._replays: dict[_Replay, None] = {}
        self._cache_info = {"live": 0, "recorded": 0, "traced": 0, "replayed": 0, "converted": 0}
        # The projection, per-rung hashing, and occupancy-filter Compute
        # steps are query-independent: one (immutable) action each,
        # yielded by every task and shared by every recorded trace.
        params, d = built.params, data.shape[1]
        self._proj_compute = Compute(
            machine.compute_ns(OpCounts(projection_scalar_ops=d * params.L * params.m))
        )
        self._rung_compute = Compute(
            machine.compute_ns(OpCounts(rounds=1, projection_scalar_ops=params.L * params.m))
        )
        self._filter_compute = Compute(machine.compute_ns(OpCounts(bucket_lookups=params.L)))

    # -- construction -------------------------------------------------------

    @classmethod
    def build(
        cls,
        data: np.ndarray,
        params: E2LSHParams,
        store: BlockStore | None = None,
        ladder: RadiusLadder | None = None,
        block_size: int = 512,
        table_bits: int | None = None,
        seed: int = 0,
        machine: MachineModel = DEFAULT_MACHINE,
        bank: CompoundHashBank | None = None,
    ) -> "E2LSHoSIndex":
        """Build the on-storage index for ``data`` and wrap it."""
        data = np.ascontiguousarray(data, dtype=np.float32)
        ladder = ladder or RadiusLadder.for_data(data, params.c)
        store = store if store is not None else MemoryBlockStore()
        builder = IndexBuilder(
            store=store,
            params=params,
            ladder=ladder,
            block_size=block_size,
            table_bits=table_bits,
            seed=seed,
        )
        return cls(built=builder.build(data, bank=bank), data=data, machine=machine)

    # -- introspection -------------------------------------------------------

    @property
    def params(self) -> E2LSHParams:
        """E2LSH parameters the index was built with."""
        return self.built.params

    @property
    def ladder(self) -> RadiusLadder:
        """Radius ladder."""
        return self.built.ladder

    @property
    def storage_bytes(self) -> int:
        """On-storage index size (Table 6, "Index storage")."""
        return self.built.stats.index_storage_bytes

    @property
    def dram_bytes(self) -> int:
        """Runtime DRAM: database + resident index data (Table 6)."""
        return self.data.nbytes + self.built.dram_bytes

    # -- maintenance hooks ----------------------------------------------------

    def invalidate_query_caches(self) -> None:
        """Announce that the index is about to be mutated.

        :class:`~repro.core.updates.IndexUpdater` rewrites bucket chains
        and occupancy filters in place; the per-rung lookup tables and
        the query memo would otherwise keep serving the pre-mutation
        view.  The updater calls this itself *before its first write*
        (as must anything else that writes to the store): every
        unfinished replay first becomes the live body — a fresh
        :meth:`_run_query` on the trace's own plan row, fast-forwarded
        over the segments already yielded with payloads read from the
        still-unchanged store (the parked batch's is kept: the engine read
        none) — so an in-flight task keeps its old plan and sees each
        request's bytes as of issue time, replayed or not.
        """
        read_many = self.built.store.read_many
        for replay in self._replays:
            memo = replay.memo
            assert memo.segments is not None  # replays exist only for finished recordings
            live = replay.live = self._run_query(memo, replay.id_map)
            payload = None
            for segment in memo.segments[: replay.position]:
                for action in segment.expand():
                    if live.send(payload) != action:
                        raise RuntimeError("store written before its query caches were invalidated")
                    payload = read_many(action.requests) if type(action) is ReadBatch else None
            replay.payload = payload
        self._cache_info["converted"] += len(self._replays)
        self._replays.clear()
        self._rung_lookups.clear()
        self._memo.clear()

    def query_cache_info(self) -> dict[str, int]:
        """Tasks created so far as ``live``, ``recorded`` (live, keeping their
        trace), ``traced`` (replaying a trace made at plan time) or ``replayed``,
        and replays of either kind ``converted`` to the live body by an
        invalidation.  Kept out of every report: the split depends on the past."""
        return dict(self._cache_info)

    def maintenance_compute_ns(self, count: int) -> float:
        """Modelled CPU cost of hashing ``count`` objects for maintenance.

        Inserting an object hashes it once per rung across all tables —
        the same projection + per-rung lattice-code work a query spends
        before it touches storage — so merge jobs charge this per delta
        entry they rewrite into the static tables.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        per_rung_ns = self._rung_compute.duration_ns
        return count * (self._proj_compute.duration_ns + len(self.built.ladder) * per_rung_ns)

    # -- query tasks ----------------------------------------------------------

    def query_tasks(
        self,
        queries: np.ndarray,
        k: int = 1,
        id_map: np.ndarray | None = None,
        stop_k: int | None = None,
    ) -> list[Task]:
        """Plan a micro-batch of queries as one wave of cooperative tasks.

        The whole ``(B, d)`` matrix is hashed at once — projections,
        per-rung lattice codes, occupancy filtering via one sorted-array
        ``searchsorted``, and slot addressing are computed once per wave
        and shared by the returned tasks.  Each task still yields its
        own Compute/ReadBatch actions, so driving the list on the engine
        produces *exactly* the answers, I/O counts, and simulated timing
        of ``[query_task(q) for q in queries]``; only the wall-clock
        cost of planning is amortized (hashing uses the batch-invariant
        :meth:`~repro.core.lsh.CompoundHashBank.project_rows`).  A
        ``(row, k, stop_k)`` seen before is not planned again, and from
        its second recurrence not computed again either: the task replays
        what the live body yielded and returned (:class:`_Memo`) — a wave of
        ``_TRACE_MIN_WAVE`` new rows or more from first sight (:meth:`_trace_rows`).

        ``id_map`` remaps the answers' object IDs through a lookup table
        before each task returns — a shard answering on behalf of a
        sharded service reports *global* IDs this way, so the dispatcher
        can merge shard answers without knowing the partitioning.

        ``stop_k`` decouples the rung-descent termination quota from the
        answer size: a shard holding 1/N of the database stops once it
        has ``ceil(k/N) + slack`` candidates within ``c * R`` (its
        expected share of the global top-k) while still *reporting* up
        to ``k`` so a skewed partition cannot starve the merge.
        Defaults to ``k`` (the paper's single-node condition).
        """
        queries = np.ascontiguousarray(queries, dtype=np.float32)
        if queries.ndim == 1:
            queries = queries[None, :]
        d = self.data.shape[1]
        if queries.ndim != 2 or queries.shape[0] < 1:
            raise ValueError(f"queries must be a (B, {d}) matrix, got shape {queries.shape}")
        if queries.shape[1] != d:
            raise ValueError(f"queries have d={queries.shape[1]}, index expects {d}")
        require_finite_rows(queries, "queries")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        stop_k = k if stop_k is None else stop_k
        if stop_k < 1:
            raise ValueError(f"stop_k must be >= 1, got {stop_k}")
        if id_map is not None and id_map.shape[0] < self.built.params.n:
            raise ValueError(
                f"id_map covers {id_map.shape[0]} objects, index holds {self.built.params.n}"
            )
        # First sight of a key: plan it with the wave's other new rows,
        # run live.  First recurrence: run live and record.  Then replay.
        memo, info = self._memo, self._cache_info
        fresh: dict[tuple[bytes, int, int], _Memo] = {}
        fresh_rows: list[int] = []
        planned: list[tuple[_Memo, bool]] = []  # per row: its entry, first sight?
        for row in range(queries.shape[0]):
            key = (queries[row].tobytes(), k, stop_k)
            entry = memo.get(key) or fresh.get(key)
            first = entry is None
            if entry is None:
                entry = fresh[key] = _Memo(len(fresh_rows), k, stop_k)
                fresh_rows.append(row)
            planned.append((entry, first))
        if fresh_rows:
            if len(fresh_rows) < queries.shape[0]:
                queries = np.ascontiguousarray(queries[fresh_rows])
            wave = _WavePlan(self, queries)
            entries = list(fresh.values())
            for entry in entries:
                entry.plan = wave
            if len(entries) >= _TRACE_MIN_WAVE:
                # Computed here, a bounded batch of rows at a time, then only replayed.
                step = max(1, _TRACE_BITMAP_CELLS // self.data.shape[0])
                for lo in range(0, len(entries), step):
                    self._trace_rows(wave, entries[lo : lo + step])
            if len(memo) + len(fresh) > _PLAN_CACHE_CAP:
                memo.clear()
            memo.update(fresh)
        tasks: list[Task] = []
        for entry, first in planned:
            if entry.answer is not None:
                info["traced" if first else "replayed"] += 1
                replay = _Replay(entry, id_map)
                self._replays[replay] = None
                tasks.append(self._replay(replay))
            elif first or entry.segments is not None:
                info["live"] += 1
                tasks.append(self._run_query(entry, id_map))
            else:
                entry.segments = []
                info["recorded"] += 1
                tasks.append(self._record(entry, id_map))
        return tasks

    def query_task(
        self,
        query: np.ndarray,
        k: int = 1,
        id_map: np.ndarray | None = None,
        stop_k: int | None = None,
    ) -> Task:
        """Cooperative task answering one query (drive with the engine).

        The ``B=1`` wrapper around :meth:`query_tasks`; see there for
        the ``id_map`` and ``stop_k`` semantics.
        """
        queries = np.asarray(query, dtype=np.float32).reshape(1, -1)
        return self.query_tasks(queries, k=k, id_map=id_map, stop_k=stop_k)[0]

    def _rung_lookup(self, rung_index: int) -> _RungLookup:
        lookup = self._rung_lookups.get(rung_index)
        if lookup is None:
            lookup = _RungLookup(self.built.tables[rung_index])
            self._rung_lookups[rung_index] = lookup
        return lookup

    def _replay(self, replay: _Replay) -> Task:
        """Yield a recorded trace, one resumption per I/O wait: only host
        work is skipped, the engine books every segment as it would the
        live body's actions.  Once ``invalidate_query_caches`` has parked
        the live body at this position, the rest is delegated to it."""
        memo = replay.memo
        assert memo.segments is not None and memo.answer is not None
        for segment in memo.segments:
            if replay.live is not None:
                break
            replay.position += 1
            yield segment
        live = replay.live
        if live is None:
            del self._replays[replay]
            ids, distances, stats = memo.answer
            return _answer(ids, distances, stats.copy(), replay.id_map)
        payload = replay.payload
        try:
            while True:
                payload = yield live.send(payload)
        except StopIteration as stop:
            return stop.value

    def _record(self, memo: _Memo, id_map: np.ndarray | None) -> Task:
        """The live body in local ids, keeping what it yields and returns
        in ``memo`` for :meth:`_replay`."""
        live = self._run_query(memo, None)
        segments, payload = memo.segments, None
        assert segments is not None  # the list ``query_tasks`` left for this task
        durations: list[float] = []
        try:
            while True:
                action = live.send(payload)
                if isinstance(action, Compute):
                    durations.append(action.duration_ns)
                else:  # the ReadBatch this stretch waits on
                    segments.append(Segment(tuple(durations), action.requests))
                    durations = []
                payload = yield action
        except StopIteration as stop:
            answer: QueryAnswer = stop.value
        if durations:
            segments.append(Segment(tuple(durations), ()))
        # Shared with every replay from here on, hence read-only.
        answer.ids.flags.writeable = answer.distances.flags.writeable = False
        memo.answer = (answer.ids, answer.distances, answer.stats.copy())
        return _answer(answer.ids, answer.distances, answer.stats, id_map)

    def _run_query(self, memo: _Memo, id_map: np.ndarray | None) -> _LiveTask:
        """The data plane of one query task (Figure 10), and its only
        implementation: first sight, what :meth:`_record` records, and
        the body an interrupted :meth:`_replay` falls back to."""
        plan, i, k, stop_k = memo.plan, memo.row, memo.k, memo.stop_k
        d = self.data.shape[1]
        built = self.built
        params = built.params
        codec = built.codec
        machine = self.machine
        stats = QueryStats()
        query = plan.queries[i]
        # Everything the rung loop needs from the (immutable) parameters
        # and layout, bound once.  ``self.data`` is not: a merge may
        # grow it while this task is parked.
        n_tables, budget_per_rung = params.L, params.S
        rung_scalar_ops = n_tables * params.m
        c = params.c
        block_size = built.block_size
        rung_compute, filter_compute = self._rung_compute, self._filter_compute
        query64 = query.astype(np.float64)

        # Hash the query once; rungs reuse the projections (Sec. 5.3).
        # The plan materializes the whole wave's hash state on first
        # touch; this member charges its own share of the Compute cost.
        # The constant steps increment their counters directly — same
        # arithmetic as ``ops.add(OpCounts(...))`` without touching the
        # six zero fields on every simulated event.
        ops = stats.ops
        ops.projection_scalar_ops += d * rung_scalar_ops
        yield self._proj_compute

        pool_ids = np.empty(0, dtype=np.int64)
        pool_dists = np.empty(0, dtype=np.float64)
        seen: np.ndarray | None = None

        for rung_index, radius in enumerate(built.ladder):
            stats.rungs_searched += 1
            ops.rounds += 1
            ops.projection_scalar_ops += rung_scalar_ops
            yield rung_compute
            _, _, fingerprints, present, addresses, occupied = plan.rung(rung_index, radius)

            # DRAM occupancy filter: skip I/O for empty buckets (exact
            # membership of the 32-bit value; see _RungLookup).
            stats.buckets_probed += n_tables
            ops.bucket_lookups += n_tables
            yield filter_compute

            budget = budget_per_rung
            collected: list[np.ndarray] = []
            if occupied[i]:
                probe_cols = present[i].nonzero()[0]
                # Step 1: hash-table slot reads, all in one async batch.
                slot_reads = [(address, SLOT_SIZE) for address in addresses[i, probe_cols].tolist()]
                stats.ios_issued += len(slot_reads)
                raw_slots = yield ReadBatch(slot_reads)
                heads = np.frombuffer(b"".join(raw_slots), dtype="<u8")
                # Step 2: first bucket block of every non-empty bucket,
                # then the chains' next blocks while the budget lasts.
                chained = heads != NULL_ADDRESS
                pending, fps = heads[chained], fingerprints[i, probe_cols[chained]]
                stats.nonempty_buckets += pending.size
                while pending.size and budget > 0:
                    reads = [(address, block_size) for address in pending.tolist()]
                    stats.ios_issued += len(reads)
                    raws = yield ReadBatch(reads)
                    # Blocks are examined in request order, each giving up
                    # to the remaining budget of its fingerprint matches:
                    # block j is examined iff the budget outlasts the
                    # matches before it.  Budget left after the batch means
                    # every block was examined, so every chain goes on.
                    nexts, counts, ids, block_fps, valid = decode_blocks(codec, raws, block_size)
                    mask = (block_fps == fps[:, None]) & valid
                    per_block = mask.sum(axis=1)
                    sizes = counts[per_block.cumsum() - per_block < budget].tolist()
                    stats.bucket_sizes_examined.extend(sizes)
                    stats.bucket_blocks_read += len(sizes)
                    at = mask.ravel().nonzero()[0][:budget]
                    taken = ids.ravel()[at]
                    if taken.size:
                        if taken.max() >= self.data.shape[0]:  # before anything is scored
                            stray = int((taken >= self.data.shape[0]).argmax())
                            address = int(pending[int(at[stray]) // ids.shape[1]])
                            raise _stray_id(address, int(taken[stray]), self.data.shape[0])
                        collected.append(taken)
                        budget -= taken.size
                    chained = nexts != NULL_ADDRESS
                    pending, fps = nexts[chained], fps[chained]

            # Step 3: fingerprint-filtered candidates -> true distances.
            if collected:
                # Sorted-unique candidates minus the pool, exactly as
                # ``np.unique`` + ``~np.isin(..., pool_ids)`` would give,
                # via one sort and a seen-bitmap over the n objects —
                # numpy's hash-based unique and isin's mergesort dominate
                # the event loop otherwise.
                cand = np.concatenate(collected)
                cand.sort(kind="stable")
                if cand.size > 1:
                    keep = np.empty(cand.size, dtype=bool)
                    keep[0] = True
                    np.not_equal(cand[1:], cand[:-1], out=keep[1:])
                    candidates = cand[keep]
                else:
                    candidates = cand
                # Bitmap over the live object ids (inserts may have
                # grown the dataset past the build-time params.n).
                n_objects = self.data.shape[0]
                if seen is None or seen.size < n_objects:
                    grown = np.zeros(n_objects, dtype=bool)
                    if seen is not None:
                        grown[: seen.size] = seen
                    seen = grown
                new = candidates[~seen[candidates]]
                if new.size:
                    seen[new] = True
                    diffs = self.data[new].astype(np.float64) - query64
                    dists = np.sqrt(np.einsum("nd,nd->n", diffs, diffs))
                    stats.candidates_checked += int(new.size)
                    step = OpCounts(
                        candidate_fetches=int(new.size),
                        distance_scalar_ops=int(new.size) * d,
                    )
                    stats.ops.add(step)
                    yield Compute(machine.compute_ns(step))
                    pool_ids = np.concatenate([pool_ids, new])
                    pool_dists = np.concatenate([pool_dists, dists])

            if pool_ids.size and np.count_nonzero(pool_dists <= c * radius) >= stop_k:
                break

        # An empty pool sorts to an empty answer of the same dtypes.
        order = np.argsort(pool_dists, kind="stable")[:k]
        return _answer(pool_ids[order], pool_dists[order], stats, id_map)

    def _trace_rows(self, plan: _WavePlan, entries: list[_Memo]) -> None:
        """The data plane of consecutive plan rows at once: the ``segments`` and
        ``answer`` :meth:`_record` would leave in each entry had its row run
        :meth:`_run_query` alone, found by walking the ladder once, every array
        holding all rows' requests row-major (``owner`` says whose)."""
        built, machine, data = self.built, self.machine, self.data
        params, codec, store = built.params, built.codec, built.store
        block_size, (n, d) = built.block_size, data.shape
        lo, size, k, stop_k = entries[0].row, len(entries), entries[0].k, entries[0].stop_k
        queries64 = plan.queries[lo : lo + size].astype(np.float64)
        per_rung = (self._rung_compute.duration_ns, self._filter_compute.duration_ns)
        stretch = [[self._proj_compute.duration_ns] for _ in entries]  # since the last wait
        segments: list[list[Segment]] = [[] for _ in entries]
        score_ns: dict[int, float] = {}
        tally = rungs, ios, nonempty, blocks_read, checked = np.zeros((5, size), dtype=np.int64)
        seen = np.zeros(size * n, dtype=bool)
        empty = np.empty(0, dtype=np.int64)
        sized = [(empty, empty)]  # (owner, count) of the examined blocks, round by round
        pool_owner, pool_ids, pool_dists = empty, empty, np.empty(0, dtype=np.float64)

        def wait(owner: np.ndarray, addresses: np.ndarray, length: int) -> None:
            """Cut a segment for every row with a request in this batch."""
            counts = np.bincount(owner, minlength=size)
            np.add(ios, counts, out=ios)  # (``+=`` would rebind a closure variable)
            requests, at = list(zip(addresses.tolist(), repeat(length))), 0
            rows = counts.nonzero()[0]
            for row, count in zip(rows.tolist(), counts[rows].tolist()):
                segments[row].append(Segment(tuple(stretch[row]), tuple(requests[at : at + count])))
                stretch[row].clear()
                at += count

        active = np.arange(size)
        for rung_index, radius in enumerate(built.ladder):
            rungs[active] += 1
            for row in active.tolist():
                stretch[row] += per_rung
            _, _, fingerprints, present, addresses, _ = plan.rung(rung_index, radius)
            # Step 1: every slot of the rung, one gather.
            probing, cols = present[active + lo].nonzero()
            owner = active[probing]
            probes = (owner + lo, cols)
            slots = addresses[probes]
            wait(owner, slots, SLOT_SIZE)
            heads = store.read_matrix(slots, SLOT_SIZE).view("<u8")[:, 0]
            chained = heads != NULL_ADDRESS
            pending, owner, fps = heads[chained], owner[chained], fingerprints[probes][chained]
            nonempty += np.bincount(owner, minlength=size)
            # Step 2: chain rounds; a row out of budget drops out of the next.
            budget = np.full(size, params.S, dtype=np.int64)
            taken_keys = [empty]
            while pending.size:
                wait(owner, pending, block_size)
                blocks = store.read_matrix(pending, block_size)
                nexts, counts, ids, block_fps, valid = decode_blocks(codec, blocks, block_size)
                mask = (block_fps == fps[:, None]) & valid
                per_block = mask.sum(axis=1)
                # Matches before each block *of its own row* (rows are runs of ``owner``).
                before = per_block.cumsum() - per_block
                row_base = before[np.searchsorted(owner, owner)]
                examined = before - row_base < budget[owner]
                blocks_read += np.bincount(owner[examined], minlength=size)
                sized.append((owner[examined], counts[examined]))
                hit_block, hit_entry = mask.nonzero()
                keep = np.arange(hit_block.size) - row_base[hit_block] < budget[owner[hit_block]]
                hit_block, hit_entry = hit_block[keep], hit_entry[keep]
                taken, taker = ids[hit_block, hit_entry], owner[hit_block]
                if taken.size and taken.max() >= n:
                    stray = int((taken >= n).argmax())
                    raise _stray_id(int(pending[hit_block[stray]]), int(taken[stray]), n)
                taken_keys.append(taker * n + taken)
                budget -= np.bincount(taker, minlength=size)
                goes_on = (nexts != NULL_ADDRESS) & (budget[owner] > 0)
                pending, owner, fps = nexts[goes_on], owner[goes_on], fps[goes_on]
            # Step 3: per row the sorted-unique unseen candidates, as one
            # sort of ``row * n + id`` keys against the batch's bitmap.
            keys = np.sort(np.concatenate(taken_keys))
            keys = keys[np.diff(keys, prepend=-1) != 0]  # unique (``np.unique`` hashes: 20x slower)
            new = keys[~seen[keys]]
            seen[new] = True
            scorer, new_ids = np.divmod(new, n)
            diffs = data[new_ids] - queries64[scorer]  # float32 - float64: cast, then subtracted
            dists = np.sqrt(np.einsum("nd,nd->n", diffs, diffs))
            scored = np.bincount(scorer, minlength=size)
            checked += scored
            rows = scored.nonzero()[0]
            for row, count in zip(rows.tolist(), scored[rows].tolist()):
                if count not in score_ns:
                    step = OpCounts(candidate_fetches=count, distance_scalar_ops=count * d)
                    score_ns[count] = machine.compute_ns(step)
                stretch[row].append(score_ns[count])
            pool_owner = np.concatenate([pool_owner, scorer])
            pool_ids = np.concatenate([pool_ids, new_ids])
            pool_dists = np.concatenate([pool_dists, dists])
            within = np.bincount(pool_owner[pool_dists <= params.c * radius], minlength=size)
            active = active[within[active] < stop_k]
            if not active.size:
                break

        # Each row's k nearest of its pool, ties in pool order (rung, then id).
        order = np.lexsort((pool_dists, pool_owner))
        ranked = pool_owner[order]
        order = order[np.arange(order.size) - np.searchsorted(ranked, ranked) < k]
        top_ids, top_dists = pool_ids[order], pool_dists[order]
        top_ids.flags.writeable = top_dists.flags.writeable = False  # shared with every replay
        bounds = np.searchsorted(pool_owner[order], np.arange(size + 1)).tolist()
        sized_owner, sized_count = map(np.concatenate, zip(*sized))
        sizes = sized_count[np.argsort(sized_owner, kind="stable")].tolist()
        ends = blocks_read.cumsum().tolist()
        for row, (searched, issued, linked, read, fetched) in enumerate(tally.T.tolist()):
            if stretch[row]:
                segments[row].append(Segment(tuple(stretch[row]), ()))
            stats = QueryStats(
                ops=OpCounts(
                    projection_scalar_ops=(d + searched) * params.L * params.m,
                    distance_scalar_ops=fetched * d,
                    candidate_fetches=fetched,
                    bucket_lookups=searched * params.L,
                    rounds=searched,
                ),
                rungs_searched=searched,
                nonempty_buckets=linked,
                buckets_probed=searched * params.L,
                candidates_checked=fetched,
                bucket_blocks_read=read,
                ios_issued=issued,
                bucket_sizes_examined=sizes[ends[row] - read : ends[row]],
            )
            at, end = bounds[row], bounds[row + 1]
            entries[row].segments = segments[row]
            entries[row].answer = (top_ids[at:end], top_dists[at:end], stats)

    # -- batch execution -------------------------------------------------------

    def run(
        self,
        queries: np.ndarray,
        engine: AsyncIOEngine | None = None,
        k: int = 1,
        workers: int = 1,
        *,
        mode: str = "async",
        cache: PageCache | None = None,
    ) -> BatchResult:
        """Answer all ``queries`` as one wave, under either execution mode.

        ``mode="async"`` (default) interleaves the wave's tasks on the
        given :class:`~repro.storage.engine.AsyncIOEngine` — the paper's
        deep-queue asynchronous execution (Sec. 5.4, Eq. 7).

        ``mode="mmap_sync"`` drives the same tasks against a
        :class:`~repro.storage.page_cache.PageCache` instead: every
        index read becomes a blocking page-cache access and queries run
        one after another with no I/O overlap (the Sec. 6.5 mmap
        baseline).  Pass ``cache=`` and leave ``engine`` as ``None``.
        The returned :class:`BatchResult` synthesizes its engine figures
        from the blocking walk — ``stall_ns`` absorbs all time the CPU
        spent waiting on the cache.
        """
        queries = np.asarray(queries, dtype=np.float32)
        if queries.ndim == 1:
            queries = queries[None, :]
        if mode == "async":
            if engine is None:
                raise ValueError("mode='async' needs an engine")
            if cache is not None:
                raise ValueError("mode='async' takes no cache; pass mode='mmap_sync'")
            tasks = self.query_tasks(queries, k=k)
            result = engine.run(tasks, workers=workers)
            return BatchResult(answers=list(result.results), engine=result)
        if mode != "mmap_sync":
            raise ValueError(f"unknown mode {mode!r}; expected 'async' or 'mmap_sync'")
        if cache is None:
            raise ValueError("mode='mmap_sync' needs a cache")
        if engine is not None:
            raise ValueError("mode='mmap_sync' drives the page cache; leave engine=None")
        clock = 0.0
        compute_ns = 0.0
        io_count = 0
        answers: list[QueryAnswer] = []
        finish_times: list[float] = []
        for task in self.query_tasks(queries, k=k):
            send_value = None
            while True:
                try:
                    action = task.send(send_value)
                except StopIteration as stop:
                    answers.append(stop.value)
                    finish_times.append(clock)
                    break
                send_value = None
                # The page cache has to see a replayed segment's requests too.
                for plain in action.expand() if isinstance(action, Segment) else (action,):
                    if isinstance(plain, Compute):
                        clock += plain.duration_ns
                        compute_ns += plain.duration_ns
                    elif isinstance(plain, Read):
                        send_value, clock = cache.read(clock, plain.address, plain.length)
                        io_count += 1
                    elif isinstance(plain, ReadBatch):
                        payload = []
                        for address, length in plain.requests:
                            data, clock = cache.read(clock, address, length)
                            payload.append(data)
                        io_count += len(plain.requests)
                        send_value = payload
                    else:  # pragma: no cover - defensive
                        raise TypeError(f"unsupported action {plain!r}")
        synthesized = EngineResult(
            makespan_ns=clock,
            results=list(answers),
            finish_times_ns=finish_times,
            io_count=io_count,
            compute_ns=compute_ns,
            io_cpu_ns=0.0,
            stall_ns=max(0.0, clock - compute_ns),
        )
        return BatchResult(answers=answers, engine=synthesized)
