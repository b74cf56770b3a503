"""Reference (test-only): a batch taken apart into its requests and blocks.

Until the batch became the unit under the task body, every layer there
took a ``ReadBatch`` / ``WriteBatch`` apart again:

- ``StorageDevice`` kept its channels as a ``(free_ns, channel)`` min-heap
  and booked one request per ``submit`` call (``HeapBooking.reset`` /
  ``submit`` below are those bodies verbatim; ``TimelineDevice`` deferred
  the submission and delegated, as ``HeapTimelineDevice.submit`` does);
- ``EngineSession.step`` walked the requests, one ``volume.submit`` and one
  ``store.read`` each (``ReferenceSession.step``, verbatim);
- ``E2LSHoSIndex._run_query`` decoded a chain batch block by block with
  ``decode_block`` and kept a running ``take`` against the budget
  (``ReferenceIndex._run_query``, verbatim but for the wave plan's tuple,
  which has grown a sixth element the old body does not need) — and every
  row ran that body: ``ReferenceIndex`` plans no wave as a plan-time trace.

``tests/test_query_oracle.py`` holds the production tree to these: ids,
distance bytes, every statistic, every yielded action, every completion
time.  Nothing under ``src/`` imports this module.
"""

import heapq
import math
import sys
from typing import Any
from unittest import mock

import numpy as np

import repro.core.e2lshos as e2lshos
from repro.core.e2lshos import E2LSHoSIndex, _answer, _Memo
from repro.layout.bucket import NULL_ADDRESS, decode_block
from repro.layout.hash_table import SLOT_SIZE
from repro.serving.replication import TimelineDevice
from repro.stats import OpCounts, QueryStats
from repro.storage.device import DeviceStats, StorageDevice
from repro.storage.engine import (
    AsyncIOEngine,
    Completion,
    Compute,
    EngineSession,
    Read,
    ReadBatch,
    Task,
    Write,
    WriteBatch,
    _Wave,
)


class HeapBooking:
    """The channel heap: ``reset`` and ``submit`` of the old ``StorageDevice``."""

    def reset(self) -> None:
        """Forget all bookings and statistics."""
        # ``(free_ns, channel)`` min-heap: the root is the earliest-free
        # channel, ties going to the lowest channel index.
        self._channels = [(0.0, channel) for channel in range(self.profile.channels)]
        self._last_departure_ns = -math.inf
        self.stats = DeviceStats()

    def submit(self, submit_ns: float, length: int) -> float:
        """Book a random read of ``length`` bytes; return its completion time."""
        if length <= 0:
            raise ValueError(f"length must be positive, got {length}")
        timing = self._timing_ns.get(length)
        if timing is None:
            timing = (self._service_time_ns(length), self._regulator_gap_ns(length))
            self._timing_ns[length] = timing
        service_ns, gap_ns = timing
        # Earliest-free channel (FCFS over a pool of parallel service units).
        channels = self._channels
        free_ns, channel = channels[0]
        start = max(submit_ns, free_ns)
        completion = start + service_ns * self._latency_scale(start)
        # Departure regulator: completions cannot come faster than max_iops.
        completion = max(completion, self._last_departure_ns + gap_ns)
        heapq.heapreplace(channels, (completion, channel))
        self._last_departure_ns = completion

        stats = self.stats
        stats.completed += 1
        stats.total_latency_ns += completion - submit_ns
        stats.first_submit_ns = min(stats.first_submit_ns, submit_ns)
        stats.last_completion_ns = max(stats.last_completion_ns, completion)
        return completion


class HeapDevice(HeapBooking, StorageDevice):
    pass


class HeapTimelineDevice(HeapBooking, TimelineDevice):
    def submit(self, submit_ns: float, length: int) -> float:
        return super().submit(self._deferred(submit_ns), length)


class ReferenceSession(EngineSession):
    """``EngineSession`` issuing a batch one request at a time."""

    def step(self) -> Completion | None:
        """Resume the earliest-ready task until it blocks or finishes.

        Returns a :class:`Completion` when the task ran to completion,
        ``None`` when it parked on an asynchronous read.
        """
        if not self._ready:
            return None
        engine = self.engine
        interface = engine.interface
        ready_ns, _, item = self._ready[0]
        if type(item) is _Wave:
            # Take the next member in submission order; the wave entry
            # keeps its original (ready, seq) key while partially
            # consumed, so it sorts exactly where the remaining members'
            # individual entries would have.
            state = item.states[item.cursor]
            item.cursor += 1
            if item.cursor == len(item.states):
                heapq.heappop(self._ready)
        else:
            heapq.heappop(self._ready)
            state = item
        now = max(ready_ns, self._worker_free[state.worker])
        profile = None if self._profiles is None else self._profiles[state.index]
        if profile is not None:
            if math.isnan(profile.start_ns):
                profile.start_ns = now
            elif profile.parked_ns is not None:
                profile.io_wait_ns += now - profile.parked_ns
                profile.parked_ns = None
        while True:
            try:
                action = state.generator.send(state.send_value)
            except StopIteration as stop:
                self._results[state.index] = stop.value
                self._finish_times[state.index] = now
                self._worker_free[state.worker] = now
                if profile is not None:
                    del self._profiles[state.index]
                return Completion(
                    index=state.index,
                    tag=state.tag,
                    result=stop.value,
                    finish_ns=now,
                    profile=profile,
                )
            state.send_value = None

            if isinstance(action, Compute):
                self.compute_ns += action.duration_ns
                now += action.duration_ns
                if profile is not None:
                    profile.compute_ns += action.duration_ns
                continue

            is_write = False
            if isinstance(action, Read):
                requests: tuple[tuple[int, int], ...] = ((action.address, action.length),)
            elif isinstance(action, ReadBatch):
                requests = action.requests
                if not requests:
                    state.send_value = []
                    continue
            elif isinstance(action, Write):
                is_write = True
                requests = ((action.address, action.length),)
            elif isinstance(action, WriteBatch):
                is_write = True
                requests = action.requests
                if not requests:
                    state.send_value = None
                    continue
            else:
                raise TypeError(f"task yielded unsupported action {action!r}")

            # Issue each request: CPU overhead, then device booking.
            # Writes book the same device time as reads (compaction and
            # queries compete for one IOPS budget) but are tallied on
            # their own counters and carry no store payload back.
            overhead_ns = interface.cpu_overhead_ns
            submit = engine.volume.submit
            io_cpu_ns = self.io_cpu_ns
            completions = []
            for address, length in requests:
                now += overhead_ns
                io_cpu_ns += overhead_ns
                completions.append(submit(now, address, length))
            self.io_cpu_ns = io_cpu_ns
            done_ns = max(completions)
            if is_write:
                self.write_count += len(requests)
                self.write_bytes += sum(length for _, length in requests)
                payload: Any = None
            else:
                self.io_count += len(requests)
                read = engine.store.read
                data = [read(address, length) for address, length in requests]
                payload = data[0] if isinstance(action, Read) else data
            if profile is not None:
                profile.io_cpu_ns += overhead_ns * len(requests)
                profile.io_count += len(requests)

            if interface.synchronous:
                # Figure 1(A): the CPU blocks until the data arrives.
                self.stall_ns += max(0.0, done_ns - now)
                if profile is not None:
                    profile.io_wait_ns += max(0.0, done_ns - now)
                now = max(now, done_ns)
                state.send_value = payload
                continue

            # Figure 1(B): park this task, free the worker for others.
            self._worker_free[state.worker] = now
            state.send_value = payload
            if profile is not None:
                profile.parked_ns = now
            heapq.heappush(self._ready, (done_ns, self._seq, state))
            self._seq += 1
            return None


class ReferenceEngine(AsyncIOEngine):
    """An engine whose sessions are :class:`ReferenceSession`."""

    def session(self, workers: int = 1, profile_tasks: bool = False) -> ReferenceSession:
        return ReferenceSession(self, workers=workers, profile_tasks=profile_tasks)


class ReferenceIndex(E2LSHoSIndex):
    """``E2LSHoSIndex`` filtering a chain batch one decoded block at a time,
    every row of every wave by itself."""

    def query_tasks(self, queries, **kwargs):
        with mock.patch.object(e2lshos, "_TRACE_MIN_WAVE", sys.maxsize):
            return super().query_tasks(queries, **kwargs)

    def _run_query(self, memo: _Memo, id_map: np.ndarray | None) -> Task:
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
            _, _, fingerprints, present, addresses, _ = plan.rung(rung_index, radius)

            # DRAM occupancy filter: skip I/O for empty buckets (exact
            # membership of the 32-bit value; see _RungLookup).
            stats.buckets_probed += n_tables
            probe_cols = np.flatnonzero(present[i])
            ops.bucket_lookups += n_tables
            yield filter_compute

            budget = budget_per_rung
            collected: list[np.ndarray] = []
            if probe_cols.size:
                row_addresses = addresses[i]
                row_fps = fingerprints[i]
                # Step 1: hash-table slot reads, all in one async batch.
                slot_reads = [(int(row_addresses[li]), SLOT_SIZE) for li in probe_cols]
                stats.ios_issued += len(slot_reads)
                raw_slots = yield ReadBatch(slot_reads)
                heads = np.frombuffer(b"".join(raw_slots), dtype="<u8")
                # Step 2: first bucket block of every non-empty bucket.
                pending = [
                    (int(address), int(row_fps[li]))
                    for address, li in zip(heads, probe_cols)
                    if address != NULL_ADDRESS
                ]
                stats.nonempty_buckets += len(pending)
                while pending and budget > 0:
                    reads = [(address, block_size) for address, _ in pending]
                    stats.ios_issued += len(reads)
                    raw_blocks = yield ReadBatch(reads)
                    next_pending: list[tuple[int, int]] = []
                    for raw, (_, fp) in zip(raw_blocks, pending):
                        if budget <= 0:
                            break
                        block = decode_block(codec, raw)
                        matches = block.object_ids[block.fingerprints == fp]
                        take = min(int(matches.size), budget)
                        stats.bucket_sizes_examined.append(int(block.count))
                        stats.bucket_blocks_read += 1
                        if take > 0:
                            collected.append(matches[:take].astype(np.int64))
                            budget -= take
                        if block.has_next and budget > 0:
                            next_pending.append((block.next_address, fp))
                    pending = next_pending

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

            if pool_ids.size and int((pool_dists <= c * radius).sum()) >= stop_k:
                break

        # An empty pool sorts to an empty answer of the same dtypes.
        order = np.argsort(pool_dists, kind="stable")[:k]
        return _answer(pool_ids[order], pool_dists[order], stats, id_map)
