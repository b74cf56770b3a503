"""Discrete-event asynchronous I/O engine.

This module turns the paper's Figure 1 into an executable model.  Query
processing is written as cooperative *tasks* — Python generators that
yield actions:

- ``Compute(duration_ns)``: spend CPU time (hash values, distances),
- ``Read(address, length)``: asynchronously read bytes; the task is
  resumed with the data once the device completes,
- ``ReadBatch([...])``: issue several reads back-to-back (the paper
  issues requests for all L buckets of a query before switching to
  another query, Sec. 5.4); the task resumes with the list of results
  when the *last* read completes,
- ``Write(address, length)`` / ``WriteBatch([...])``: book device time
  for maintenance writes (delta-table merges rewriting bucket chains).
  Writes go through the same device volume as reads — compaction
  competes with queries for the same IOPS — but are counted separately
  (``write_count`` / ``write_bytes``), giving the query-vs-ingest I/O
  split and the SSD-endurance write volume of the paper's Sec. 7,
- ``Segment((...), (...))``: recorded ``Compute`` durations and the
  ``ReadBatch`` that ends them, booked alike with nothing read or sent back.

The engine multiplexes many tasks over one or more simulated CPU
workers.  While one task waits for the device, the worker runs another
ready task, so computation and I/O overlap exactly as in Figure 1(B) and
the asynchronous cost model of Eq. 7 — ``max(T_compute + N_io *
T_request, N_io * T_read)`` — *emerges* from the simulation instead of
being assumed.  Running with a synchronous interface reproduces
Figure 1(A) / Eq. 6: the worker blocks on every read.

Simulated time is nanoseconds.  Bytes are served from the block store;
timing is served by the (possibly striped) device volume.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Generator, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.storage.blockstore import BlockStore
from repro.storage.device import DeviceStats
from repro.storage.interface import StorageInterface
from repro.storage.raid import StripedVolume
from repro.utils.units import NS_PER_S

__all__ = [
    "Read",
    "ReadBatch",
    "Write",
    "WriteBatch",
    "Compute",
    "Segment",
    "Completion",
    "EngineResult",
    "EngineSession",
    "AsyncIOEngine",
    "Task",
    "TaskProfile",
]

#: A query task: a generator yielding actions and finally returning a result.
Task = Generator["Read | ReadBatch | Write | WriteBatch | Compute | Segment", Any, Any]


@dataclass(frozen=True, slots=True)
class Read:
    """Asynchronous read of ``length`` bytes at byte ``address``."""

    address: int
    length: int


@dataclass(frozen=True, slots=True)
class ReadBatch:
    """Several reads issued back-to-back; resumes when all complete."""

    requests: tuple[tuple[int, int], ...]

    def __init__(self, requests: Iterable[tuple[int, int]]) -> None:
        object.__setattr__(self, "requests", tuple(requests))


@dataclass(frozen=True, slots=True)
class Write:
    """Book device time for a ``length``-byte write at byte ``address``.

    Only timing and accounting: the block-store mutation itself is the
    caller's business (merge jobs mutate the store eagerly and use
    Write actions to charge the device for it).  The task resumes with
    ``None``.
    """

    address: int
    length: int


@dataclass(frozen=True, slots=True)
class WriteBatch:
    """Several writes issued back-to-back; resumes when all complete."""

    requests: tuple[tuple[int, int], ...]

    def __init__(self, requests: Iterable[tuple[int, int]]) -> None:
        object.__setattr__(self, "requests", tuple(requests))


@dataclass(frozen=True, slots=True)
class Compute:
    """Spend ``duration_ns`` of CPU time."""

    duration_ns: float


@dataclass(frozen=True, slots=True)
class Segment:
    """What a recorded task did between two I/O waits, as timing only: its
    ``Compute`` durations (kept apart: the engine's float sums take them one
    by one), then the read batch it waited on, if any.  Spans are checked
    here, so a replay holds only ``end``, their highest byte, against the store."""

    durations_ns: tuple[float, ...]
    requests: tuple[tuple[int, int], ...]
    end: int = field(init=False)

    def __post_init__(self) -> None:
        if any(address < 0 or length <= 0 for address, length in self.requests):
            raise ValueError(f"spans start at >= 0 and hold > 0 bytes, got {self.requests}")
        object.__setattr__(self, "end", max((a + n for a, n in self.requests), default=0))

    def expand(self) -> Iterator[Compute | ReadBatch]:
        """The plain actions this segment stands for, in order."""
        yield from map(Compute, self.durations_ns)
        if self.requests:
            yield ReadBatch(self.requests)


@dataclass
class EngineResult:
    """Aggregate outcome of one :meth:`AsyncIOEngine.run` call."""

    #: Simulated time when the last task finished.
    makespan_ns: float
    #: Return value of each task, in submission order.
    results: list[Any]
    #: Simulated finish time of each task, in submission order.
    finish_times_ns: list[float]
    #: Number of I/O requests issued.
    io_count: int
    #: CPU time spent in Compute actions (the paper's "Computation").
    compute_ns: float
    #: CPU time spent issuing I/O requests (the paper's "I/O Cost").
    io_cpu_ns: float
    #: CPU time spent blocked waiting for reads (synchronous mode only).
    stall_ns: float
    #: Merged per-device completion statistics.
    device_stats: DeviceStats = field(default_factory=DeviceStats)
    #: Number of CPU workers used.
    workers: int = 1
    #: Maintenance write requests issued (``io_count`` counts reads).
    write_count: int = 0
    #: Maintenance bytes written through Write/WriteBatch actions.
    write_bytes: int = 0

    @property
    def mean_task_time_ns(self) -> float:
        """Throughput-based average time per task (makespan / #tasks)."""
        return self.makespan_ns / len(self.results) if self.results else 0.0

    @property
    def tasks_per_second(self) -> float:
        """Task completion rate (the paper's "queries per second")."""
        if self.makespan_ns <= 0:
            return 0.0
        return len(self.results) * NS_PER_S / self.makespan_ns

    @property
    def observed_iops(self) -> float:
        """Device-side observed random-read throughput."""
        return self.device_stats.observed_iops()


@dataclass
class TaskProfile:
    """Per-task time attribution (only filled when the session profiles).

    ``io_wait_ns`` is the time the task itself spent off-CPU waiting for
    reads — the park-to-resume gap in asynchronous mode (which includes
    any wait for its worker to come free again) and the blocking stall
    in synchronous mode.  ``compute_ns`` is the task's own Compute time
    (hashing, distances); ``io_cpu_ns`` the CPU cost of issuing its
    requests.  ``start_ns`` is the first time the task ran, so
    ``finish - start == compute + io_cpu + io_wait`` exactly.
    """

    start_ns: float = math.nan
    compute_ns: float = 0.0
    io_cpu_ns: float = 0.0
    io_wait_ns: float = 0.0
    io_count: int = 0
    #: Internal: simulated time of the current park (None while running).
    parked_ns: float | None = None


@dataclass(frozen=True, slots=True)
class Completion:
    """One finished task, as reported by :meth:`EngineSession.step`."""

    #: Submission index within the session.
    index: int
    #: Caller-supplied routing key (e.g. a query id for scatter-gather).
    tag: Any
    #: The task's return value.
    result: Any
    #: Simulated time the task finished.
    finish_ns: float
    #: Per-task attribution when the session was opened with
    #: ``profile_tasks=True``; ``None`` otherwise.
    profile: TaskProfile | None = None


@dataclass(slots=True)
class _TaskState:
    index: int
    generator: Task
    worker: int
    tag: Any = None
    send_value: Any = None


@dataclass(slots=True)
class _Wave:
    """A micro-batch of tasks sharing one ready time and one heap entry.

    :meth:`EngineSession.submit_batch` keys the ready heap once per wave
    instead of once per task; :meth:`EngineSession.step` consumes the
    members in submission order before popping the entry.  Because every
    member shares the wave's (ready time, sequence number), the pop
    order is exactly what per-task submission would have produced — the
    wave changes bookkeeping cost, never schedule order.
    """

    states: list[_TaskState]
    cursor: int = 0


class EngineSession:
    """Incremental task execution over one engine.

    A session holds the ready queue, worker availability, and counters of
    one engine run, but lets the caller *submit tasks while the run is in
    progress*: a query service feeds arrivals into the engine at their
    simulated arrival times instead of all at time zero, and steps the
    simulation one task resumption at a time so completions can trigger
    new arrivals (closed-loop load).  :meth:`AsyncIOEngine.run` is the
    batch special case — submit everything at t=0, then :meth:`drain`.
    """

    def __init__(
        self, engine: "AsyncIOEngine", workers: int = 1, profile_tasks: bool = False
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.engine = engine
        self.workers = workers
        engine.volume.reset()
        self._ready: list[tuple[float, int, _TaskState | _Wave]] = []
        self._seq = 0
        self._worker_free = [0.0] * workers
        self._results: list[Any] = []
        self._finish_times: list[float] = []
        self.io_count = 0
        self.write_count = 0
        self.write_bytes = 0
        self.compute_ns = 0.0
        self.io_cpu_ns = 0.0
        self.stall_ns = 0.0
        #: Per-task attribution, keyed by submission index.  ``None``
        #: (the default) keeps the hot path free of bookkeeping; the
        #: tracer-enabled service turns it on.
        self._profiles: dict[int, TaskProfile] | None = {} if profile_tasks else None

    # -- submission -----------------------------------------------------------

    def submit(self, task: Task, ready_ns: float = 0.0, tag: Any = None) -> int:
        """Enqueue ``task`` to start no earlier than ``ready_ns``.

        Returns the task's submission index (its slot in the session's
        result order).  Workers are assigned round-robin by submission
        index, matching the batch :meth:`AsyncIOEngine.run` semantics.
        """
        if ready_ns < 0:
            raise ValueError(f"ready_ns must be non-negative, got {ready_ns}")
        index = len(self._results)
        state = _TaskState(index=index, generator=task, worker=index % self.workers, tag=tag)
        self._results.append(None)
        self._finish_times.append(0.0)
        if self._profiles is not None:
            self._profiles[index] = TaskProfile()
        heapq.heappush(self._ready, (ready_ns, self._seq, state))
        self._seq += 1
        return index

    def submit_batch(
        self,
        tasks: Sequence[Task],
        ready_ns: float = 0.0,
        tags: Sequence[Any] | None = None,
    ) -> list[int]:
        """Enqueue a wave of tasks sharing one ready time.

        Equivalent to calling :meth:`submit` once per task in order, but
        the whole wave costs one heap entry and the per-task result
        slots are extended in bulk — the fast path the dispatcher's
        micro-batch flush uses.  Returns the submission indices.
        """
        if ready_ns < 0:
            raise ValueError(f"ready_ns must be non-negative, got {ready_ns}")
        tasks = list(tasks)
        if tags is None:
            tags = [None] * len(tasks)
        elif len(tags) != len(tasks):
            raise ValueError(f"{len(tasks)} tasks need {len(tasks)} tags, got {len(tags)}")
        if not tasks:
            return []
        base = len(self._results)
        workers = self.workers
        states = [
            _TaskState(
                index=base + offset,
                generator=task,
                worker=(base + offset) % workers,
                tag=tag,
            )
            for offset, (task, tag) in enumerate(zip(tasks, tags))
        ]
        self._results.extend([None] * len(tasks))
        self._finish_times.extend([0.0] * len(tasks))
        if self._profiles is not None:
            for state in states:
                self._profiles[state.index] = TaskProfile()
        heapq.heappush(self._ready, (ready_ns, self._seq, _Wave(states)))
        self._seq += 1
        return [state.index for state in states]

    # -- stepping -------------------------------------------------------------

    @property
    def has_work(self) -> bool:
        """True while any submitted task has not run to completion."""
        return bool(self._ready)

    @property
    def next_ready_ns(self) -> float:
        """Earliest time a queued task may resume (``inf`` when idle)."""
        return self._ready[0][0] if self._ready else math.inf

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

            is_write = replayed = False
            if isinstance(action, Segment):
                # Spans first (read_many names the offender), then the clock.
                requests: tuple[tuple[int, int], ...] = action.requests
                if action.end > engine.store.size_bytes:
                    engine.store.read_many(requests)
                compute_ns = self.compute_ns
                for duration_ns in action.durations_ns:
                    compute_ns += duration_ns
                    now += duration_ns
                    if profile is not None:
                        profile.compute_ns += duration_ns
                self.compute_ns = compute_ns
                if not requests:
                    continue
                replayed = True
            elif isinstance(action, Read):
                requests = ((action.address, action.length),)
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

            # Issue the batch: per request CPU overhead, then device
            # booking.  Writes book the same device time as reads
            # (compaction and queries compete for one IOPS budget) but
            # are tallied on their own counters and carry no store
            # payload back.  Spans are checked and bytes read, then
            # lengths checked, before any device, clock or counter
            # moves: a bad batch books nothing.
            overhead_ns = interface.cpu_overhead_ns
            payload: Any = None if is_write or replayed else engine.store.read_many(requests)
            now, self.io_cpu_ns, done_ns = engine.volume.submit_batch(
                now, self.io_cpu_ns, overhead_ns, requests
            )
            if is_write:
                self.write_count += len(requests)
                self.write_bytes += sum(length for _, length in requests)
            else:
                self.io_count += len(requests)
                if isinstance(action, Read):
                    payload = payload[0]
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

    def run_until(self, until_ns: float) -> list[Completion]:
        """Step every task that may resume at or before ``until_ns``."""
        done: list[Completion] = []
        while self._ready and self._ready[0][0] <= until_ns:
            completion = self.step()
            if completion is not None:
                done.append(completion)
        return done

    def drain(self) -> list[Completion]:
        """Run every remaining task to completion."""
        return self.run_until(math.inf)

    # -- results --------------------------------------------------------------

    def result(self) -> EngineResult:
        """Aggregate statistics over everything the session has run."""
        makespan = max(self._finish_times) if self._finish_times else 0.0
        return EngineResult(
            makespan_ns=makespan,
            results=list(self._results),
            finish_times_ns=list(self._finish_times),
            io_count=self.io_count,
            compute_ns=self.compute_ns,
            io_cpu_ns=self.io_cpu_ns,
            stall_ns=self.stall_ns,
            device_stats=self.engine.volume.combined_stats(),
            workers=self.workers,
            write_count=self.write_count,
            write_bytes=self.write_bytes,
        )


class AsyncIOEngine:
    """Runs cooperative tasks over simulated CPU workers and a device volume."""

    def __init__(
        self,
        volume: StripedVolume,
        interface: StorageInterface,
        store: BlockStore,
    ) -> None:
        self.volume = volume
        self.interface = interface
        self.store = store

    def session(self, workers: int = 1, profile_tasks: bool = False) -> EngineSession:
        """Open an incremental execution session (resets the volume)."""
        return EngineSession(self, workers=workers, profile_tasks=profile_tasks)

    def run(self, tasks: Sequence[Task], workers: int = 1) -> EngineResult:
        """Execute ``tasks`` to completion and return aggregate statistics.

        Tasks are assigned to workers round-robin (queries are
        independent, as in the paper's multithreaded evaluation,
        Sec. 6.5 / Figure 16).  Device bookings are shared across
        workers, so storage saturation limits all of them collectively.
        """
        session = self.session(workers=workers)
        session.submit_batch(tasks)
        session.drain()
        return session.result()
