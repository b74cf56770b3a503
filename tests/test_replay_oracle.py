"""Differential oracle: replayed query tasks against the live body.

Which slots and blocks a query reads, which candidates it scores and
where its rung descent stops is a pure function of (query bytes, k,
stop_k, store contents), so ``E2LSHoSIndex`` records that data plane the
first time a query recurs and replays it afterwards; only the timing
plane — what the engine books for the yielded actions — is run again.
The production tree has no switch for this.  The live-only references
are here, test-side:

- ``never_replay``: a recording never completes, so every task is the
  live ``_run_query`` on the memo's plan rows — exactly what the tree
  did before replay existed, in-flight tasks under maintenance included;
- ``always_invalidate``: a cold memo before every wave, for the catalog.

Everything compared must be *equal*: completion order and times, ids,
distance bits, every ``QueryStats`` / ``OpCounts`` field, every engine
counter, and (catalog) report, trace and answers byte for byte.  Every
case also asserts on ``query_cache_info()`` so none passes vacuously.

A replay yields its trace one ``Segment`` per I/O wait; the spy notes a
segment as the plain actions it stands for, so "yielded actions" still
compare one for one with the live body's, and keeps where each
resumption ended beside them.

A wave of ``_TRACE_MIN_WAVE`` fresh rows or more gets its trace at plan
time (``_trace_rows``), so its rows are replays from first sight; the
streams here plan waves of 1-6 rows and stay below it unless a case patches
the constant (``tests/test_query_oracle.py`` holds the tracer to the live
body action for action).
"""

import copy
import dataclasses
import functools
import json
import sys
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_query_oracle import engine_state
from test_serving_vectorized import run_traced, trace_dump

import repro.core.e2lshos as e2lshos
from repro.core.e2lshos import E2LSHoSIndex
from repro.core.params import E2LSHParams
from repro.core.updates import IndexUpdater
from repro.obs.trace import SpanTracer
from repro.serving.catalog import build_scenario
from repro.serving.scenario import run_scenario
from repro.storage.blockstore import MemoryBlockStore
from repro.storage.engine import Compute, ReadBatch, Segment
from repro.storage.page_cache import PageCache
from repro.storage.profiles import INTERFACE_PROFILES, make_engine, make_volume

N, D, POOL = 900, 12, 6
#: (k, stop_k, answers through an id_map?) — the two task shapes mixed in a stream.
VARIANTS = ((2, None, False), (5, 2, True))
#: local id -> reported id, presized past every insert a case makes.
ID_MAP = 5000 - np.arange(N + 64, dtype=np.int64)
GAP_NS = 25_000.0


# -- the references ---------------------------------------------------------------


@contextmanager
def never_replay():
    """Live-only: ``_Memo.answer`` stays ``None``, so no trace is ever replayed."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(e2lshos._Memo, "answer", property(lambda memo: None, lambda memo, _: None))
        yield


@contextmanager
def always_invalidate():
    """Live-only: every wave is planned on a cold memo."""
    real = E2LSHoSIndex.query_tasks

    def query_tasks(index, queries, **kwargs):
        index.invalidate_query_caches()
        return real(index, queries, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(E2LSHoSIndex, "query_tasks", query_tasks)
        yield


# -- one engine session driven step by step -----------------------------------------


@functools.cache
def base():
    """(data, query pool, built index); cases work on deep copies of the index.

    The last pool query is built to finish on a read: three near-identical
    objects sit alone in a far corner, and the query lies 1.5c away from
    them along a direction table 0 cannot see, so it shares their table-0
    bucket at every rung.  It meets them at R=1, too far to stop, and at
    R=c reads the same bucket again, finds nothing new, and stops — its
    trace ends with a ``ReadBatch``, never a scoring ``Compute``.
    """
    rng = np.random.default_rng(5)
    centers = rng.normal(scale=4.0, size=(10, D))
    data = (centers[rng.integers(0, 10, N)] + rng.normal(scale=0.5, size=(N, D))).astype(
        np.float32
    )
    corner = np.full(D, 14.0)
    data[-3:] = corner + rng.normal(scale=1e-4, size=(3, D))
    params = E2LSHParams(n=N, rho=0.35, gamma=0.7, s_factor=8)
    index = E2LSHoSIndex.build(data, params, store=MemoryBlockStore(), seed=3)
    assert params.m < D, "table 0 must leave a direction unseen"
    unseen = np.linalg.svd(index.built.bank.a[:, : params.m].T.astype(np.float64))[2][-1]
    pool = data[rng.integers(0, N - 3, POOL)] + rng.normal(scale=0.05, size=(POOL, D))
    pool[-1] = corner + 1.5 * params.c * unseen
    return data, pool.astype(np.float32), index


def fresh_index():
    return copy.deepcopy(base()[2])


def spy(task, seen, resumed):
    """Pass ``task`` through, noting every action it yields in ``seen`` — a
    ``Segment`` as its plain actions — and in ``resumed`` how many actions
    it had yielded each time it gave up control."""
    value = None
    while True:
        try:
            action = task.send(value)
        except StopIteration as stop:
            return stop.value
        seen.extend(action.expand() if isinstance(action, Segment) else [action])
        resumed.append(len(seen))
        value = yield action


def mutate(index, updater, mutation):
    """Maintenance aimed at pool query ``row``: insert a copy of it (its own
    buckets change at every rung; ``row=None`` copies the whole pool) or
    delete its current nearest neighbour."""
    kind, row = mutation
    pool = base()[1]
    if kind == "insert":
        updater.insert_batch(pool if row is None else pool[row : row + 1])
        return
    alive = np.array([i not in updater.deleted_ids for i in range(index.data.shape[0])])
    distances = np.linalg.norm(index.data.astype(np.float64) - pool[row], axis=1)
    updater.delete(int(np.flatnonzero(alive)[np.argmin(distances[alive])]))


@dataclasses.dataclass
class Drive:
    """What one driven stream produced, and how it got there."""

    completions: list = dataclasses.field(default_factory=list)
    engine: dict = dataclasses.field(default_factory=dict)
    info: dict = dataclasses.field(default_factory=dict)
    #: Per task, in submission order: (pool row, created as a replay?).
    tasks: list = dataclasses.field(default_factory=list)
    #: Per task: every action it yielded, segments as their plain actions.
    yielded: list = dataclasses.field(default_factory=list)
    #: Per task: ``len(yielded)`` after each of its resumptions.
    resumed: list = dataclasses.field(default_factory=list)
    #: After each step: (actions yielded so far per task created so far,
    #: indices of the tasks that have finished).
    progress: list = dataclasses.field(default_factory=list)


def drive(index, stream, mutations=None, interface="io_uring", profile_tasks=False):
    """Run ``stream`` — waves of ``(ready_ns, pool rows, variant)`` — on one
    session, planning each wave when it falls due and resuming one task per
    ``step()``; ``mutations`` maps a step count to the maintenance applied
    right after that step."""
    pool = base()[1]
    engine = make_engine(index.built.store, interface=interface)
    session = engine.session(workers=2, profile_tasks=profile_tasks)
    updater = IndexUpdater(index)
    waves = sorted(stream, key=lambda wave: wave[0])
    out = Drive()
    finished = set()
    while waves or session.has_work:
        if waves and waves[0][0] <= session.next_ready_ns:
            ready_ns, rows, variant = waves.pop(0)
            k, stop_k, mapped = VARIANTS[variant]
            tasks = index.query_tasks(
                pool[list(rows)], k=k, stop_k=stop_k, id_map=ID_MAP if mapped else None
            )
            spies = []
            for row, task in zip(rows, tasks):
                out.tasks.append((row, task.__name__ == "_replay"))
                out.yielded.append([])
                out.resumed.append([])
                spies.append(spy(task, out.yielded[-1], out.resumed[-1]))
            session.submit_batch(spies, ready_ns=ready_ns, tags=[(variant, row) for row in rows])
            continue
        done = session.step()
        if done is not None:
            finished.add(done.index)
            answer = done.result
            out.completions.append(
                (
                    done.index,
                    done.tag,
                    done.finish_ns,
                    str(answer.ids.dtype),
                    answer.ids.tolist(),
                    answer.distances.tobytes(),
                    dataclasses.asdict(answer.stats),
                    done.profile and dataclasses.asdict(done.profile),
                )
            )
        out.progress.append(([len(seen) for seen in out.yielded], frozenset(finished)))
        for mutation in (mutations or {}).get(len(out.progress), ()):
            mutate(index, updater, mutation)
    result = session.result()
    out.engine = {
        field.name: getattr(result, field.name)
        for field in dataclasses.fields(result)
        if field.name not in ("results", "device_stats")
    }
    out.engine["device_stats"] = dataclasses.asdict(result.device_stats)
    out.info = index.query_cache_info()
    return out


def assert_same_run(got, want):
    assert len(got.completions) == len(want.completions) == len(got.tasks)
    for mine, theirs in zip(got.completions, want.completions):
        assert mine == theirs
    assert got.engine == want.engine
    assert got.yielded == want.yielded
    # The reference really is live-only, and every task is accounted for.
    assert want.info["traced"] == want.info["replayed"] == want.info["converted"] == 0
    created = sum(got.info[how] for how in ("live", "recorded", "traced", "replayed"))
    assert created == len(got.tasks)
    assert got.info["traced"] + got.info["replayed"] == sum(replay for _, replay in got.tasks)


def seeded_stream(seed, n_waves=18):
    rng = np.random.default_rng(seed)
    ready = np.cumsum(rng.integers(0, 24, n_waves)) * GAP_NS
    return [
        (
            float(ready[w]),
            tuple(rng.integers(0, POOL, rng.integers(1, 5)).tolist()),
            int(rng.integers(0, len(VARIANTS))),
        )
        for w in range(n_waves)
    ]


waves = st.tuples(
    st.integers(0, 24),
    st.lists(st.integers(0, POOL - 1), min_size=1, max_size=4).map(tuple),
    st.integers(0, len(VARIANTS) - 1),
)


@st.composite
def streams(draw, min_waves=1):
    ready, stream = 0.0, []
    for gap, rows, variant in draw(st.lists(waves, min_size=min_waves, max_size=14)):
        ready += gap * GAP_NS
        stream.append((ready, rows, variant))
    return stream


# -- (1) recurrence on an unchanged store -------------------------------------------


def test_seeded_streams_replay_bit_identically():
    for seed in (1, 2, 3):
        stream = seeded_stream(seed)
        got = drive(fresh_index(), stream)
        with never_replay():
            want = drive(fresh_index(), stream)
        assert_same_run(got, want)
        assert got.info["recorded"] >= 4 and got.info["replayed"] >= 10, got.info
        assert got.info["converted"] == 0
        # A replay gives up control once per I/O wait and once more for the
        # scoring after its last one; the live body once per action.
        for (_, replay), actions, resumed in zip(got.tasks, got.yielded, got.resumed):
            waits = [at for at, action in enumerate(actions, 1) if isinstance(action, ReadBatch)]
            if replay and isinstance(actions[-1], Compute):
                waits.append(len(actions))
            assert resumed == (waits if replay else list(range(1, len(actions) + 1)))


@pytest.mark.parametrize(
    "interface, profile_tasks", [("mmap_sync", False), ("io_uring", True), ("mmap_sync", True)]
)
def test_replay_equals_live_on_a_blocking_interface_and_with_task_profiles(
    interface, profile_tasks
):
    """A segment's durations, requests and wait land in ``stall_ns`` and in
    the task's profile one by one, as the live body's actions do."""
    stream = seeded_stream(2)
    got = drive(fresh_index(), stream, interface=interface, profile_tasks=profile_tasks)
    with never_replay():
        want = drive(fresh_index(), stream, interface=interface, profile_tasks=profile_tasks)
    assert_same_run(got, want)  # completions carry every profile field
    assert got.info["replayed"] >= 10, got.info
    assert (got.engine["stall_ns"] > 0) == (interface == "mmap_sync")
    for _, _, finish_ns, *_, profile in got.completions:
        assert (profile is not None) == profile_tasks
        if profile_tasks:
            accounted = profile["compute_ns"] + profile["io_cpu_ns"] + profile["io_wait_ns"]
            assert finish_ns - profile["start_ns"] == pytest.approx(accounted, rel=1e-12)
            assert profile["io_count"] > 0 and profile["parked_ns"] is None


@settings(max_examples=25, deadline=None)
@given(stream=streams())
def test_streams_replay_bit_identically(stream):
    got = drive(fresh_index(), stream)
    with never_replay():
        want = drive(fresh_index(), stream)
    assert_same_run(got, want)
    # A cold memo before every wave is the same live-only run.
    with always_invalidate():
        cold = drive(fresh_index(), stream)
    assert cold.completions == want.completions and cold.engine == want.engine


# -- (2) maintenance while replays are in flight --------------------------------------


def parked_replay(dry, state):
    """(step, task): after ``step`` steps of the dry run, replay ``task`` is
    ``"unstarted"`` (created, never resumed), ``"after-last"`` (parked on
    the batch of its last segment: the trace ends there) or ``"mid-trace"``
    — parked on a segment's batch, whose payload the engine never read,
    with segments both behind it, whose payloads a fast-forward must
    supply as well, and ahead of it, which will see the store as it then
    is."""
    for step, (counts, finished) in enumerate(dry.progress, start=1):
        for task, count in enumerate(counts):
            if not dry.tasks[task][1] or task in finished:
                continue
            waits = [isinstance(action, ReadBatch) for action in dry.yielded[task]]
            # A replay parks nowhere but on the batch that ends a segment.
            assert count == 0 or (waits[count - 1] and count in dry.resumed[task])
            if count == 0:
                found = "unstarted"
            elif count == len(waits):
                found = "after-last"
            elif any(waits[: count - 1]) and any(waits[count:]):
                found = "mid-trace"
            else:
                continue
            if found == state:
                return step, task
    raise AssertionError(f"no replay is ever parked {state} in this stream")


@pytest.mark.parametrize("state", ["unstarted", "mid-trace", "after-last"])
def test_a_parked_replay_becomes_the_live_body(state):
    """Maintenance aimed at a replay's own query, while it is parked."""
    stream = seeded_stream(4, n_waves=24)
    dry = drive(fresh_index(), stream)
    step, task = parked_replay(dry, state)
    row = dry.tasks[task][0]
    mutations = {step: [("insert", row)]}
    got = drive(fresh_index(), stream, mutations)
    with never_replay():
        want = drive(fresh_index(), stream, mutations)
    assert_same_run(got, want)
    assert got.info["converted"] >= 1, got.info
    # Had the replay gone on, it would have returned what the dry run
    # did.  A task that was only waiting for its last payload has seen
    # everything it will see; the others must notice the maintenance.
    before = next(c for c in dry.completions if c[0] == task)
    after = next(c for c in got.completions if c[0] == task)
    assert (before[4:7] == after[4:7]) == (state == "after-last")


@pytest.mark.parametrize("state", ["unstarted", "mid-trace", "after-last"])
def test_a_parked_traced_row_becomes_the_live_body(state, monkeypatch):
    """The same for rows traced at plan time: one wave, every row at first
    sight, so each task is the replay of a trace no live body ever yielded."""
    monkeypatch.setattr(e2lshos, "_TRACE_MIN_WAVE", POOL)
    stream = [(0.0, tuple(range(POOL)), 1)]
    dry = drive(fresh_index(), stream)
    assert dry.info == {"live": 0, "recorded": 0, "traced": POOL, "replayed": 0, "converted": 0}
    step, task = parked_replay(dry, state)
    mutations = {step: [("insert", dry.tasks[task][0])]}
    got = drive(fresh_index(), stream, mutations)
    with never_replay():  # traced, but the trace is never taken up
        want = drive(fresh_index(), stream, mutations)
    assert_same_run(got, want)
    assert got.info["traced"] == POOL and 1 <= got.info["converted"] <= POOL, got.info
    before = next(c for c in dry.completions if c[0] == task)
    after = next(c for c in got.completions if c[0] == task)
    assert (before[4:7] == after[4:7]) == (state == "after-last")


def test_every_task_created_is_counted_once(monkeypatch):
    """Waves below and above the line, first sights, duplicates inside a
    traced wave and recurrences of traced and of live rows."""
    monkeypatch.setattr(e2lshos, "_TRACE_MIN_WAVE", 3)
    stream = [
        (0.0, (0, 1), 0),  # two first sights, below the line: live
        (1e7, (0, 1, 2, 3, 4, 2, 4, 4), 0),  # 3 fresh rows: traced; 0, 1 recorded; 3 duplicates
        (2e7, (5, 0, 2), 0),  # one fresh row: live; 0 and 2 replayed
        (3e7, (0, 2, 5), 1),  # another (k, stop_k): three fresh rows, traced
    ]
    got = drive(fresh_index(), stream)
    assert got.info == {"live": 3, "recorded": 2, "traced": 6, "replayed": 5, "converted": 0}
    assert sum(got.info.values()) == len(got.tasks) == 16
    with never_replay():
        want = drive(fresh_index(), stream)
    assert_same_run(got, want)


#: (when, as a fraction of the undisturbed run's steps; what) — an insert
#: copies the whole pool, so it lands in the buckets of whichever replays
#: are in flight.
maintenance = st.lists(
    st.tuples(
        st.floats(0.0, 1.0),
        st.just(("insert", None)) | st.tuples(st.just("delete"), st.integers(0, POOL - 1)),
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=25, deadline=None)
@given(stream=streams(min_waves=6), schedule=maintenance)
def test_streams_under_maintenance_equal_the_live_run(stream, schedule):
    steps = len(drive(fresh_index(), stream).progress)
    mutations = {}
    for when, mutation in schedule:
        mutations.setdefault(1 + int(when * (steps - 1)), []).append(mutation)
    got = drive(fresh_index(), stream, mutations)
    with never_replay():
        want = drive(fresh_index(), stream, mutations)
    assert_same_run(got, want)


def test_the_hook_must_come_before_the_write(monkeypatch):
    """Fast-forwarding over a store that already changed is refused."""
    stream = seeded_stream(4, n_waves=24)
    dry = drive(fresh_index(), stream)
    step, task = parked_replay(dry, "mid-trace")
    real = IndexUpdater.insert_batch

    def write_then_announce(updater, vectors):
        with monkeypatch.context() as patch:
            patch.setattr(E2LSHoSIndex, "invalidate_query_caches", lambda index: None)
            ids = real(updater, vectors)
        updater.index.invalidate_query_caches()
        return ids

    monkeypatch.setattr(IndexUpdater, "insert_batch", write_then_announce)
    with pytest.raises(RuntimeError, match="before its query caches were invalidated"):
        drive(fresh_index(), stream, {step: [("insert", dry.tasks[task][0])]})


def test_a_replay_converted_on_its_last_batch_returns_the_live_answer():
    """The engine reads nothing for a replayed batch, so the payload of the
    one a replay is parked on comes from the conversion — here the batch the
    corner query's trace ends with, the only thing its live body still needs."""
    corner = POOL - 1
    stream = [(wave * 1e7, (corner,), 1) for wave in range(3)]  # first sight, recorded, replayed
    dry = drive(fresh_index(), stream)
    assert dry.tasks == [(corner, False), (corner, False), (corner, True)]
    assert isinstance(dry.yielded[2][-1], ReadBatch)
    step, task = parked_replay(dry, "after-last")
    mutations = {step: [("insert", corner)]}
    got = drive(fresh_index(), stream, mutations)
    with never_replay():
        want = drive(fresh_index(), stream, mutations)
    assert_same_run(got, want)
    assert task == 2 and got.info["converted"] == 1, got.info
    assert got.completions[2][4:7] == dry.completions[2][4:7]  # it had read everything already


# -- (3) a segment the store cannot serve ----------------------------------------------


def task_of(*actions):
    for action in actions:
        yield action


def booked(session):
    """Devices' statistics and rings, every engine counter, the workers' clocks."""
    return engine_state(session), session._worker_free[:]


def settled_session(store):
    """A session that has run one good batch, and its makespan."""
    session = make_engine(store, count=2).session(profile_tasks=True)
    session.submit(task_of(Compute(100.0), ReadBatch([(0, 512), (512, 512)])))
    session.drain()
    return session, session.result().makespan_ns


def test_a_segment_past_the_store_books_nothing_and_names_the_request():
    store = MemoryBlockStore()
    store.allocate(4096)
    session, makespan_ns = settled_session(store)
    before = booked(session)
    segment = Segment((100.0, 50.0), ((0, 512), (8192, 512), (512, 512)))
    assert segment.end == 8704
    session.submit(task_of(segment), ready_ns=makespan_ns)
    with pytest.raises(ValueError, match=r"request 1 of the batch: span \[8192, 8704\) outside"):
        session.drain()
    # Not even its durations ran: clock, counters, DeviceStats and rings are untouched.
    assert booked(session) == before
    # Store and session are as usable as before; a segment that fits is booked.
    assert store.allocate(512) == 4096
    session.submit(task_of(Segment((100.0, 50.0), ((0, 512), (4096, 512)))))
    session.drain()
    assert session.io_count == 4 and session.compute_ns == 250.0
    # What no store could serve is refused when the segment is made.
    for bad in (((0, 0),), ((0, 512), (-8, 16)), ((512, -512),)):
        with pytest.raises(ValueError, match="spans start at >= 0 and hold > 0 bytes, got"):
            Segment((1.0,), bad)


def test_a_trace_is_not_booked_on_an_engine_over_a_smaller_store():
    index = fresh_index()
    for _ in range(2):  # first sight, recorded
        run_once(index, 0, mapped=False)
    replay = index.query_task(base()[1][0], k=3)
    assert replay.__name__ == "_replay"
    small = MemoryBlockStore()
    small.allocate(1024)
    assert small.size_bytes < index.built.store.size_bytes
    session, makespan_ns = settled_session(small)
    before = booked(session)
    session.submit(replay, ready_ns=makespan_ns)
    with pytest.raises(ValueError, match=r"request \d+ of the batch: span .* region of 1024 bytes"):
        session.drain()
    assert booked(session) == before


# -- (4) the serving catalog ----------------------------------------------------------


@pytest.mark.parametrize("name", ["steady-state", "steady-ingest", "compaction-stall-storm"])
def test_catalog_scenarios_equal_the_live_only_runs(name):
    result, tracer = run_traced(name)
    info = [shard.index.query_cache_info() for shard in result.index.sharded.shards]
    assert sum(shard["replayed"] for shard in info) >= 10, info
    if name != "steady-state":
        assert sum(shard["converted"] for shard in info) >= 1, info
    for reference in (never_replay, always_invalidate):
        with reference():
            other, other_tracer = run_traced(name)
        info = [shard.index.query_cache_info() for shard in other.index.sharded.shards]
        assert sum(shard["replayed"] for shard in info) == 0
        assert json.dumps(dataclasses.asdict(result.report), sort_keys=True) == json.dumps(
            dataclasses.asdict(other.report), sort_keys=True
        )
        assert trace_dump(tracer) == trace_dump(other_tracer)
        assert result.answers.keys() == other.answers.keys()
        for qid, answer in result.answers.items():
            assert answer.ids.tolist() == other.answers[qid].ids.tolist()
            assert answer.distances.tobytes() == other.answers[qid].distances.tobytes()
            assert answer.stats == other.answers[qid].stats


def test_a_serving_run_with_traced_waves_under_ingest_equals_the_untraced_run(monkeypatch):
    """Lanes that flush ``_TRACE_MIN_WAVE`` rows and more beside inserts,
    deletes and merges: traced rows are in flight at every invalidation.
    (Open loop: the scenario format has no ingest mix for a closed one.)"""
    base = build_scenario("steady-ingest", quick=True)
    spec = dataclasses.replace(
        base,
        data=dataclasses.replace(base.data, pool_queries=96),
        serving=dataclasses.replace(base.serving, max_batch=32, batch_delay_us=1000.0),
        workload=dataclasses.replace(
            base.workload, requests=96, qps=80_000.0, zipf_s=0.0,
            ingest_requests=48, ingest_qps=20_000.0,
        ),
    )
    assert spec.serving.max_batch >= e2lshos._TRACE_MIN_WAVE

    def run():
        tracer = SpanTracer()
        result = run_scenario(spec, tracer=tracer, metrics_interval_ns=50_000.0)
        info = [shard.index.query_cache_info() for shard in result.index.sharded.shards]
        return result, tracer, {how: sum(shard[how] for shard in info) for how in info[0]}

    result, tracer, info = run()
    # Every conversion was of a traced row: nothing recurred often enough to replay.
    assert info["traced"] > 200 and info["converted"] > 10 and info["replayed"] == 0, info
    monkeypatch.setattr(e2lshos, "_TRACE_MIN_WAVE", sys.maxsize)
    other, other_tracer, other_info = run()
    assert other_info["traced"] == other_info["converted"] == 0
    assert sum(info.values()) - info["converted"] == sum(other_info.values())
    assert json.dumps(dataclasses.asdict(result.report), sort_keys=True) == json.dumps(
        dataclasses.asdict(other.report), sort_keys=True
    )
    assert trace_dump(tracer) == trace_dump(other_tracer)
    assert result.service.timeline.samples == other.service.timeline.samples
    assert result.answers.keys() == other.answers.keys()
    for qid, answer in result.answers.items():
        assert answer.ids.tolist() == other.answers[qid].ids.tolist()
        assert answer.distances.tobytes() == other.answers[qid].distances.tobytes()
        assert answer.stats == other.answers[qid].stats


# -- (5) the blocking page-cache walk ---------------------------------------------------


def test_mmap_sync_runs_are_identical():
    pool = base()[1]
    index = fresh_index()
    runs = []
    for _ in range(3):  # first sight, recorded, replayed
        cache = PageCache(
            volume=make_volume("cssd", 1),
            store=index.built.store,
            interface=INTERFACE_PROFILES["mmap_sync"],
            capacity_bytes=1 << 16,
        )
        runs.append(index.run(pool, mode="mmap_sync", cache=cache, k=3))
    assert index.query_cache_info() == {
        "live": POOL, "recorded": POOL, "traced": 0, "replayed": POOL, "converted": 0,
    }
    first = runs[0]
    for other in runs[1:]:
        for mine, theirs in zip(first.answers, other.answers, strict=True):
            assert mine.ids.tolist() == theirs.ids.tolist()
            assert mine.distances.tobytes() == theirs.distances.tobytes()
            assert mine.stats == theirs.stats
        for field in dataclasses.fields(first.engine):
            if field.name != "results":
                assert getattr(first.engine, field.name) == getattr(other.engine, field.name)


def test_mmap_sync_over_a_traced_wave_shows_the_page_cache_every_request(monkeypatch):
    pool = base()[1]
    runs = []
    for min_wave in (sys.maxsize, POOL):
        monkeypatch.setattr(e2lshos, "_TRACE_MIN_WAVE", min_wave)
        index = fresh_index()
        cache = PageCache(
            volume=make_volume("cssd", 1),
            store=index.built.store,
            interface=INTERFACE_PROFILES["mmap_sync"],
            capacity_bytes=1 << 16,
        )
        batch = index.run(pool, mode="mmap_sync", cache=cache, k=3)
        assert index.query_cache_info()["traced"] == (POOL if min_wave == POOL else 0)
        runs.append((batch, cache.stats))
    (live, live_cache), (traced, traced_cache) = runs
    # Every request touched at least its one page, hit or miss.
    assert live_cache == traced_cache and traced_cache.accesses >= traced.engine.io_count > 0
    assert traced.engine.io_count == sum(answer.stats.ios_issued for answer in traced.answers)
    for mine, theirs in zip(live.answers, traced.answers, strict=True):
        assert mine.ids.tolist() == theirs.ids.tolist()
        assert mine.distances.tobytes() == theirs.distances.tobytes()
        assert mine.stats == theirs.stats
    for field in dataclasses.fields(live.engine):
        if field.name != "results":
            assert getattr(live.engine, field.name) == getattr(traced.engine, field.name)


# -- (6) what a replay shares with the memo ---------------------------------------------


def run_once(index, row, mapped):
    pool = base()[1]
    task = index.query_task(pool[row], k=3, id_map=ID_MAP if mapped else None)
    return make_engine(index.built.store).run([task]).results[0]


@pytest.mark.parametrize("mapped", [False, True])
def test_callers_cannot_poison_the_memo(mapped):
    index = fresh_index()
    first, recorded, replayed = (run_once(index, 0, mapped) for _ in range(3))
    assert index.query_cache_info()["replayed"] == 1
    for answer in (recorded, replayed):
        # Arrays shared with the memo refuse writes; mapped ids are the
        # caller's own copy.
        assert not answer.distances.flags.writeable
        assert answer.ids.flags.writeable == mapped
        with pytest.raises(ValueError, match="read-only"):
            answer.distances[0] = -1.0
        # Statistics are the caller's own: scribbling on them (as
        # ``merge_answers`` and the harness do) reaches nobody else.
        assert answer.stats == first.stats
        answer.stats.ios_issued = -1
        answer.stats.ops.rounds = -1
        answer.stats.bucket_sizes_examined.append(-1)
    again = run_once(index, 0, mapped)
    assert again.stats == first.stats
    assert again.ids.tolist() == first.ids.tolist()
    assert again.distances.tobytes() == first.distances.tobytes()
