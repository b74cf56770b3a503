"""Tests for repro.storage.engine — the async I/O engine semantics."""

import math

import pytest

from repro.storage.blockstore import MemoryBlockStore
from repro.storage.engine import AsyncIOEngine, Compute, EngineSession, Read, ReadBatch
from repro.storage.profiles import DEVICE_PROFILES, INTERFACE_PROFILES
from repro.storage.raid import StripedVolume


def make_engine(interface=None, count=1):
    store = MemoryBlockStore()
    address = store.allocate(1 << 18)
    store.write(address, bytes(range(256)) * 1024)
    volume = StripedVolume.of(DEVICE_PROFILES["cssd"], count)
    engine = AsyncIOEngine(volume, interface or INTERFACE_PROFILES["io_uring"], store)
    return engine, store


def reader_task(addresses, length=512):
    total = b""
    for address in addresses:
        data = yield Read(address, length)
        total += data
    return total


def compute_task(duration):
    yield Compute(duration)
    return "done"


def test_read_returns_actual_bytes():
    engine, store = make_engine()

    def task():
        data = yield Read(8, 4)
        return data

    result = engine.run([task()])
    assert result.results[0] == store.read(8, 4)


def test_read_batch_returns_list_in_order():
    engine, store = make_engine()

    def task():
        payload = yield ReadBatch([(0, 4), (16, 4), (32, 4)])
        return payload

    result = engine.run([task()])
    assert result.results[0] == [store.read(0, 4), store.read(16, 4), store.read(32, 4)]


def test_compute_only_task_costs_exactly_its_duration():
    engine, _ = make_engine()
    result = engine.run([compute_task(12_345.0)])
    assert result.makespan_ns == pytest.approx(12_345.0)
    assert result.compute_ns == pytest.approx(12_345.0)
    assert result.io_count == 0


def test_sync_interface_serializes_latency():
    """Eq. 6: with a synchronous interface every read blocks the CPU."""
    engine, _ = make_engine(interface=INTERFACE_PROFILES["mmap_sync"])
    n_reads = 10
    result = engine.run([reader_task([i * 512 for i in range(n_reads)])])
    latency = DEVICE_PROFILES["cssd"].latency_ns
    # Makespan at least N * (latency) — no overlap possible.
    assert result.makespan_ns >= n_reads * latency
    assert result.stall_ns > 0


def test_async_interleaving_overlaps_io():
    """Eq. 7: many interleaved tasks approach max(compute, io) time."""
    n_tasks, reads_per_task = 32, 8
    engine, _ = make_engine()
    tasks = [
        reader_task([(t * reads_per_task + i) * 512 for i in range(reads_per_task)])
        for t in range(n_tasks)
    ]
    result = engine.run(tasks)
    total_reads = n_tasks * reads_per_task
    serialized = total_reads * DEVICE_PROFILES["cssd"].latency_ns
    # Interleaving must beat the fully-serialized time by a wide margin.
    assert result.makespan_ns < serialized / 4
    assert result.io_count == total_reads


def test_async_single_task_still_waits_for_device():
    engine, _ = make_engine()
    result = engine.run([reader_task([0])])
    assert result.makespan_ns >= DEVICE_PROFILES["cssd"].latency_ns


def test_interface_overhead_charged_per_request():
    engine, _ = make_engine()
    n = 20
    result = engine.run([reader_task([i * 512 for i in range(n)])])
    assert result.io_cpu_ns == pytest.approx(n * INTERFACE_PROFILES["io_uring"].cpu_overhead_ns)


def test_multiple_workers_split_compute():
    engine, _ = make_engine()
    tasks = [compute_task(1000.0) for _ in range(8)]
    serial = engine.run(tasks, workers=1).makespan_ns
    parallel = engine.run([compute_task(1000.0) for _ in range(8)], workers=4).makespan_ns
    assert serial == pytest.approx(8_000.0)
    assert parallel == pytest.approx(2_000.0)


def test_workers_share_device_bound():
    """Storage saturation limits all workers collectively (Fig. 16)."""
    def io_heavy(base):
        for i in range(50):
            yield Read((base * 50 + i) * 512, 512)
        return None

    engine, _ = make_engine()
    one = engine.run([io_heavy(i) for i in range(8)], workers=1)
    engine2, _ = make_engine()
    many = engine2.run([io_heavy(i) for i in range(8)], workers=8)
    # With I/O dominating, adding CPUs cannot multiply throughput by 8.
    assert many.makespan_ns > one.makespan_ns / 4


def test_empty_read_batch_is_noop():
    engine, _ = make_engine()

    def task():
        payload = yield ReadBatch([])
        return payload

    result = engine.run([task()])
    assert result.results[0] == []
    assert result.io_count == 0


def test_unsupported_action_raises():
    engine, _ = make_engine()

    def task():
        yield "bogus"

    with pytest.raises(TypeError):
        engine.run([task()])


def test_invalid_worker_count():
    engine, _ = make_engine()
    with pytest.raises(ValueError):
        engine.run([], workers=0)


def test_results_keep_submission_order():
    engine, _ = make_engine()

    def task(value, reads):
        for i in range(reads):
            yield Read(i * 512, 16)
        return value

    result = engine.run([task("a", 5), task("b", 1), task("c", 3)])
    assert result.results == ["a", "b", "c"]


def test_tasks_per_second_and_mean_time():
    engine, _ = make_engine()
    result = engine.run([compute_task(1e6), compute_task(1e6)])
    assert result.mean_task_time_ns == pytest.approx(1e6)
    assert result.tasks_per_second == pytest.approx(1000.0)


# -- EngineSession: incremental submission (the serving path) ---------------


def test_session_batch_equivalence_with_run():
    """run() is the submit-everything-at-zero special case of a session."""
    engine, _ = make_engine()
    batch = engine.run([reader_task([i * 512 for i in range(6)]) for _ in range(4)])
    engine2, _ = make_engine()
    session = engine2.session()
    for _ in range(4):
        session.submit(reader_task([i * 512 for i in range(6)]))
    session.drain()
    incremental = session.result()
    assert incremental.makespan_ns == pytest.approx(batch.makespan_ns)
    assert incremental.io_count == batch.io_count
    assert incremental.finish_times_ns == pytest.approx(batch.finish_times_ns)


def test_run_is_one_wave_with_the_schedule_of_one_submit_each(monkeypatch):
    def tasks():
        return [reader_task([(i + j) * 512 for i in range(5)]) for j in range(7)] + [
            compute_task(900.0)
        ]

    engine, _ = make_engine(count=2)
    session = engine.session(workers=3)
    for task in tasks():
        session.submit(task)
    session.drain()
    serial = session.result()
    engine2, _ = make_engine(count=2)
    monkeypatch.setattr(EngineSession, "submit", None)  # run() does not go task by task
    batch = engine2.run(tasks(), workers=3)
    assert batch == serial  # results in order, finish times, counters, device stats
    assert engine2.run([]).makespan_ns == 0.0


def test_session_respects_ready_time():
    engine, _ = make_engine()
    session = engine.session()
    session.submit(compute_task(1_000.0), ready_ns=5_000.0)
    completions = session.drain()
    assert len(completions) == 1
    assert completions[0].finish_ns == pytest.approx(6_000.0)


def test_session_tags_completions():
    engine, _ = make_engine()
    session = engine.session()
    session.submit(compute_task(10.0), tag="alpha")
    session.submit(compute_task(10.0), tag="beta")
    tags = {c.tag for c in session.drain()}
    assert tags == {"alpha", "beta"}


def test_session_late_submission_after_stepping():
    """Tasks may be submitted while earlier ones are mid-flight."""
    engine, store = make_engine()
    session = engine.session()
    session.submit(reader_task([0, 512]), tag="early")
    assert session.step() is None  # early parks on its first read
    session.submit(compute_task(5.0), ready_ns=1e9, tag="late")
    completions = session.drain()
    assert [c.tag for c in sorted(completions, key=lambda c: c.finish_ns)] == [
        "early",
        "late",
    ]
    assert completions[0].result == store.read(0, 512) + store.read(512, 512)


def test_session_next_ready_and_has_work():
    engine, _ = make_engine()
    session = engine.session()
    assert not session.has_work
    assert math.isinf(session.next_ready_ns)
    session.submit(compute_task(1.0), ready_ns=42.0)
    assert session.has_work
    assert session.next_ready_ns == pytest.approx(42.0)
    session.drain()
    assert not session.has_work


def test_session_run_until_stops_at_horizon():
    engine, _ = make_engine()
    session = engine.session()
    session.submit(compute_task(1.0), ready_ns=100.0)
    session.submit(compute_task(1.0), ready_ns=10_000.0)
    done = session.run_until(5_000.0)
    assert len(done) == 1
    assert session.has_work
    assert len(session.drain()) == 1


def test_session_validation():
    engine, _ = make_engine()
    with pytest.raises(ValueError):
        engine.session(workers=0)
    session = engine.session()
    with pytest.raises(ValueError):
        session.submit(compute_task(1.0), ready_ns=-1.0)
    assert session.step() is None  # stepping an idle session is a no-op


def test_session_result_partial_then_final():
    engine, _ = make_engine()
    session = engine.session()
    session.submit(compute_task(7.0))
    session.drain()
    first = session.result()
    assert first.results == ["done"]
    session.submit(compute_task(7.0), ready_ns=100.0)
    session.drain()
    second = session.result()
    assert second.results == ["done", "done"]
    assert second.makespan_ns == pytest.approx(107.0)


def test_session_sync_interface_blocks_inline():
    engine, _ = make_engine(interface=INTERFACE_PROFILES["mmap_sync"])
    session = EngineSession(engine)
    session.submit(reader_task([0]))
    completions = session.drain()
    assert completions[0].finish_ns >= DEVICE_PROFILES["cssd"].latency_ns
    assert session.stall_ns > 0


# -- per-task profiling -------------------------------------------------------


def test_profiles_are_off_by_default():
    engine, _ = make_engine()
    session = engine.session()
    session.submit(compute_task(10.0))
    (completion,) = session.drain()
    assert completion.profile is None


def test_profile_accounts_task_time_exactly():
    """finish - start == compute + io_cpu + io_wait, per task."""
    engine, _ = make_engine()
    session = engine.session(profile_tasks=True)

    def task():
        yield Compute(500.0)
        yield Read(0, 512)
        yield ReadBatch([(512, 512), (1024, 512)])
        return None

    session.submit(task())
    (completion,) = session.drain()
    profile = completion.profile
    assert profile is not None
    assert profile.compute_ns == pytest.approx(500.0)
    assert profile.io_count == 3
    assert profile.io_cpu_ns > 0
    assert profile.io_wait_ns > 0
    accounted = profile.compute_ns + profile.io_cpu_ns + profile.io_wait_ns
    assert completion.finish_ns - profile.start_ns == pytest.approx(accounted)


def test_profile_start_is_first_run_not_submission():
    engine, _ = make_engine()
    session = engine.session(profile_tasks=True)
    session.submit(compute_task(10.0), ready_ns=5_000.0)
    (completion,) = session.drain()
    assert completion.profile.start_ns == pytest.approx(5_000.0)


def test_profile_sync_interface_charges_stall_as_io_wait():
    engine, _ = make_engine(interface=INTERFACE_PROFILES["mmap_sync"])
    session = engine.session(profile_tasks=True)
    session.submit(reader_task([0]))
    (completion,) = session.drain()
    assert completion.profile.io_wait_ns >= DEVICE_PROFILES["cssd"].latency_ns * 0.5


def test_submit_batch_equivalent_to_serial_submits():
    """One wave entry replays exactly as N ordered submits."""
    def tasks():
        return [reader_task([i * 512 for i in range(4)]) for _ in range(5)]

    engine, _ = make_engine()
    session = engine.session(workers=2)
    ids = session.submit_batch(tasks(), ready_ns=100.0, tags=list("abcde"))
    wave = session.drain()

    engine2, _ = make_engine()
    session2 = engine2.session(workers=2)
    serial_ids = [
        session2.submit(task, ready_ns=100.0, tag=tag)
        for task, tag in zip(tasks(), "abcde")
    ]
    serial = session2.drain()

    assert ids == serial_ids == list(range(5))
    assert [c.finish_ns for c in wave] == pytest.approx([c.finish_ns for c in serial])
    assert [c.tag for c in wave] == [c.tag for c in serial]
    assert [c.index for c in wave] == [c.index for c in serial]
    assert session.result().makespan_ns == pytest.approx(session2.result().makespan_ns)
    assert session.result().io_count == session2.result().io_count


def test_submit_batch_interleaves_with_scalar_submissions():
    engine, _ = make_engine()
    session = engine.session()
    session.submit(compute_task(50.0), ready_ns=0.0, tag="solo")
    session.submit_batch(
        [compute_task(10.0), compute_task(10.0)], ready_ns=5.0, tags=["w0", "w1"]
    )
    done = session.drain()
    assert {c.tag for c in done} == {"solo", "w0", "w1"}
    assert session.result().makespan_ns > 0


def test_submit_batch_empty_is_noop():
    engine, _ = make_engine()
    session = engine.session()
    assert session.submit_batch([]) == []
    assert not session.has_work


def test_submit_batch_validation():
    engine, _ = make_engine()
    session = engine.session()
    with pytest.raises(ValueError):
        session.submit_batch([compute_task(1.0)], ready_ns=-1.0)
    with pytest.raises(ValueError):
        session.submit_batch([compute_task(1.0)], tags=["a", "b"])


def test_submit_batch_round_robins_workers_from_next_index():
    """Wave members continue the same worker rotation scalar submits use."""
    engine, _ = make_engine()
    session = engine.session(workers=3)
    session.submit(compute_task(30.0))  # index 0 -> worker 0
    session.submit_batch([compute_task(30.0) for _ in range(4)])  # indices 1..4
    done = sorted(session.drain(), key=lambda c: c.index)
    # Workers 0/1/2 each run their tasks back to back; with 5 tasks of
    # equal cost, indices 0 and 3 share worker 0, 1 and 4 share worker 1.
    finish = {c.index: c.finish_ns for c in done}
    assert finish[3] == pytest.approx(finish[0] + 30.0)
    assert finish[4] == pytest.approx(finish[1] + 30.0)
