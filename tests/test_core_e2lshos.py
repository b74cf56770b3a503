"""Tests for repro.core.e2lshos (external-memory E2LSH)."""

import numpy as np
import pytest

from repro.core.e2lsh import E2LSHIndex
from repro.core.e2lshos import E2LSHoSIndex
from repro.core.params import E2LSHParams
from repro.core.radii import RadiusLadder
from repro.storage.blockstore import MemoryBlockStore
from repro.storage.engine import AsyncIOEngine
from repro.storage.page_cache import PageCache
from repro.storage.profiles import INTERFACE_PROFILES, make_volume


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(23)
    n, d = 2500, 20
    centers = rng.normal(scale=4.0, size=(25, d))
    data = (centers[rng.integers(0, 25, n)] + rng.normal(scale=0.4, size=(n, d))).astype(
        np.float32
    )
    queries = (data[rng.integers(0, n, 10)] + rng.normal(scale=0.05, size=(10, d))).astype(
        np.float32
    )
    params = E2LSHParams(n=n, rho=0.35, gamma=0.8, s_factor=8)
    ladder = RadiusLadder.for_data(data, params.c)
    inmem = E2LSHIndex(data, params, ladder=ladder, seed=4)
    store = MemoryBlockStore()
    storage = E2LSHoSIndex.build(
        data, params, store=store, ladder=ladder, seed=4, bank=inmem.bank
    )
    return data, queries, inmem, storage


def run(storage, queries, k=1, device="cssd", count=1, interface="io_uring", workers=1):
    engine = AsyncIOEngine(
        make_volume(device, count), INTERFACE_PROFILES[interface], storage.built.store
    )
    return storage.run(queries, engine, k=k, workers=workers)


def test_answers_match_inmemory_with_shared_bank(setup):
    """Same hash functions -> the storage index returns the same answers."""
    data, queries, inmem, storage = setup
    result = run(storage, queries, k=1)
    for q, answer in zip(queries, result.answers):
        expected = inmem.query(q, k=1)
        assert answer.found == expected.found
        if answer.found:
            assert answer.distances[0] == pytest.approx(expected.distances[0], rel=1e-6)


def test_io_count_matches_nio_accounting(setup):
    """N_io = 2 x non-empty probes + chain continuations (Sec. 4.3)."""
    data, queries, inmem, storage = setup
    result = run(storage, queries, k=1)
    for answer in result.answers:
        stats = answer.stats
        # One slot read per non-empty probe plus one read per block.
        assert stats.ios_issued == stats.nonempty_buckets + stats.bucket_blocks_read
        # At least one block per non-empty bucket -> N_io >= 2 x nonempty
        # unless the S budget cut a rung short.
        assert stats.bucket_blocks_read >= 1 or stats.nonempty_buckets == 0


def test_engine_io_count_equals_task_stats(setup):
    data, queries, inmem, storage = setup
    result = run(storage, queries, k=1)
    assert result.engine.io_count == sum(a.stats.ios_issued for a in result.answers)


def test_faster_storage_is_faster(setup):
    data, queries, inmem, storage = setup
    slow = run(storage, queries, device="cssd", count=1, interface="io_uring")
    fast = run(storage, queries, device="xlfdd", count=12, interface="xlfdd")
    assert fast.mean_query_time_ns < slow.mean_query_time_ns


def test_multiworker_not_slower(setup):
    data, queries, inmem, storage = setup
    one = run(storage, np.tile(queries, (4, 1)), workers=1)
    four = run(storage, np.tile(queries, (4, 1)), workers=4)
    assert four.makespan_ns <= one.makespan_ns * 1.05 if hasattr(four, "makespan_ns") else True
    assert four.engine.makespan_ns <= one.engine.makespan_ns * 1.05


def test_mmap_sync_same_answers_slower(setup):
    data, queries, inmem, storage = setup
    async_result = run(storage, queries, device="cssd", count=4)
    cache = PageCache(
        volume=make_volume("cssd", 4),
        store=storage.built.store,
        interface=INTERFACE_PROFILES["mmap_sync"],
        capacity_bytes=storage.dram_bytes,
    )
    sync_result = storage.run(queries, k=1, mode="mmap_sync", cache=cache)
    total_ns = sync_result.engine.makespan_ns
    for sync_answer, async_answer in zip(sync_result.answers, async_result.answers):
        np.testing.assert_array_equal(sync_answer.ids, async_answer.ids)
    assert total_ns / len(queries) > async_result.mean_query_time_ns


def test_mmap_sync_replays_identically_with_a_fresh_cache(setup):
    data, queries, inmem, storage = setup
    def mk_cache():
        return PageCache(
            volume=make_volume("cssd", 4),
            store=storage.built.store,
            interface=INTERFACE_PROFILES["mmap_sync"],
            capacity_bytes=storage.dram_bytes,
        )
    first = storage.run(queries, k=1, mode="mmap_sync", cache=mk_cache())
    again = storage.run(queries, k=1, mode="mmap_sync", cache=mk_cache())
    assert again.engine.makespan_ns == first.engine.makespan_ns
    assert again.engine.io_count == first.engine.io_count
    for a, b in zip(first.answers, again.answers):
        np.testing.assert_array_equal(a.ids, b.ids)


def test_run_mode_validation(setup):
    data, queries, inmem, storage = setup
    with pytest.raises(ValueError, match="needs an engine"):
        storage.run(queries, k=1)
    with pytest.raises(ValueError, match="needs a cache"):
        storage.run(queries, k=1, mode="mmap_sync")
    with pytest.raises(ValueError, match="unknown mode"):
        storage.run(queries, k=1, mode="bogus")


def test_alternate_block_size_same_answers(setup):
    data, queries, inmem, storage = setup
    small_block = E2LSHoSIndex.build(
        data, storage.params, store=MemoryBlockStore(),
        ladder=storage.ladder, block_size=128, seed=4, bank=inmem.bank,
    )
    a = run(storage, queries)
    b = run(small_block, queries)
    for x, y in zip(a.answers, b.answers):
        np.testing.assert_array_equal(x.ids, y.ids)
    # Smaller blocks never need fewer I/Os.
    assert b.engine.io_count >= a.engine.io_count


def test_memory_accounting(setup):
    data, queries, inmem, storage = setup
    assert storage.storage_bytes > storage.built.dram_bytes
    assert storage.dram_bytes >= data.nbytes


def test_validation(setup):
    data, queries, inmem, storage = setup
    with pytest.raises(ValueError):
        next(storage.query_task(queries[0], k=0))
    # k is part of the memo key: refused when the wave is planned, like
    # stop_k, not at the generator's first resume.
    with pytest.raises(ValueError, match="k must be >= 1, got 0"):
        storage.query_tasks(queries, k=0)
    with pytest.raises(ValueError, match="k must be >= 1, got 0"):
        run(storage, queries, k=0)
    with pytest.raises(ValueError):
        next(storage.query_task(np.zeros(3, dtype=np.float32)))
    with pytest.raises(ValueError):
        E2LSHoSIndex(storage.built, data[:10])


@pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
def test_non_finite_query_rows_are_rejected_by_name(setup, poison):
    """A NaN/inf query would hash to an arbitrary lattice cell and report
    NaN distances; the wave is refused before anything is planned."""
    _, queries, _, storage = setup
    bad = queries.copy()
    bad[3, 5] = poison
    with pytest.raises(ValueError, match="queries row 3 "):
        storage.query_tasks(bad, k=1)
    with pytest.raises(ValueError, match="queries row 0 "):
        storage.query_task(bad[3], k=1)
    with pytest.raises(ValueError, match="queries row 3 "):
        run(storage, bad)
