"""Tests for repro.core.updates (incremental index maintenance)."""

import numpy as np
import pytest

from repro.core.e2lshos import E2LSHoSIndex
from repro.core.params import E2LSHParams
from repro.core.updates import IndexUpdater
from repro.storage.blockstore import MemoryBlockStore
from repro.storage.engine import AsyncIOEngine
from repro.storage.profiles import INTERFACE_PROFILES, make_volume


@pytest.fixture
def setup():
    rng = np.random.default_rng(97)
    # n=2,000 so that a build writes ~60x what one insert does: the
    # ratio grows with n (Sec. 7) and is 49.9x at n=1,200, just short
    # of the 50 test_insert_write_volume_is_tiny_vs_rebuild asserts.
    n, d = 2000, 16
    centers = rng.normal(scale=4.0, size=(12, d))
    data = (centers[rng.integers(0, 12, n)] + rng.normal(scale=0.4, size=(n, d))).astype(
        np.float32
    )
    index = build_index(data)
    return data, index, IndexUpdater(index), rng


def build_index(data):
    params = E2LSHParams(n=data.shape[0], rho=0.35, gamma=0.7, s_factor=16)
    return E2LSHoSIndex.build(data, params, store=MemoryBlockStore(), seed=8)


def run_query(index, query, k=1):
    engine = AsyncIOEngine(
        make_volume("cssd", 1), INTERFACE_PROFILES["io_uring"], index.built.store
    )
    return index.run(np.asarray(query, dtype=np.float32)[None, :], engine, k=k).answers[0]


def test_inserted_object_is_findable(setup):
    data, index, updater, rng = setup
    novel = (np.full(16, 30.0) + rng.normal(scale=0.1, size=16)).astype(np.float32)
    new_id = updater.insert(novel)
    assert new_id == data.shape[0]
    answer = run_query(index, novel + rng.normal(scale=0.01, size=16).astype(np.float32))
    assert answer.found
    assert answer.ids[0] == new_id


def test_insert_batch_assigns_sequential_ids(setup):
    data, index, updater, rng = setup
    batch = rng.normal(scale=2.0, size=(5, 16)).astype(np.float32)
    ids = updater.insert_batch(batch)
    np.testing.assert_array_equal(ids, np.arange(data.shape[0], data.shape[0] + 5))
    assert index.data.shape[0] == data.shape[0] + 5
    assert updater.stats.inserted == 5


def test_insert_write_volume_is_tiny_vs_rebuild(setup):
    """Sec. 7: incremental maintenance barely consumes SSD endurance."""
    data, index, updater, rng = setup
    store = index.built.store
    before = store.bytes_written
    rebuild_cost = before  # building wrote the whole index once
    updater.insert(rng.normal(scale=2.0, size=16).astype(np.float32))
    incremental = store.bytes_written - before
    assert incremental < rebuild_cost / 50


def test_deleted_object_leaves_chains(setup):
    data, index, updater, rng = setup
    victim = 37
    updater.delete(victim)
    assert victim in updater.deleted_ids
    # The victim's entries are physically gone: a query at the victim's
    # own location no longer returns it.
    answer = run_query(index, data[victim])
    assert victim not in answer.ids.tolist()


def test_delete_then_filter(setup):
    data, index, updater, rng = setup
    updater.delete(3)
    filtered = updater.filter_answer_ids(np.array([1, 3, 5]))
    np.testing.assert_array_equal(filtered, [1, 5])
    with pytest.raises(ValueError):
        updater.delete(3)  # double delete
    with pytest.raises(ValueError):
        updater.delete(10**9)


def test_insert_then_delete_roundtrip(setup):
    data, index, updater, rng = setup
    novel = rng.normal(scale=2.0, size=16).astype(np.float32)
    new_id = updater.insert(novel)
    updater.delete(int(new_id))
    answer = run_query(index, novel)
    assert int(new_id) not in answer.ids.tolist()


def test_occupancy_filter_stays_exact_after_insert(setup):
    data, index, updater, rng = setup
    novel = (np.full(16, -25.0)).astype(np.float32)
    updater.insert(novel)
    built = index.built
    projections = built.bank.project(novel[None, :])
    for rung_index, radius in enumerate(built.ladder):
        hash_values = built.bank.mix32(built.bank.codes_for_radius(projections, radius))
        for table_index in (0, built.params.L - 1):
            assert built.tables[rung_index][table_index].contains(int(hash_values[0, table_index]))


@pytest.mark.parametrize("kind", ["insert", "delete"])
def test_a_memoised_query_sees_the_mutation(setup, kind):
    """The updater announces its own writes, so nothing the index
    remembers about a query outlives them.  It used to be every caller's
    duty to call ``invalidate_query_caches()`` afterwards, and only the
    serving path did: without it the memoised occupancy mask hid the
    buckets of a fresh insert (``novel`` answered from rung 7 after 5
    I/Os where a cold index answers from rung 1 after 30), and a
    recorded trace would have gone on returning a deleted object."""
    data, index, updater, rng = setup
    twin = build_index(data)  # same bytes; first queried after the mutation
    if kind == "insert":
        probe = (np.full(16, 30.0) + rng.normal(scale=0.1, size=16)).astype(np.float32)
    else:
        probe = data[37]
    for _ in range(3):  # first sight, recorded, replayed
        run_query(index, probe, k=3)
    assert index.query_cache_info()["replayed"] == 1
    for target in (updater, IndexUpdater(twin)):
        if kind == "insert":
            target.insert(probe)
        else:
            target.delete(37)
    got, want = run_query(index, probe, k=3), run_query(twin, probe, k=3)
    assert got.stats == want.stats
    assert got.ids.tolist() == want.ids.tolist()
    assert got.distances.tolist() == want.distances.tolist()
    assert (data.shape[0] in got.ids) if kind == "insert" else (37 not in got.ids)


def test_insert_rejects_bad_shapes(setup):
    data, index, updater, rng = setup
    with pytest.raises(ValueError):
        updater.insert_batch(np.zeros((2, 7), dtype=np.float32))
