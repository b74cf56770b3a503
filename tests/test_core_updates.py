"""Tests for repro.core.updates (incremental index maintenance)."""

import numpy as np
import pytest
from test_updates_oracle import chains_of, nudged_project

from repro.core.e2lshos import E2LSHoSIndex
from repro.core.lsh import CompoundHashBank
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


# -- calls cover batches: edges, all-or-nothing ----------------------------------


def _guarded(index, monkeypatch):
    """(invalidation calls seen so far, what a rejected call must leave alone)."""
    calls = []
    real = index.invalidate_query_caches

    def counted():
        calls.append(1)
        real()

    monkeypatch.setattr(index, "invalidate_query_caches", counted)

    def untouched():
        return (
            len(calls),
            index.built.store.bytes_written,
            index.built.store.size_bytes,
            index.data.shape,
            index.query_cache_info(),
        )

    return untouched


def test_empty_batches_do_nothing(setup, monkeypatch):
    """``insert_batch`` of zero rows used to die on ``new_ids[-1]`` with a
    bare IndexError; both empty calls now return without announcing a
    mutation or writing a byte."""
    data, index, updater, rng = setup
    untouched = _guarded(index, monkeypatch)
    before = untouched()
    ids = updater.insert_batch(np.zeros((0, 16), dtype=np.float32))
    assert ids.shape == (0,) and ids.dtype == np.int64
    updater.delete([])
    updater.delete(np.array([], dtype=np.int64))
    assert untouched() == before
    assert (updater.stats.inserted, updater.stats.deleted, updater.stats.io_requests) == (0, 0, 0)
    with pytest.raises(ValueError, match="shape"):
        updater.insert_batch(np.zeros((0, 7), dtype=np.float32))


def test_delete_takes_a_batch_and_one_id_is_its_one_element_case(setup):
    data, index, updater, rng = setup
    twin = IndexUpdater(build_index(data))
    updater.delete([37, 5, 1999])
    for victim in (37, 5, 1999):
        twin.delete(victim)
    assert updater.deleted_ids == twin.deleted_ids == {37, 5, 1999}
    assert updater.stats.deleted == 3
    for victim in (37, 5, 1999):
        got, want = run_query(index, data[victim], k=3), run_query(twin.index, data[victim], k=3)
        assert victim not in got.ids.tolist()
        assert got.ids.tolist() == want.ids.tolist() and got.stats == want.stats
    # A chain two victims share is walked once, not once per victim.
    assert updater.stats.blocks_read <= twin.stats.blocks_read


@pytest.mark.parametrize(
    "batch, message",
    [
        ([4, 2000, 6], r"object 2000 outside \[0, 2000\)"),
        ([4, -1], r"object -1 outside \[0, 2000\)"),
        ([4, 3, 6], "object 3 already deleted"),
        ([4, 6, 4], "object 4 already deleted"),
    ],
)
def test_a_bad_id_rejects_the_whole_batch_before_anything_happens(
    setup, monkeypatch, batch, message
):
    """Validation is over before the mutation is announced: the memo still
    replays, no byte is written, nobody is tombstoned."""
    data, index, updater, rng = setup
    updater.delete(3)
    for _ in range(3):
        run_query(index, data[4], k=3)
    assert index.query_cache_info()["replayed"] == 1
    untouched = _guarded(index, monkeypatch)
    before = untouched()
    with pytest.raises(ValueError, match=message):
        updater.delete(batch)
    assert untouched() == before
    assert updater.deleted_ids == {3} and updater.stats.deleted == 1
    run_query(index, data[4], k=3)
    assert index.query_cache_info()["replayed"] == 2
    updater.delete([4, 6])  # the good ids of the batch are still there to delete
    assert updater.deleted_ids == {3, 4, 6}


def test_an_oversized_insert_batch_is_rejected_whole(setup, monkeypatch):
    data, index, updater, rng = setup
    untouched = _guarded(index, monkeypatch)
    before = untouched()
    room = updater.capacity - data.shape[0] + 1
    with pytest.raises(ValueError, match="exceeds the layout capacity"):
        updater.insert_batch(np.zeros((room + 1, 16), dtype=np.float32))
    assert untouched() == before


# -- a delete whose hash moved ------------------------------------------------------


def _holders(index, object_id):
    """(rung, table) pairs with an entry of ``object_id`` anywhere on storage."""
    return sorted({key[:2] for key in chains_of(index, object_id)})


@pytest.mark.parametrize("batch", [[37], [12, 37, 1500]])
def test_a_delete_that_hashes_elsewhere_than_the_build_still_removes_the_object(
    setup, monkeypatch, batch
):
    """A delete re-projects its rows, and BLAS sums a (1, d) product in
    another order than the (n, d) one the build hashed with: for ~1 row in
    150 some hash of the ~L x r lands in another bucket, the walk falls
    off the end of the wrong chain, and the entry used to stay — the
    object came back the moment its tombstone was dropped.  Pinned without
    BLAS: one projection of the victim is pushed one lattice cell over."""
    data, index, updater, rng = setup
    victim = 37
    built = index.built
    everywhere = [(r, t) for r in range(len(built.tables)) for t in range(built.params.L)]
    assert _holders(index, victim) == everywhere
    with monkeypatch.context() as patch:
        patch.setattr(CompoundHashBank, "project", nudged_project(data[victim], built.ladder[0]))
        updater.delete(batch if len(batch) > 1 else batch[0])
    answer = run_query(index, data[victim], k=3)
    assert victim not in answer.ids.tolist()
    assert (answer.distances > 0).all()
    for object_id in batch:
        assert _holders(index, object_id) == []
    assert updater.stats.entries_missed >= 1  # rung 0, table 0 at the least
    assert updater.stats.deleted == len(batch)
