"""Differential oracle: chains rewritten once per call against one entry at a time.

``IndexUpdater`` groups a call's entries by bucket chain and edits the
packed 5-byte object infos as bytes; ``tests/reference_updates.py`` is the
tree it replaced, a read -> decode -> re-pack -> write round trip per
(object, radius, table) entry.  The production tree has no switch for
this.  Twin indices from one build take the same calls, one through each,
and after **every** call must agree on

- every slot of every table: NULL or not, and the chain as a list of
  per-block ``(ids, fingerprints)`` — block boundaries and entry order,
  not just membership, because a query reads a chain block by block;
- ``present_values`` (value and dtype), ``index.data``, ``deleted_ids``;
- the answers of ``index.run`` over a fixed query set: ids, distance
  bits, every ``QueryStats`` field;

while block reads, block writes and bytes written never exceed the
reference's, and a stream of one-object calls leaves byte-equal stores.
Blocks hold three entries here (``block_size=31``), so chains spill all
the time; every seeded case asserts that the shape it is named after
really occurred.
"""

import copy
import dataclasses
import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_updates import ReferenceUpdater

import repro.serving.ingest as ingest
from repro.core.e2lshos import E2LSHoSIndex
from repro.core.lsh import CompoundHashBank
from repro.core.params import E2LSHParams
from repro.core.updates import IndexUpdater
from repro.layout.bucket import NULL_ADDRESS, decode_block
from repro.serving import (
    Arrival,
    IngestConfig,
    QueryService,
    ShardedIndex,
    UpdateArrival,
    run_scenario,
)
from repro.serving.catalog import build_scenario
from repro.storage.blockstore import FileBlockStore, MemoryBlockStore
from repro.storage.profiles import make_engine

#: 130 objects leave the 8-bit id field 125 ids of headroom for inserts.
N, D, BLOCK, CAPACITY = 130, 8, 31, 3


@functools.cache
def base():
    """(data, queries, fresh vectors, built index); cases deep-copy the index."""
    rng = np.random.default_rng(19)
    centers = rng.normal(scale=4.0, size=(4, D))
    data = (centers[rng.integers(0, 4, N)] + rng.normal(scale=0.5, size=(N, D))).astype(
        np.float32
    )
    queries = (data[rng.integers(0, N, 8)] + rng.normal(scale=0.05, size=(8, D))).astype(
        np.float32
    )
    fresh = (centers[rng.integers(0, 4, 64)] + rng.normal(scale=0.6, size=(64, D))).astype(
        np.float32
    )
    return data, queries, fresh, build(data, MemoryBlockStore())


def build(data, store):
    params = E2LSHParams(n=data.shape[0], rho=0.35, gamma=0.7, s_factor=8)
    return E2LSHoSIndex.build(data, params, store=store, seed=3, block_size=BLOCK)


def twins():
    index = base()[3]
    return IndexUpdater(copy.deepcopy(index)), ReferenceUpdater(copy.deepcopy(index))


def chains(index):
    """``{(rung, table, slot): [(ids, fingerprints) per block]}``, non-NULL slots only."""
    built = index.built
    store = built.store
    out = {}
    for rung, handles in enumerate(built.tables):
        for li, handle in enumerate(handles):
            table = handle.table
            heads = np.frombuffer(store.read(table.base_address, table.size_bytes), dtype="<u8")
            for slot in np.flatnonzero(heads != NULL_ADDRESS).tolist():
                address, blocks = int(heads[slot]), []
                while address != NULL_ADDRESS:
                    raw = store.read(address, min(built.block_size, store.size_bytes - address))
                    block = decode_block(built.codec, raw)
                    blocks.append((block.object_ids.tolist(), block.fingerprints.tolist()))
                    address = block.next_address
                out[rung, li, slot] = blocks
    return out


def chains_of(index, object_id):
    """The chains (as in ``chains``) that hold an entry of ``object_id``."""
    return {
        key: blocks
        for key, blocks in chains(index).items()
        if any(object_id in ids for ids, _ in blocks)
    }


def nudged_project(vector, radius):
    """A ``CompoundHashBank.project`` that pushes the first projection of every
    row equal to ``vector`` one lattice cell (of rung ``radius``) over — what a
    float32 sum taken in another order does to about one row in 150."""
    real = CompoundHashBank.project

    def project(bank, points):
        out = real(bank, points)
        rows = np.flatnonzero((np.atleast_2d(points) == vector).all(axis=1))
        out[rows, 0] += bank.w * radius
        return out

    return project


def answers(index):
    result = index.run(base()[1], make_engine(index.built.store), k=3)
    return [
        (a.ids.tolist(), a.distances.tobytes(), dataclasses.asdict(a.stats))
        for a in result.answers
    ]


def assert_same_state(got, want):
    """``got`` (production) and ``want`` (reference) updaters agree on everything."""
    assert chains(got.index) == chains(want.index)
    for ours, theirs in zip(got.index.built.tables, want.index.built.tables):
        for mine, other in zip(ours, theirs):
            assert mine.present_values.dtype == other.present_values.dtype
            assert mine.present_values.tolist() == other.present_values.tolist()
    assert got.index.data.dtype == want.index.data.dtype
    assert got.index.data.tobytes() == want.index.data.tobytes()
    assert got.index.data.shape == want.index.data.shape
    assert got.deleted_ids == want.deleted_ids
    assert (got.stats.inserted, got.stats.deleted) == (want.stats.inserted, want.stats.deleted)
    assert answers(got.index) == answers(want.index)
    assert got.stats.entries_missed == 0
    assert got.stats.blocks_read <= want.stats.blocks_read
    assert (
        got.stats.blocks_rewritten + got.stats.blocks_allocated
        <= want.stats.blocks_rewritten + want.stats.blocks_allocated
    )
    assert got.index.built.store.bytes_written <= want.index.built.store.bytes_written


def apply(pair, kind, argument):
    """One call on both twins; returns the production side's result."""
    results = [getattr(updater, kind)(argument) for updater in pair]
    assert_same_state(*pair)
    if kind == "insert_batch":
        assert results[0].tolist() == results[1].tolist()
    return results[0]


def image(updater):
    store = updater.index.built.store
    return store.read(0, store.size_bytes)


# -- seeded cases: every chain shape by name ----------------------------------------


def test_a_batch_spills_into_an_empty_slot():
    """k > capacity duplicates of a far-away vector: one chain per table,
    born as ceil(k / capacity) blocks."""
    pair = twins()
    before = chains(pair[0].index)
    far = np.full((8, D), 40.0, dtype=np.float32)
    new_ids = apply(pair, "insert_batch", far).tolist()
    after = chains(pair[0].index)
    born = [key for key in after if key not in before]
    assert born, "the far corner should have hit NULL slots"
    for key in born:
        assert [ids for ids, _ in after[key]] == [new_ids[6:], new_ids[3:6], new_ids[:3]]
    # A second helping finds those heads partly full (2 of 3).
    apply(pair, "insert_batch", far[:5])
    assert [len(ids) for ids, _ in chains(pair[0].index)[born[0]]] == [1, 3, 3, 3, 3]


def test_a_batch_tops_up_partly_full_and_full_heads():
    """Duplicates of a stored object land in its chains, whatever their
    heads hold: room for some of the batch, for none of it, for all of it."""
    data = base()[0]
    heads = {object_id: set() for object_id in range(N)}  # head sizes of each object's chains
    for blocks in chains(base()[3]).values():
        for ids, _ in blocks:
            for object_id in ids:
                heads[object_id].add(len(blocks[0][0]))
    crowded = next(i for i, seen in heads.items() if {1, 2, CAPACITY} <= seen)
    pair = twins()
    for k in (1, 2, 7):
        apply(pair, "insert_batch", np.repeat(data[crowded][None, :], k, axis=0))
    assert pair[0].stats.blocks_rewritten and pair[0].stats.blocks_allocated


def test_targets_in_later_blocks_and_a_chain_deleted_whole():
    pair = twins()
    before = chains(pair[0].index)
    key, blocks = max(before.items(), key=lambda item: len(item[1]))
    assert len(blocks) >= 3
    # One target in the 2nd block, two in the 3rd, none in the head.
    apply(pair, "delete", [blocks[2][0][0], blocks[1][0][1], blocks[2][0][-1]])
    left = chains(pair[0].index)[key]
    assert [len(ids) for ids, _ in left][:3] == [CAPACITY, CAPACITY - 1, len(blocks[2][0]) - 2]
    # Then every entry the chain still holds, in one call, last block first.
    rest = [object_id for ids, _ in reversed(left) for object_id in ids]
    apply(pair, "delete", rest)
    emptied = chains(pair[0].index)[key]
    assert len(emptied) == len(blocks), "an emptied block stays linked"
    assert all(ids == [] for ids, _ in emptied)
    # ... and the chain takes entries again.
    apply(pair, "insert_batch", base()[0][rest[:4]])


def test_deleting_what_an_earlier_call_inserted():
    pair = twins()
    fresh = base()[2]
    first = apply(pair, "insert_batch", fresh[:9]).tolist()
    second = apply(pair, "insert_batch", np.vstack([fresh[9:12], fresh[:2]])).tolist()
    apply(pair, "delete", [first[4], second[3], 7, first[0]])
    apply(pair, "delete", second[0])
    apply(pair, "insert_batch", fresh[20:21])
    apply(pair, "delete", np.array([first[8], 0], dtype=np.int64))


def test_interleaved_rounds_seeded():
    """Batches past NumPy's small-array insertion sort (16), with many
    entries per chain: an unstable sort by slot would reorder them."""
    rng = np.random.default_rng(23)
    data, _, fresh, _ = base()
    pair = twins()
    alive = list(range(N))
    for round_index in range(3):
        rows = np.vstack(
            [
                np.repeat(data[rng.integers(0, N, 2)], 9, axis=0),
                fresh[round_index * 8 : round_index * 8 + 8],
                np.repeat(fresh[40 + round_index][None, :], 6, axis=0),
            ]
        )
        alive += apply(pair, "insert_batch", rows[rng.permutation(rows.shape[0])]).tolist()
        victims = [alive.pop(int(at)) for at in rng.integers(0, len(alive) - 24, 24)]
        apply(pair, "delete", victims)


def test_one_object_per_call_leaves_byte_equal_stores():
    data, _, fresh, _ = base()
    pair = twins()
    for step, vector in enumerate(fresh[:10]):
        new_id = [updater.insert(vector) for updater in pair][0]
        assert image(pair[0]) == image(pair[1])
        if step % 3 == 0:
            for updater in pair:
                updater.delete(new_id)
        if step % 4 == 1:
            for updater in pair:
                updater.delete(step)
        assert image(pair[0]) == image(pair[1])
        assert pair[0].stats == pair[1].stats
    assert_same_state(*pair)


def test_on_a_file_block_store(tmp_path):
    data, _, fresh, _ = base()
    stores = [FileBlockStore(tmp_path / name) for name in ("ours.blocks", "theirs.blocks")]
    try:
        pair = (
            IndexUpdater(build(data, stores[0])),
            ReferenceUpdater(build(data, stores[1])),
        )
        assert image(pair[0]) == image(pair[1])
        ids = apply(pair, "insert_batch", np.vstack([fresh[:7], data[3:5], data[3:5]])).tolist()
        apply(pair, "delete", [ids[1], 3, ids[8], 90])
        apply(pair, "insert_batch", fresh[7:12])
    finally:
        for store in stores:
            store.close()


# -- the aligned search ----------------------------------------------------------------


def test_a_pattern_straddling_two_entries_is_not_a_match(monkeypatch):
    """Entries ``A B T`` where the last four bytes of ``A`` and the first of
    ``B`` spell ``T``: a plain ``bytes.find`` hits at offset 1 and would cut
    through both.  The chain is written by hand into one slot of every
    table, and the hash is pinned so that deleting ``T`` looks there."""
    pair = twins()
    codec = pair[0].index.built.codec
    assert (codec.id_bits, codec.fingerprint_bits) == (8, 24)  # entry = id, 3 fp bytes, 0
    target = bytes([5, 7, 9, 0, 0])  # object 5, fingerprint 0x000907
    block = bytes([1, *target[:4]]) + bytes([target[4], 1, 0, 0, 0]) + target
    assert block.find(target) == 1
    ids, fingerprints = codec.unpack(block)
    assert codec.pack(ids, fingerprints) == block and ids.tolist() == [1, 0, 5]
    slot = 77
    hash_value = (int(fingerprints[2]) << codec.table_bits) | slot
    monkeypatch.setattr(
        CompoundHashBank,
        "hash_projections",
        lambda bank, projections, radius: np.full(
            (projections.shape[0], bank.L), hash_value, dtype=np.uint32
        ),
    )
    for updater in pair:
        built = updater.index.built
        for handles in built.tables:
            for handle in handles:
                address = built.store.allocate(BLOCK)
                built.store.write(address, NULL_ADDRESS.to_bytes(8, "little") + bytes([3, 0] + [0] * 6) + block)
                handle.table.write_slot(slot, address)
    apply(pair, "delete", 5)
    after = chains(pair[0].index)
    for rung, handles in enumerate(pair[0].index.built.tables):
        for li in range(len(handles)):
            assert after[rung, li, slot] == [([1, 0], fingerprints[:2].tolist())]


# -- Hypothesis: arbitrary interleavings ---------------------------------------------


#: An insert row: a copy of a stored object (lands in its chains), one of
#: a few fresh vectors (repeats make duplicates inside a batch), or the
#: far corner (NULL slots).
_rows = st.lists(
    st.one_of(
        st.tuples(st.just("copy"), st.integers(0, N - 1)),
        st.tuples(st.just("fresh"), st.integers(0, 5)),
        st.tuples(st.just("far"), st.integers(0, 1)),
    ),
    min_size=1,
    max_size=20,
)
_calls = st.lists(
    st.one_of(
        st.tuples(st.just("insert_batch"), _rows),
        # Victims as positions in the list of live ids, taken modulo its length.
        st.tuples(st.just("delete"), st.lists(st.integers(0, 10_000), min_size=1, max_size=12)),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=30, deadline=None)
@given(calls=_calls)
def test_any_interleaving_leaves_the_reference_chains(calls):
    data, _, fresh, _ = base()
    sources = {"copy": data, "fresh": fresh, "far": np.full((2, D), 40.0, dtype=np.float32)}
    pair = twins()
    alive = list(range(N))
    inserted = 0
    for kind, argument in calls:
        if kind == "insert_batch":
            argument = argument[: N - 5 - inserted]  # the id field's headroom
            if not argument:
                continue
            rows = np.stack([sources[source][at] for source, at in argument])
            alive += apply(pair, kind, rows).tolist()
            inserted += len(argument)
        else:
            victims = []
            for position in argument:
                if alive:
                    victims.append(alive.pop(position % len(alive)))
            apply(pair, kind, victims)


# -- the serving path: a catalog scenario on the reference updaters --------------------


def test_a_merge_applies_its_inserts_before_its_deletes():
    """One merge carrying a tombstone and, arriving after it, a copy of the
    tombstoned object: the copy must find the shared head block still full
    and open a new one (the other order tops the shrunken head up)."""
    data = base()[0]
    params = E2LSHParams(n=N, rho=0.35, gamma=0.7, s_factor=8)
    sharded = ShardedIndex.build(
        data, params, n_shards=1, scheme="table", block_size=BLOCK, seed=3
    )
    index = sharded.shards[0].index
    victim = next(
        blocks[0][0][0] for blocks in chains(index).values() if len(blocks[0][0]) == CAPACITY
    )
    twin = ReferenceUpdater(copy.deepcopy(index))
    twin.insert_batch(data[victim][None, :])
    twin.delete(victim)
    updates = [
        UpdateArrival(update_id=0, time_ns=10.0, kind="delete", object_id=victim),
        UpdateArrival(update_id=1, time_ns=20.0, kind="insert", object_id=N, vector=data[victim]),
    ]
    arrivals = [Arrival(query_id=0, time_ns=1_000_000.0, pool_index=0)]
    report = QueryService(sharded).run_arrivals(
        data[:1], arrivals, k=3, updates=updates, ingest=IngestConfig(merge_threshold=2)
    )
    assert (report.merges_completed, report.updates_completed) == (1, 2)
    assert chains(index) == chains(twin.index)


def test_steady_ingest_on_the_reference_updaters(monkeypatch):
    """``steady-ingest`` with the coordinator's updaters swapped for the
    reference: every answer and, after offline compaction, every chain of
    every shard is the same.

    The device time a merge is charged is pinned for both runs.  Left to
    the updaters' own request counts the reference's merges run longer, a
    later delta is snapshotted at another instant, and an insert and a
    delete that shared a merge here (inserts go first) fall into two
    there — the same objects in the same chains, but a block boundary
    apart.  What is compared is the editors, on equal merges.
    """
    real = ingest.IngestCoordinator._write_requests
    monkeypatch.setattr(
        ingest.IngestCoordinator,
        "_write_requests",
        lambda coordinator, shard_id, n_ios: real(coordinator, shard_id, 256),
    )
    spec = build_scenario("steady-ingest", quick=True)
    result = run_scenario(spec)
    monkeypatch.setattr(ingest, "IndexUpdater", ReferenceUpdater)
    other = run_scenario(spec)
    assert result.report.merges_completed == other.report.merges_completed > 0
    assert 0 < result.report.merge_write_ios < other.report.merge_write_ios
    assert 0 < result.report.merge_write_bytes < other.report.merge_write_bytes
    assert result.answers.keys() == other.answers.keys()
    for qid, answer in result.answers.items():
        assert answer.ids.tolist() == other.answers[qid].ids.tolist()
        assert answer.distances.tobytes() == other.answers[qid].distances.tobytes()
        assert answer.stats == other.answers[qid].stats
    for run in (result, other):
        run.service.ingest.compact_now()
    for ours, theirs in zip(result.index.sharded.shards, other.index.sharded.shards):
        assert chains(ours.index) == chains(theirs.index)
        assert ours.index.data.tobytes() == theirs.index.data.tobytes()
        assert ours.global_ids.tolist() == theirs.global_ids.tolist()
