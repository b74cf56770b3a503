"""Tests for repro.layout.builder — the on-storage index construction."""

import numpy as np
import pytest

from repro.core.params import E2LSHParams
from repro.core.radii import RadiusLadder
from repro.layout.bucket import NULL_ADDRESS, read_bucket
from repro.layout.builder import IndexBuilder
from repro.storage.blockstore import MemoryBlockStore


@pytest.fixture(scope="module")
def built():
    rng = np.random.default_rng(5)
    data = rng.normal(size=(800, 16)).astype(np.float32) * 2
    params = E2LSHParams(n=800, rho=0.3)
    ladder = RadiusLadder.for_data(data, params.c)
    builder = IndexBuilder(MemoryBlockStore(), params, ladder, seed=3)
    return builder.build(data), data, builder


def test_structure_dimensions(built):
    index, data, builder = built
    assert len(index.tables) == index.ladder.rungs
    assert all(len(rung) == index.params.L for rung in index.tables)
    assert index.stats.n_tables == index.ladder.rungs * index.params.L


def test_every_object_retrievable_from_every_table(built):
    """Each object must appear in its bucket in every (rung, li) table."""
    index, data, builder = built
    projections = index.bank.project(data)
    for rung_index in (0, len(index.ladder) - 1):
        radius = index.ladder[rung_index]
        hash_values = index.bank.mix32(index.bank.codes_for_radius(projections, radius))
        for li in (0, index.params.L - 1):
            handle = index.tables[rung_index][li]
            slots, fps = index.codec.split_hash(hash_values[:, li])
            for obj in (0, 399, 799):
                slot = int(slots[obj])
                head = handle.table.read_slot(slot)
                assert head != NULL_ADDRESS
                ids, bucket_fps = read_bucket(index.store, index.codec, head)
                matches = ids[bucket_fps == fps[obj]]
                assert obj in matches.tolist()


def test_occupancy_filter_exact(built):
    """contains() answers exactly 'is this hash value in the table'."""
    index, data, builder = built
    handle = index.tables[0][0]
    present = handle.present_values
    assert handle.contains(int(present[0]))
    assert handle.contains(int(present[-1]))
    # A value not in the sorted array must be rejected.
    probe = int(present[0]) + 1
    expected = probe in set(present.tolist())
    assert handle.contains(probe) == expected


def test_stats_account_storage(built):
    index, data, builder = built
    stats = index.stats
    assert stats.index_storage_bytes == stats.table_bytes + stats.bucket_bytes
    # Compact allocation: each block takes between a bare header and a
    # full block_size (plus one guard block per table).
    assert stats.bucket_bytes <= stats.n_blocks * index.block_size + stats.n_tables * index.block_size
    assert stats.bucket_bytes >= stats.n_blocks * 16
    # Every (rung, table) wrote one table of 2^u slots.
    assert stats.table_bytes == stats.n_tables * (1 << builder.table_bits) * 8
    # All n objects land in each table; blocks must cover them.
    assert stats.n_blocks >= stats.n_buckets


def test_build_writes_every_byte_once(built):
    """Two writes per table — its finished slots, its buckets — and no
    byte twice: ``bytes_written`` is the endurance cost of a rebuild
    (Sec. 7), so a NULL image overwritten a moment later must not count.
    """
    index, data, builder = built
    stats = index.stats
    assert index.store.write_count == 2 * stats.n_tables
    # The guard block after each bucket region is allocated, never written.
    written = stats.table_bytes + stats.bucket_bytes - stats.n_tables * index.block_size
    assert index.store.bytes_written == written
    assert index.store.size_bytes == stats.index_storage_bytes


def test_dram_accounting_includes_filters(built):
    index, data, builder = built
    filters = sum(h.present_values.nbytes for rung in index.tables for h in rung)
    assert index.dram_bytes >= filters
    assert index.dram_bytes < index.stats.index_storage_bytes


def test_builder_rejects_mismatched_data():
    params = E2LSHParams(n=100, rho=0.3)
    ladder = RadiusLadder.for_extent(1.0, 4, params.c)
    builder = IndexBuilder(MemoryBlockStore(), params, ladder)
    with pytest.raises(ValueError):
        builder.build(np.zeros((50, 4), dtype=np.float32))


def test_builder_rejects_tiny_blocks():
    params = E2LSHParams(n=10, rho=0.3)
    ladder = RadiusLadder.for_extent(1.0, 4, params.c)
    with pytest.raises(ValueError):
        IndexBuilder(MemoryBlockStore(), params, ladder, block_size=16)


def test_bank_mismatch_rejected():
    from repro.core.lsh import CompoundHashBank

    params = E2LSHParams(n=100, rho=0.3)
    ladder = RadiusLadder.for_extent(1.0, 4, params.c)
    builder = IndexBuilder(MemoryBlockStore(), params, ladder)
    wrong_bank = CompoundHashBank.create(d=4, m=params.m + 1, L=params.L, w=params.w, seed=0)
    with pytest.raises(ValueError):
        builder.build(np.zeros((100, 4), dtype=np.float32), bank=wrong_bank)


def test_alternate_block_size_roundtrip():
    rng = np.random.default_rng(9)
    data = rng.normal(size=(300, 8)).astype(np.float32)
    params = E2LSHParams(n=300, rho=0.3)
    ladder = RadiusLadder.for_data(data, params.c)
    builder = IndexBuilder(MemoryBlockStore(), params, ladder, block_size=128, seed=1)
    index = builder.build(data)
    handle = index.tables[-1][0]
    # At the largest radius most objects share few buckets -> chains.
    head = handle.table.read_slot(
        int(index.codec.split_hash(handle.present_values.astype(np.uint64))[0][0])
    )
    assert head != NULL_ADDRESS
    ids, _ = read_bucket(index.store, index.codec, head, block_size=128)
    assert ids.size > 0
