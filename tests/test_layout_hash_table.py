"""Tests for repro.layout.hash_table."""

import numpy as np
import pytest

from repro.layout.bucket import NULL_ADDRESS
from repro.layout.hash_table import SLOT_SIZE, OnStorageHashTable
from repro.storage.blockstore import MemoryBlockStore


def test_initialized_to_null():
    store = MemoryBlockStore()
    table = OnStorageHashTable(store, table_bits=8)
    assert table.n_slots == 256
    assert table.size_bytes == 256 * SLOT_SIZE
    for slot in (0, 17, 255):
        assert table.read_slot(slot) == NULL_ADDRESS


def test_write_and_read_slot():
    store = MemoryBlockStore()
    table = OnStorageHashTable(store, table_bits=4)
    table.write_slot(3, 0xABCDEF)
    assert table.read_slot(3) == 0xABCDEF
    assert table.read_slot(2) == NULL_ADDRESS


def test_parse_slot_matches_read():
    store = MemoryBlockStore()
    table = OnStorageHashTable(store, table_bits=4)
    table.write_slot(1, 12345)
    raw = store.read(table.slot_address(1), SLOT_SIZE)
    assert OnStorageHashTable.parse_slot(raw) == 12345


def test_bulk_write_table():
    store = MemoryBlockStore()
    table = OnStorageHashTable(store, table_bits=6)
    image = np.full(64, NULL_ADDRESS, dtype=np.uint64)
    image[10] = 111
    image[63] = 222
    table.write_table(image)
    assert table.read_slot(10) == 111
    assert table.read_slot(63) == 222
    assert table.read_slot(0) == NULL_ADDRESS
    with pytest.raises(ValueError):
        table.write_table(np.zeros(10, dtype=np.uint64))


def test_table_on_a_region_the_caller_allocated_writes_nothing():
    """The builder's path: allocate, then one write of the finished image."""
    store = MemoryBlockStore()
    base = store.allocate(16 * SLOT_SIZE)
    table = OnStorageHashTable(store, table_bits=4, base_address=base)
    assert (table.base_address, store.size_bytes, store.write_count) == (base, 128, 0)
    image = np.full(16, NULL_ADDRESS, dtype=np.uint64)
    image[5] = 4242
    table.write_table(image)
    assert (store.write_count, store.bytes_written) == (1, table.size_bytes)
    assert [table.read_slot(s) for s in (0, 5, 15)] == [NULL_ADDRESS, 4242, NULL_ADDRESS]
    # Created without an address it allocates, and starts as all NULL
    # (zero-filled storage is a valid address).
    fresh = OnStorageHashTable(store, table_bits=4)
    assert (fresh.base_address, store.write_count, store.bytes_written) == (128, 2, 256)
    assert fresh.read_slot(5) == NULL_ADDRESS
    for outside in (-8, 136, 256):
        with pytest.raises(ValueError, match=r"hash table spans \[-?\d+, \d+\), the block store holds 256"):
            OnStorageHashTable(store, table_bits=4, base_address=outside)


def test_write_slots_bulk_pairs():
    store = MemoryBlockStore()
    table = OnStorageHashTable(store, table_bits=5)
    table.write_slots(np.array([1, 2, 3]), np.array([10, 20, 30], dtype=np.uint64))
    assert [table.read_slot(s) for s in (1, 2, 3)] == [10, 20, 30]
    with pytest.raises(ValueError):
        table.write_slots(np.array([1]), np.array([1, 2], dtype=np.uint64))


def test_slot_bounds_checked():
    store = MemoryBlockStore()
    table = OnStorageHashTable(store, table_bits=4)
    with pytest.raises(ValueError):
        table.slot_address(16)
    with pytest.raises(ValueError):
        table.slot_address(-1)


def test_two_tables_do_not_overlap():
    store = MemoryBlockStore()
    first = OnStorageHashTable(store, table_bits=4)
    second = OnStorageHashTable(store, table_bits=4)
    first.write_slot(0, 1)
    second.write_slot(0, 2)
    assert first.read_slot(0) == 1
    assert second.read_slot(0) == 2


def test_invalid_bits():
    store = MemoryBlockStore()
    for bad in (0, 33):
        with pytest.raises(ValueError):
            OnStorageHashTable(store, table_bits=bad)
