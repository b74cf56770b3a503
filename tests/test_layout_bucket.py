"""Tests for repro.layout.bucket (512-byte bucket blocks, Figure 9)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.layout.bucket import (
    BLOCK_HEADER_SIZE,
    DEFAULT_BLOCK_SIZE,
    NULL_ADDRESS,
    decode_block,
    decode_blocks,
    encode_bucket,
    entries_per_block,
    read_bucket,
)
from repro.layout.object_info import ObjectInfoCodec
from repro.storage.blockstore import MemoryBlockStore


@pytest.fixture
def codec():
    return ObjectInfoCodec(n_objects=1 << 20, table_bits=16)


def test_paper_geometry():
    # 512-byte block, 16-byte header, 5-byte entries -> 99 per block.
    assert entries_per_block(512) == 99
    assert entries_per_block(128) == 22
    assert entries_per_block(4096) == 816
    assert BLOCK_HEADER_SIZE == 16


def test_entries_per_block_rejects_tiny():
    with pytest.raises(ValueError):
        entries_per_block(BLOCK_HEADER_SIZE)


def test_empty_bucket_is_null(codec):
    store = MemoryBlockStore()
    head = encode_bucket(store, codec, np.empty(0, np.uint64), np.empty(0, np.uint64))
    assert head == NULL_ADDRESS
    assert store.size_bytes == 0


def test_single_block_roundtrip(codec):
    store = MemoryBlockStore()
    ids = np.arange(50, dtype=np.uint64)
    fps = (ids * 7) % (1 << codec.fingerprint_bits)
    head = encode_bucket(store, codec, ids, fps)
    block = decode_block(codec, store.read(head, DEFAULT_BLOCK_SIZE))
    assert not block.has_next
    assert block.count == 50
    np.testing.assert_array_equal(block.object_ids, ids.astype(np.int64))
    np.testing.assert_array_equal(block.fingerprints, fps)


def test_chained_blocks(codec):
    store = MemoryBlockStore()
    n = 250  # needs ceil(250/99) = 3 blocks
    ids = np.arange(n, dtype=np.uint64)
    fps = np.zeros(n, dtype=np.uint64)
    head = encode_bucket(store, codec, ids, fps)
    assert store.size_bytes == 3 * DEFAULT_BLOCK_SIZE
    out_ids, _ = read_bucket(store, codec, head)
    np.testing.assert_array_equal(out_ids, ids.astype(np.int64))
    first = decode_block(codec, store.read(head, DEFAULT_BLOCK_SIZE))
    assert first.has_next and first.count == 99


def test_read_bucket_max_blocks_limits_chain(codec):
    store = MemoryBlockStore()
    ids = np.arange(250, dtype=np.uint64)
    head = encode_bucket(store, codec, ids, np.zeros(250, np.uint64))
    partial, _ = read_bucket(store, codec, head, max_blocks=1)
    assert partial.size == 99


def test_block_is_exactly_block_size(codec):
    store = MemoryBlockStore()
    encode_bucket(store, codec, np.arange(3, dtype=np.uint64), np.zeros(3, np.uint64))
    assert store.size_bytes == DEFAULT_BLOCK_SIZE


def test_decode_rejects_garbage(codec):
    with pytest.raises(ValueError):
        decode_block(codec, b"short")
    # Header claiming more entries than the block holds.
    bogus = (99999).to_bytes(8, "little") + (400).to_bytes(2, "little") + b"\x00" * 6
    with pytest.raises(ValueError):
        decode_block(codec, bogus + b"\x00" * 100)


@settings(max_examples=60, deadline=None)
@given(
    n_entries=st.integers(min_value=1, max_value=500),
    block_size=st.sampled_from([128, 512, 4096]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_property_roundtrip_any_size(n_entries, block_size, seed):
    rng = np.random.default_rng(seed)
    codec = ObjectInfoCodec(n_objects=1 << 20, table_bits=16)
    store = MemoryBlockStore()
    ids = rng.integers(0, 1 << 20, size=n_entries, dtype=np.uint64)
    fps = rng.integers(0, 1 << codec.fingerprint_bits, size=n_entries, dtype=np.uint64)
    head = encode_bucket(store, codec, ids, fps, block_size=block_size)
    out_ids, out_fps = read_bucket(store, codec, head, block_size=block_size)
    np.testing.assert_array_equal(out_ids, ids.astype(np.int64))
    np.testing.assert_array_equal(out_fps, fps)
    expected_blocks = -(-n_entries // entries_per_block(block_size))
    assert store.size_bytes == expected_blocks * block_size


def chain_blocks(store, codec, head, block_size):
    raws, address = [], head
    while address != NULL_ADDRESS:
        raws.append(store.read(address, block_size))
        address = decode_block(codec, raws[-1]).next_address
    return raws


@pytest.mark.parametrize("block_size", [31, 128, 512])
def test_decode_blocks_is_decode_block_per_block(codec, block_size):
    store = MemoryBlockStore()
    rng = np.random.default_rng(block_size)
    raws = []
    for n_entries in (1, 2 * entries_per_block(block_size) + 1, entries_per_block(block_size)):
        ids = rng.integers(0, 1 << 20, n_entries).astype(np.uint64)
        fps = rng.integers(0, 1 << codec.fingerprint_bits, n_entries).astype(np.uint64)
        head = encode_bucket(store, codec, ids, fps, block_size)
        raws += chain_blocks(store, codec, head, block_size)
    # An emptied block keeps its header and whatever bytes were behind it.
    raws.append(NULL_ADDRESS.to_bytes(8, "little") + bytes(8) + raws[0][16:])
    nexts, counts, ids, fps, valid = decode_blocks(codec, raws, block_size)
    assert ids.dtype == np.int64 and fps.dtype == np.uint64 and valid.dtype == bool
    assert ids.shape == fps.shape == valid.shape == (len(raws), entries_per_block(block_size))
    for j, raw in enumerate(raws):
        block = decode_block(codec, raw)
        assert (int(nexts[j]), int(counts[j])) == (block.next_address, block.count)
        assert valid[j].tolist() == [True] * block.count + [False] * (ids.shape[1] - block.count)
        assert ids[j, valid[j]].tolist() == block.object_ids.tolist()
        assert fps[j, valid[j]].tolist() == block.fingerprints.tolist()
    assert int(counts[-1]) == 0 and not valid[-1].any()


def test_decode_blocks_of_empty_blocks_has_no_columns(codec):
    empty = NULL_ADDRESS.to_bytes(8, "little") + bytes(23)
    nexts, counts, ids, fps, valid = decode_blocks(codec, [empty, empty], 31)
    assert nexts.tolist() == [NULL_ADDRESS] * 2 and counts.tolist() == [0, 0]
    assert ids.shape == fps.shape == valid.shape == (2, 0)


def test_decode_blocks_names_the_block_whose_count_overruns_it(codec):
    good = NULL_ADDRESS.to_bytes(8, "little") + (3).to_bytes(2, "little") + bytes(21)
    bad = NULL_ADDRESS.to_bytes(8, "little") + (4).to_bytes(2, "little") + bytes(21)
    with pytest.raises(ValueError, match="block 2 of the batch claims 4 entries but is only 31"):
        decode_blocks(codec, [good, good, bad, good], 31)
