"""Tests for repro.storage.blockstore."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.blockstore import FileBlockStore, MemoryBlockStore


@pytest.fixture(params=["memory", "file"])
def store(request, tmp_path):
    if request.param == "memory":
        yield MemoryBlockStore()
    else:
        with FileBlockStore(tmp_path / "store.bin") as file_store:
            yield file_store


def test_allocate_returns_monotonic_addresses(store):
    a = store.allocate(100)
    b = store.allocate(50)
    assert a == 0
    assert b == 100
    assert store.size_bytes == 150


def test_write_read_roundtrip(store):
    address = store.allocate(16)
    store.write(address, b"hello world 1234")
    assert store.read(address, 16) == b"hello world 1234"
    assert store.read(address + 6, 5) == b"world"


def test_fresh_allocation_is_zeroed(store):
    address = store.allocate(32)
    assert store.read(address, 32) == b"\x00" * 32


def test_out_of_bounds_rejected(store):
    store.allocate(8)
    with pytest.raises(ValueError):
        store.read(4, 8)
    with pytest.raises(ValueError):
        store.write(4, b"too long!")
    with pytest.raises(ValueError):
        store.read(-1, 2)


def test_allocate_rejects_nonpositive(store):
    for bad in (0, -5):
        with pytest.raises(ValueError):
            store.allocate(bad)


def test_file_store_persists_to_disk(tmp_path):
    path = tmp_path / "persist.bin"
    with FileBlockStore(path) as store:
        address = store.allocate(4)
        store.write(address, b"abcd")
    assert path.read_bytes() == b"abcd"


def test_file_store_reopens_existing(tmp_path):
    path = tmp_path / "reopen.bin"
    with FileBlockStore(path) as store:
        store.write(store.allocate(8), b"deadbeef")
    with FileBlockStore(path) as reopened:
        assert reopened.size_bytes == 8
        assert reopened.read(0, 8) == b"deadbeef"
        # New allocations append after the existing content.
        assert reopened.allocate(4) == 8


def test_write_accounting(store):
    assert store.bytes_written == 0
    address = store.allocate(64)
    store.write(address, b"x" * 10)
    store.write(address + 10, b"y" * 6)
    assert store.bytes_written == 16
    assert store.write_count == 2


@settings(max_examples=50, deadline=None)
@given(
    chunks=st.lists(st.binary(min_size=1, max_size=200), min_size=1, max_size=20),
)
def test_property_many_writes_roundtrip(chunks):
    store = MemoryBlockStore()
    placed = []
    for chunk in chunks:
        address = store.allocate(len(chunk))
        store.write(address, chunk)
        placed.append((address, chunk))
    for address, chunk in placed:
        assert store.read(address, len(chunk)) == chunk


def test_read_many_is_read_per_request_in_order(store):
    address = store.allocate(64)
    store.write(address, bytes(range(64)))
    requests = [(40, 8), (0, 16), (40, 8), (63, 1), (8, 0)]
    assert store.read_many(requests) == [store.read(a, n) for a, n in requests]
    assert store.read_many(iter(requests[:2])) == [bytes(range(40, 48)), bytes(range(16))]
    assert store.read_many([]) == []


def test_read_many_names_the_request_outside_the_store_and_leaves_it_growable(store):
    store.allocate(32)
    with pytest.raises(ValueError, match=r"request 2 of the batch: span \[30, 34\) outside"):
        store.read_many([(0, 8), (8, 8), (30, 4), (0, 8)])
    with pytest.raises(ValueError, match="request 0 of the batch: span"):
        store.read_many([(-1, 4)])
    # Neither a finished nor a failed batch keeps the buffer pinned.
    assert store.read_many([(0, 4)]) == [b"\x00" * 4]
    assert store.allocate(1 << 16) == 32
    assert store.read(32, 4) == b"\x00" * 4


def test_read_matrix_is_read_many_of_equal_spans_byte_for_byte(store):
    address = store.allocate(200)
    store.write(address, bytes(range(200)))
    for nbytes in (1, 8, 31, 200):
        starts = [200 - nbytes, 0, (200 - nbytes) // 2, 0, 200 - nbytes]
        for addresses in (starts, np.array(starts), np.array(starts, dtype=np.uint64)):
            matrix = store.read_matrix(addresses, nbytes)
            assert matrix.dtype == np.uint8 and matrix.shape == (5, nbytes)
            assert [row.tobytes() for row in matrix] == store.read_many(
                [(start, nbytes) for start in starts]
            )
    empty = store.read_matrix([], 512)  # wider than the store: nothing is read
    assert empty.dtype == np.uint8 and empty.shape == (0, 512)
    assert store.read_matrix(np.empty(0, dtype=np.int64), 8).shape == (0, 8)


def test_read_matrix_names_the_bad_request_reads_nothing_and_leaves_the_store_growable(
    store, monkeypatch
):
    store.allocate(32)
    reads, real = [], store._read

    def noted_read(address, nbytes):
        reads.append(address)
        return real(address, nbytes)

    monkeypatch.setattr(store, "_read", noted_read)
    with pytest.raises(ValueError, match=r"request 2 of the batch: span \[30, 34\) outside"):
        store.read_matrix([0, 8, 30, 40], 4)
    with pytest.raises(ValueError, match=r"request 1 of the batch: span \[-1, 3\) outside"):
        store.read_matrix(np.array([0, -1, -2]), 4)
    with pytest.raises(ValueError, match="request 0 of the batch: span"):
        store.read_matrix(np.array([1 << 63], dtype=np.uint64), 4)
    with pytest.raises(ValueError, match="request 0 of the batch: span"):
        store.read_matrix([0], 33)
    for nbytes in (0, -8):
        with pytest.raises(ValueError, match=f"request 0 of the batch: length must be .* {nbytes}"):
            store.read_matrix([0, 4], nbytes)
    assert reads == []
    monkeypatch.undo()
    # Neither a finished nor a failed gather keeps the buffer pinned.
    assert store.read_matrix([0, 28], 4).tolist() == [[0] * 4] * 2
    assert store.allocate(1 << 16) == 32
    assert store.read_matrix([32], 4).tobytes() == b"\x00" * 4
