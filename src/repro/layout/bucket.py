"""Bucket block codec (paper Sec. 5.1, Figure 9).

A bucket is a linked list of fixed-size blocks.  Each block is::

    +----------------+---------------+-----------+------------------------+
    | next address   | entry count   | reserved  | object infos           |
    | 8 bytes        | 2 bytes       | 6 bytes   | 5 bytes each           |
    +----------------+---------------+-----------+------------------------+

With the default 512-byte block this leaves room for
``(512 - 16) / 5 = 99`` object infos.  The paper deliberately keeps the
block small (512 B is the minimum NVMe read unit) because the analysis
in Sec. 4.3 shows small blocks do not raise the IOPS requirement while
saving bandwidth on partially-read buckets.
"""

from __future__ import annotations

import struct
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.layout.object_info import OBJECT_INFO_SIZE, ObjectInfoCodec
from repro.storage.blockstore import BlockStore

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "BLOCK_HEADER_SIZE",
    "NULL_ADDRESS",
    "BucketBlock",
    "entries_per_block",
    "encode_bucket",
    "decode_block",
    "decode_blocks",
    "read_bucket",
]

DEFAULT_BLOCK_SIZE = 512
BLOCK_HEADER_SIZE = 16
#: Address marking "no next block" / "empty bucket" (0 is a valid address).
NULL_ADDRESS = 0xFFFF_FFFF_FFFF_FFFF

_HEADER = struct.Struct("<QH6x")


def entries_per_block(block_size: int = DEFAULT_BLOCK_SIZE) -> int:
    """Object infos that fit in one block of ``block_size`` bytes."""
    capacity = (block_size - BLOCK_HEADER_SIZE) // OBJECT_INFO_SIZE
    if capacity < 1:
        raise ValueError(f"block_size {block_size} cannot hold any object info")
    return capacity


@dataclass(frozen=True)
class BucketBlock:
    """One decoded bucket block."""

    next_address: int
    object_ids: np.ndarray
    fingerprints: np.ndarray

    @property
    def count(self) -> int:
        """Number of object infos stored in this block."""
        return int(self.object_ids.size)

    @property
    def has_next(self) -> bool:
        """Whether another block follows in the chain."""
        return self.next_address != NULL_ADDRESS


def encode_bucket(
    store: BlockStore,
    codec: ObjectInfoCodec,
    object_ids: np.ndarray,
    fingerprints: np.ndarray,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> int:
    """Write a bucket as a block chain; return the first block's address.

    Blocks are allocated front-to-back so the chain is read in insertion
    order; the last block's next pointer is :data:`NULL_ADDRESS`.
    Returns :data:`NULL_ADDRESS` for an empty bucket.
    """
    total = int(np.asarray(object_ids).size)
    if total == 0:
        return NULL_ADDRESS
    capacity = entries_per_block(block_size)
    n_blocks = -(-total // capacity)
    addresses = [store.allocate(block_size) for _ in range(n_blocks)]
    for i, address in enumerate(addresses):
        lo = i * capacity
        hi = min(lo + capacity, total)
        next_address = addresses[i + 1] if i + 1 < n_blocks else NULL_ADDRESS
        payload = codec.pack(object_ids[lo:hi], fingerprints[lo:hi])
        block = _HEADER.pack(next_address, hi - lo) + payload
        block += b"\x00" * (block_size - len(block))
        store.write(address, block)
    return addresses[0]


def decode_block(codec: ObjectInfoCodec, raw: bytes) -> BucketBlock:
    """Parse one raw block into a :class:`BucketBlock`."""
    if len(raw) < BLOCK_HEADER_SIZE:
        raise ValueError(f"block of {len(raw)} bytes is shorter than the header")
    next_address, count = _HEADER.unpack_from(raw)
    start = BLOCK_HEADER_SIZE
    end = start + count * OBJECT_INFO_SIZE
    if end > len(raw):
        raise ValueError(f"block claims {count} entries but is only {len(raw)} bytes")
    object_ids, fingerprints = codec.unpack(raw[start:end])
    return BucketBlock(next_address=next_address, object_ids=object_ids, fingerprints=fingerprints)


def decode_blocks(
    codec: ObjectInfoCodec, raws: Sequence[bytes] | np.ndarray, block_size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Parse a batch of ``block_size``-byte blocks — a list of them, or the
    rows of a ``(B, block_size)`` uint8 matrix — in one pass.

    Returns ``(next_addresses, counts, object_ids, fingerprints, valid)``:
    the first two of shape ``(B,)``, the rest ``(B, width)`` with ``width``
    the largest count; ``valid[j, e]`` says entry ``e`` of block ``j`` is
    within its count (the others decode the block's padding).
    """
    if isinstance(raws, np.ndarray):
        blocks = raws
    else:
        blocks = np.frombuffer(b"".join(raws), dtype=np.uint8).reshape(len(raws), block_size)
    next_addresses = blocks[:, :8].view("<u8")[:, 0]
    counts = blocks[:, 8:10].view("<u2")[:, 0]
    width = int(counts.max(initial=0))
    end = BLOCK_HEADER_SIZE + width * OBJECT_INFO_SIZE
    if end > block_size:
        worst = int(counts.argmax())
        raise ValueError(
            f"block {worst} of the batch claims {width} entries but is only {block_size} bytes"
        )
    object_ids, fingerprints = codec.unpack(blocks[:, BLOCK_HEADER_SIZE:end].tobytes())
    shape = (len(blocks), width)
    valid = np.arange(width) < counts[:, None]
    return next_addresses, counts, object_ids.reshape(shape), fingerprints.reshape(shape), valid


def read_bucket(
    store: BlockStore,
    codec: ObjectInfoCodec,
    first_address: int,
    block_size: int = DEFAULT_BLOCK_SIZE,
    max_blocks: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Read a whole bucket chain synchronously (testing / tooling path).

    The query pipeline reads chains asynchronously through the engine;
    this helper exists for index verification and unit tests.
    """
    ids: list[np.ndarray] = []
    fps: list[np.ndarray] = []
    address = first_address
    blocks_read = 0
    while address != NULL_ADDRESS:
        if max_blocks is not None and blocks_read >= max_blocks:
            break
        block = decode_block(codec, store.read(address, block_size))
        ids.append(block.object_ids)
        fps.append(block.fingerprints)
        address = block.next_address
        blocks_read += 1
    if not ids:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.astype(np.uint64)
    return np.concatenate(ids), np.concatenate(fps)
