"""On-storage index construction (paper Sec. 5.3).

For every (radius rung, compound hash) pair the builder hashes all
objects, groups them into buckets, writes the buckets as chains of
fixed-size blocks, and finally writes the hash table pointing at the
chain heads.  All per-object work is vectorized: one sort groups the
objects of a rung's L tables, and block images (headers plus 5-byte
object infos) are assembled with NumPy scatter writes and committed
with a single ``store.write`` per table.

What stays in DRAM afterwards mirrors the paper's E2LSHoS runtime: the
hash-table base addresses, the projection bank, and a small per-table
*occupancy bitmap* used to skip I/O for empty buckets (Sec. 4.3 notes
"empty buckets are not counted as it is easy to avoid issuing I/Os for
them").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.e2lsh import GroupedTable
from repro.core.lsh import CompoundHashBank
from repro.core.params import E2LSHParams
from repro.core.radii import RadiusLadder
from repro.layout.bucket import (
    BLOCK_HEADER_SIZE,
    DEFAULT_BLOCK_SIZE,
    NULL_ADDRESS,
    entries_per_block,
)
from repro.layout.hash_table import SLOT_SIZE, OnStorageHashTable
from repro.layout.object_info import OBJECT_INFO_SIZE, ObjectInfoCodec, default_table_bits
from repro.storage.blockstore import BlockStore

__all__ = ["IndexBuilder", "BuiltIndex", "TableHandle", "BuildStats"]


@dataclass(frozen=True)
class TableHandle:
    """DRAM-resident handle of one on-storage hash table."""

    table: OnStorageHashTable
    #: Sorted 32-bit hash values present in this table.  This is the
    #: in-DRAM *occupancy filter*: Sec. 4.3 does not charge I/O for
    #: probes of empty buckets ("it is easy to avoid issuing I/Os for
    #: them"), and an exact membership filter makes the implementation's
    #: I/O count match the paper's N_io accounting bit for bit.  It
    #: costs 4 bytes per object per table, which the DRAM accounting of
    #: Table 6 includes.
    present_values: np.ndarray
    #: Number of non-empty buckets written.
    n_buckets: int
    #: Number of bucket blocks written.
    n_blocks: int
    #: Bytes occupied by this table's bucket blocks (compact allocation).
    bucket_bytes: int = 0

    def contains(self, hash_value: int) -> bool:
        """Exact membership test for a 32-bit compound hash value."""
        position = int(np.searchsorted(self.present_values, hash_value))
        return (
            position < self.present_values.size
            and int(self.present_values[position]) == hash_value
        )


@dataclass
class BuildStats:
    """Aggregate construction statistics (feeds Table 6)."""

    n_tables: int = 0
    n_buckets: int = 0
    n_blocks: int = 0
    table_bytes: int = 0
    bucket_bytes: int = 0

    @property
    def index_storage_bytes(self) -> int:
        """Total on-storage index size (hash tables + buckets)."""
        return self.table_bytes + self.bucket_bytes


@dataclass
class BuiltIndex:
    """Everything E2LSHoS needs at query time."""

    store: BlockStore
    codec: ObjectInfoCodec
    bank: CompoundHashBank
    params: E2LSHParams
    ladder: RadiusLadder
    block_size: int
    #: tables[rung][li]
    tables: list[list[TableHandle]] = field(default_factory=list)
    stats: BuildStats = field(default_factory=BuildStats)

    @property
    def dram_bytes(self) -> int:
        """DRAM kept by the index at runtime (Table 6 "Index mem"):
        table base addresses, occupancy filters, and the hash bank."""
        handles = sum(len(rung) for rung in self.tables)
        filters = sum(h.present_values.nbytes for rung in self.tables for h in rung)
        return handles * 8 + filters + self.bank.memory_bytes


class IndexBuilder:
    """Builds a :class:`BuiltIndex` for one dataset."""

    def __init__(
        self,
        store: BlockStore,
        params: E2LSHParams,
        ladder: RadiusLadder,
        block_size: int = DEFAULT_BLOCK_SIZE,
        table_bits: int | None = None,
        seed: int = 0,
    ) -> None:
        if block_size <= BLOCK_HEADER_SIZE + OBJECT_INFO_SIZE:
            raise ValueError(f"block_size {block_size} too small for any entry")
        self.store = store
        self.params = params
        self.ladder = ladder
        self.block_size = block_size
        self.table_bits = table_bits if table_bits is not None else default_table_bits(params.n)
        self.codec = ObjectInfoCodec(n_objects=params.n, table_bits=self.table_bits)
        self.seed = seed

    def build(self, data: np.ndarray, bank: CompoundHashBank | None = None) -> BuiltIndex:
        """Hash ``data`` and write the full index; returns the handle set.

        Passing ``bank`` reuses hash functions tuned elsewhere (e.g. the
        in-memory index used for accuracy calibration), so the on-storage
        index answers queries identically.
        """
        data = np.ascontiguousarray(data, dtype=np.float32)
        if data.ndim != 2 or data.shape[0] != self.params.n:
            raise ValueError(
                f"data must have shape ({self.params.n}, d), got {data.shape}"
            )
        if bank is None:
            bank = CompoundHashBank.create(
                d=data.shape[1], m=self.params.m, L=self.params.L, w=self.params.w, seed=self.seed
            )
        if bank.m != self.params.m or bank.L != self.params.L:
            raise ValueError(
                f"bank has (m={bank.m}, L={bank.L}), params need "
                f"(m={self.params.m}, L={self.params.L})"
            )
        index = BuiltIndex(
            store=self.store,
            codec=self.codec,
            bank=bank,
            params=self.params,
            ladder=self.ladder,
            block_size=self.block_size,
        )
        projections = bank.project(data)
        for radius in self.ladder:
            hash_values = bank.hash_projections(projections, radius)
            slots, fingerprints = self.codec.split_hash(hash_values)
            present = np.ascontiguousarray(hash_values.T)
            present.sort(axis=1)
            tables = zip(GroupedTable.for_rung(slots), np.ascontiguousarray(fingerprints.T), present)
            index.tables.append([self._build_table(*table) for table in tables])
        index.stats.n_tables = len(index.tables) * self.params.L
        for rung in index.tables:
            for handle in rung:
                index.stats.n_buckets += handle.n_buckets
                index.stats.n_blocks += handle.n_blocks
                index.stats.table_bytes += handle.table.size_bytes
                index.stats.bucket_bytes += handle.bucket_bytes
        return index

    def _build_table(
        self, by_slot: GroupedTable, fingerprints: np.ndarray, present: np.ndarray
    ) -> TableHandle:
        """Write buckets + hash table for one (rung, li) and return its handle.

        ``by_slot``: the objects grouped by table slot; ``present``: the sorted hash values.
        """
        codec = self.codec
        order = by_slot.ids
        sorted_packed = (fingerprints[order] << np.uint64(codec.id_bits)) | order.astype(np.uint64)
        n = order.size

        # Per-bucket extents in the sorted order.
        starts, sizes, bucket_slots = by_slot.offsets[:-1], by_slot.bucket_sizes(), by_slot.keys

        capacity = entries_per_block(self.block_size)
        blocks_per_bucket = -(-sizes // capacity)
        block_offset = np.concatenate(([0], np.cumsum(blocks_per_bucket)))
        total_blocks = int(block_offset[-1])

        # Per-entry placement: which block, which position.
        n_buckets = sizes.size
        bucket_of_entry = np.repeat(np.arange(n_buckets), sizes)
        index_in_bucket = np.arange(n) - starts[bucket_of_entry]
        block_of_entry = block_offset[bucket_of_entry] + index_in_bucket // capacity
        position_in_block = index_in_bucket % capacity

        # Per-block header fields.
        bucket_of_block = np.repeat(np.arange(n_buckets), blocks_per_bucket)
        index_of_block = np.arange(total_blocks) - block_offset[bucket_of_block]
        is_last = index_of_block == blocks_per_bucket[bucket_of_block] - 1
        counts = np.where(
            is_last,
            sizes[bucket_of_block] - (blocks_per_bucket[bucket_of_block] - 1) * capacity,
            capacity,
        ).astype(np.uint64)

        # Compact allocation: each block occupies exactly header + 5 x
        # count bytes.  The paper pads every block to the 512-B device
        # read unit; at our scaled-down densities most buckets hold a
        # single entry, and that padding would inflate the analog's
        # index ~20x past the paper's reported fragmentation.  Timing
        # semantics are unchanged — the query path still issues one
        # block_size-byte read per block — so a trailing guard region
        # keeps those fixed-size reads inside the allocation.
        block_bytes = (BLOCK_HEADER_SIZE + counts * OBJECT_INFO_SIZE).astype(np.int64)
        byte_offset = np.concatenate(([0], np.cumsum(block_bytes)))
        total_bytes = int(byte_offset[-1])
        # The table is allocated here (it precedes its buckets) and
        # written once, below, as its finished image.
        table_base = self.store.allocate(SLOT_SIZE << codec.table_bits)
        table = OnStorageHashTable(self.store, codec.table_bits, table_base)
        base = self.store.allocate(total_bytes + self.block_size)
        block_starts = byte_offset[:-1]
        next_addresses = np.full(total_blocks, NULL_ADDRESS, dtype=np.uint64)
        not_last = ~is_last
        next_addresses[not_last] = (base + byte_offset[1:][not_last]).astype(np.uint64)

        # Assemble all block images in one buffer, then write once.
        buffer = np.zeros(total_bytes, dtype=np.uint8)
        for byte in range(8):
            buffer[block_starts + byte] = ((next_addresses >> np.uint64(8 * byte)) & np.uint64(0xFF)).astype(np.uint8)
        for byte in range(2):
            buffer[block_starts + 8 + byte] = ((counts >> np.uint64(8 * byte)) & np.uint64(0xFF)).astype(np.uint8)
        entry_offsets = (
            block_starts[block_of_entry]
            + BLOCK_HEADER_SIZE
            + position_in_block * OBJECT_INFO_SIZE
        )
        for byte in range(OBJECT_INFO_SIZE):
            buffer[entry_offsets + byte] = ((sorted_packed >> np.uint64(8 * byte)) & np.uint64(0xFF)).astype(np.uint8)
        self.store.write(base, buffer.tobytes())

        # Hash table: slot -> chain head address.  Distinct hash values
        # sharing a slot share one chain (the fingerprint separates them
        # at read time), so assign the chain head per unique slot.
        table_image = np.full(table.n_slots, NULL_ADDRESS, dtype=np.uint64)
        table_image[bucket_slots] = (base + block_starts[block_offset[:-1]]).astype(np.uint64)
        table.write_table(table_image)

        return TableHandle(
            table=table,
            present_values=present[np.concatenate(([True], present[1:] != present[:-1]))],
            n_buckets=int(n_buckets),
            n_blocks=total_blocks,
            bucket_bytes=total_bytes + self.block_size,
        )
