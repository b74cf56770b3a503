"""Reference implementations of the per-table index builds (test-only).

These are ``GroupedTable.__init__`` (one stable argsort + ``diff`` per
table) and ``IndexBuilder.build`` / ``_build_table`` (one stable argsort
of the slots and one ``np.unique`` per table, the hash table written
after its buckets) exactly as they stood before a rung's tables were
grouped by one packed-key sort.  ``tests/test_build_oracle.py`` holds
the production code to them: every table array in value and dtype,
every stored byte, every handle field.  Nothing under ``src/`` imports
this module.
"""

from __future__ import annotations

import numpy as np

from repro.core.lsh import CompoundHashBank
from repro.layout.bucket import BLOCK_HEADER_SIZE, NULL_ADDRESS, entries_per_block
from repro.layout.builder import BuiltIndex, IndexBuilder, TableHandle
from repro.layout.hash_table import OnStorageHashTable
from repro.layout.object_info import OBJECT_INFO_SIZE

__all__ = ["ReferenceGroupedTable", "ReferenceIndexBuilder"]


# -- core/e2lsh.py ----------------------------------------------------------------


class ReferenceGroupedTable:
    """One (rung, table) bucket map in CSR form."""

    __slots__ = ("keys", "offsets", "ids")

    def __init__(self, hash_values: np.ndarray) -> None:
        order = np.argsort(hash_values, kind="stable")
        sorted_values = hash_values[order]
        boundaries = np.flatnonzero(np.diff(sorted_values)) + 1
        self.keys = sorted_values[np.concatenate(([0], boundaries))] if sorted_values.size else sorted_values
        # int32/uint32 throughout: one table stores n entries and the
        # experiments keep hundreds of tables alive, so width matters.
        self.offsets = np.concatenate(([0], boundaries, [sorted_values.size])).astype(np.int32)
        self.ids = order.astype(np.int32)


# -- layout/builder.py ------------------------------------------------------------


class ReferenceIndexBuilder(IndexBuilder):
    """``IndexBuilder`` with the one-table-at-a-time ``build`` bodies."""

    def build(self, data: np.ndarray, bank: CompoundHashBank | None = None) -> BuiltIndex:
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
        object_ids = np.arange(self.params.n, dtype=np.uint64)
        for radius in self.ladder:
            hash_values = bank.hash_projections(projections, radius)
            rung_tables = [
                self._build_table(hash_values[:, li], object_ids) for li in range(self.params.L)
            ]
            index.tables.append(rung_tables)
        index.stats.n_tables = len(index.tables) * self.params.L
        for rung in index.tables:
            for handle in rung:
                index.stats.n_buckets += handle.n_buckets
                index.stats.n_blocks += handle.n_blocks
                index.stats.table_bytes += handle.table.size_bytes
                index.stats.bucket_bytes += handle.bucket_bytes
        return index

    def _build_table(self, hash_values: np.ndarray, object_ids: np.ndarray) -> TableHandle:
        """Write buckets + hash table for one (rung, li) and return its handle."""
        codec = self.codec
        slots, fingerprints = codec.split_hash(hash_values)
        packed = (fingerprints << np.uint64(codec.id_bits)) | object_ids

        order = np.argsort(slots, kind="stable")
        sorted_slots = slots[order].astype(np.int64)
        sorted_packed = packed[order]
        n = sorted_slots.size

        table = OnStorageHashTable(self.store, codec.table_bits)
        if n == 0:
            return TableHandle(
                table=table,
                present_values=np.empty(0, dtype=np.uint32),
                n_buckets=0,
                n_blocks=0,
                bucket_bytes=0,
            )

        # Per-bucket extents in the sorted order.
        boundaries = np.flatnonzero(np.diff(sorted_slots)) + 1
        starts = np.concatenate(([0], boundaries))
        sizes = np.diff(np.concatenate((starts, [n])))
        bucket_slots = sorted_slots[starts]

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

        block_bytes = (BLOCK_HEADER_SIZE + counts * OBJECT_INFO_SIZE).astype(np.int64)
        byte_offset = np.concatenate(([0], np.cumsum(block_bytes)))
        total_bytes = int(byte_offset[-1])
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
        head_addresses = (base + block_starts[block_offset[:-1]]).astype(np.uint64)
        table_image[bucket_slots] = head_addresses
        table.write_table(table_image)

        return TableHandle(
            table=table,
            present_values=np.unique(hash_values.astype(np.uint32)),
            n_buckets=int(n_buckets),
            n_blocks=total_blocks,
            bucket_bytes=total_bytes + self.block_size,
        )
