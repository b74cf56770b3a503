"""Incremental index maintenance (paper Sec. 7, "Storage-specific issues").

The paper notes that one advantage of LSH over graph/tree ANNS is an
index that is "easy to maintain and update", and that on SSDs the write
volume matters because it consumes device endurance: "the impact of
object insertion and deletion is small, [but] rebuilding the entire
index should be done sparingly".

:class:`IndexUpdater` implements that maintenance path on a built
:class:`~repro.core.e2lshos.E2LSHoSIndex`:

- **insert**: hash the new objects, and for every (radius, table)
  append them to their bucket chains — a read-modify-write of the head
  block when it has room, or a freshly allocated block prepended to the
  chain when it does not.  Per object this writes O(L x r) small blocks,
  tiny compared to rebuilding the whole index.
- **delete**: locate the object's entry in every chain and rewrite the
  affected block with the entry removed (plus a DRAM tombstone so
  queries drop in-flight candidates immediately).

The block store counts every byte written, so the endurance ablation
benchmark can compare incremental maintenance against full rebuilds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.e2lshos import E2LSHoSIndex
from repro.layout.builder import TableHandle
from repro.layout.bucket import (
    BLOCK_HEADER_SIZE,
    NULL_ADDRESS,
    decode_block,
)
from repro.layout.object_info import OBJECT_INFO_SIZE

__all__ = ["IndexUpdater", "UpdateStats"]

import struct

_HEADER = struct.Struct("<QH6x")


@dataclass
class UpdateStats:
    """What maintenance has done so far."""

    inserted: int = 0
    deleted: int = 0
    blocks_rewritten: int = 0
    blocks_allocated: int = 0
    #: Head/chain blocks read during read-modify-write maintenance.
    blocks_read: int = 0

    @property
    def io_requests(self) -> int:
        """Device requests maintenance cost (reads + block writes)."""
        return self.blocks_read + self.blocks_rewritten + self.blocks_allocated


class IndexUpdater:
    """Insert/delete objects on a live on-storage index."""

    def __init__(self, index: E2LSHoSIndex) -> None:
        self.index = index
        self.stats = UpdateStats()
        self._deleted: set[int] = set()

    @property
    def capacity(self) -> int:
        """Largest object ID the 5-byte object info can address."""
        return (1 << self.index.built.codec.id_bits) - 1

    @property
    def deleted_ids(self) -> frozenset[int]:
        """Tombstoned object IDs (filtered from query candidates)."""
        return frozenset(self._deleted)

    # -- insertion -------------------------------------------------------------

    def insert(self, vector: np.ndarray) -> int:
        """Insert one object; returns its new ID."""
        return int(self.insert_batch(np.asarray(vector, dtype=np.float32)[None, :])[0])

    def insert_batch(self, vectors: np.ndarray) -> np.ndarray:
        """Insert several objects; returns their new IDs."""
        index = self.index
        built = index.built
        vectors = np.ascontiguousarray(vectors, dtype=np.float32)
        if vectors.ndim != 2 or vectors.shape[1] != index.data.shape[1]:
            raise ValueError(
                f"vectors must have shape (k, {index.data.shape[1]}), got {vectors.shape}"
            )
        first_id = index.data.shape[0]
        new_ids = np.arange(first_id, first_id + vectors.shape[0], dtype=np.int64)
        if int(new_ids[-1]) > self.capacity:
            raise ValueError(
                f"object ID {int(new_ids[-1])} exceeds the layout capacity {self.capacity}"
            )

        # Announced before the first write: in-flight replays are turned
        # live against the store they were recorded on.
        index.invalidate_query_caches()
        # Grow the DRAM-resident database (the paper keeps vectors in DRAM).
        index.data = np.vstack([index.data, vectors])

        projections = built.bank.project(vectors)
        for rung_index, radius in enumerate(built.ladder):
            hash_values = built.bank.hash_projections(projections, radius)
            for li in range(built.params.L):
                handle = built.tables[rung_index][li]
                slots, fingerprints = built.codec.split_hash(hash_values[:, li])
                for obj, slot, fp in zip(new_ids.tolist(), slots.tolist(), fingerprints.tolist()):
                    self._insert_entry(handle, int(slot), int(obj), int(fp))
                # Keep the exact occupancy filter exact.
                merged = np.union1d(handle.present_values, hash_values[:, li].astype(np.uint32))
                object.__setattr__(handle, "present_values", merged)
        self.stats.inserted += int(vectors.shape[0])
        return new_ids

    def _insert_entry(
        self, handle: TableHandle, slot: int, object_id: int, fingerprint: int
    ) -> None:
        built = self.index.built
        store = built.store
        codec = built.codec
        capacity = (built.block_size - BLOCK_HEADER_SIZE) // OBJECT_INFO_SIZE
        head = handle.table.read_slot(slot)
        if head != NULL_ADDRESS:
            raw = store.read(head, min(built.block_size, store.size_bytes - head))
            self.stats.blocks_read += 1
            block = decode_block(codec, raw)
            if block.count < capacity:
                # Head block has room only if its on-storage record does
                # (compact allocation sizes records to their count), so
                # append via a freshly sized record replacing the head.
                ids = np.concatenate([block.object_ids, [object_id]]).astype(np.uint64)
                fps = np.concatenate([block.fingerprints, [fingerprint]]).astype(np.uint64)
                address = self._write_block(ids, fps, block.next_address)
                handle.table.write_slot(slot, address)
                self.stats.blocks_rewritten += 1
                return
        # Chain full (or empty): prepend a new block pointing at the head.
        ids = np.array([object_id], dtype=np.uint64)
        fps = np.array([fingerprint], dtype=np.uint64)
        address = self._write_block(ids, fps, head)
        handle.table.write_slot(slot, address)
        self.stats.blocks_allocated += 1

    def _write_block(self, ids: np.ndarray, fps: np.ndarray, next_address: int) -> int:
        built = self.index.built
        payload = built.codec.pack(ids, fps)
        record = _HEADER.pack(next_address, ids.size) + payload
        # Maintenance writes whole device blocks (as the paper's SSDs
        # would): pad to block_size.  This also guarantees the query
        # path's fixed-size block reads stay inside the allocation.
        record += b"\x00" * (built.block_size - len(record) % built.block_size if len(record) % built.block_size else 0)
        address = built.store.allocate(len(record))
        built.store.write(address, record)
        return address

    # -- deletion -------------------------------------------------------------

    def delete(self, object_id: int) -> None:
        """Remove one object from every bucket chain (and tombstone it)."""
        index = self.index
        built = index.built
        if not 0 <= object_id < index.data.shape[0]:
            raise ValueError(f"object {object_id} outside [0, {index.data.shape[0]})")
        if object_id in self._deleted:
            raise ValueError(f"object {object_id} already deleted")

        index.invalidate_query_caches()  # before the first write, as in insert_batch
        vector = index.data[object_id][None, :]
        projections = built.bank.project(vector)
        for rung_index, radius in enumerate(built.ladder):
            hash_values = built.bank.hash_projections(projections, radius)
            for li in range(built.params.L):
                handle = built.tables[rung_index][li]
                slots, fingerprints = built.codec.split_hash(hash_values[:, li])
                self._delete_entry(handle, int(slots[0]), object_id, int(fingerprints[0]))
        self._deleted.add(object_id)
        self.stats.deleted += 1

    def _delete_entry(
        self, handle: TableHandle, slot: int, object_id: int, fingerprint: int
    ) -> None:
        built = self.index.built
        store = built.store
        codec = built.codec
        address = handle.table.read_slot(slot)
        while address != NULL_ADDRESS:
            raw = store.read(address, min(built.block_size, store.size_bytes - address))
            self.stats.blocks_read += 1
            block = decode_block(codec, raw)
            match = (block.object_ids == object_id) & (block.fingerprints == fingerprint)
            if match.any():
                keep = ~match
                payload = codec.pack(
                    block.object_ids[keep].astype(np.uint64), block.fingerprints[keep]
                )
                record = _HEADER.pack(block.next_address, int(keep.sum())) + payload
                # The shrunken record fits in place of the old one.
                store.write(address, record)
                self.stats.blocks_rewritten += 1
                return
            address = block.next_address
        # Not found in any block (e.g. it fell to the S-truncation during
        # a partial rebuild): the tombstone alone is sufficient.

    # -- query-side filtering ---------------------------------------------------

    def filter_answer_ids(self, ids: np.ndarray) -> np.ndarray:
        """Drop tombstoned IDs from a candidate/answer array."""
        if not self._deleted:
            return ids
        mask = np.array([obj not in self._deleted for obj in ids.tolist()])
        return ids[mask]
