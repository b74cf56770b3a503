"""Reference (test-only): index maintenance one entry at a time.

Until ``IndexUpdater`` learned to rewrite a bucket chain once per call,
it applied every (object, radius, table) entry as its own round trip —
read the slot, read and decode a block, re-pack it, write it, write the
slot.  ``_insert_entry``, ``_delete_entry`` and ``_write_block`` below are
those bodies verbatim, and ``insert_batch`` / ``delete`` drive them with
the same (table, slot, id, fingerprint) stream in the order the old tree
produced it: rung, table, object for inserts; object, rung, table for
deletes.  The one liberty: a multi-id ``delete`` projects its rows in one
call, as the production path does, so both sides see the same hash
values (a float32 projection depends on the shape of the BLAS call —
the oracle is about chains, not about that).  A delete whose entry is
not in the chain its hash names returns silently, as it used to.

``tests/test_updates_oracle.py`` holds ``IndexUpdater`` to this, chain by
chain and block by block.  Nothing under ``src/`` imports this module.
"""

import struct

import numpy as np

from repro.core.updates import IndexUpdater
from repro.layout.builder import TableHandle
from repro.layout.bucket import BLOCK_HEADER_SIZE, NULL_ADDRESS, decode_block
from repro.layout.object_info import OBJECT_INFO_SIZE

_HEADER = struct.Struct("<QH6x")


class ReferenceUpdater(IndexUpdater):
    """``IndexUpdater`` with the per-entry editors (same state, same stats)."""

    def insert_batch(self, vectors: np.ndarray) -> np.ndarray:
        index = self.index
        built = index.built
        vectors = np.ascontiguousarray(vectors, dtype=np.float32)
        if vectors.ndim != 2 or vectors.shape[1] != index.data.shape[1]:
            raise ValueError(
                f"vectors must have shape (k, {index.data.shape[1]}), got {vectors.shape}"
            )
        first_id = index.data.shape[0]
        new_ids = np.arange(first_id, first_id + vectors.shape[0], dtype=np.int64)
        if not new_ids.size:  # the old tree raised IndexError here
            return new_ids
        if int(new_ids[-1]) > self.capacity:
            raise ValueError(
                f"object ID {int(new_ids[-1])} exceeds the layout capacity {self.capacity}"
            )

        index.invalidate_query_caches()
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

    def delete(self, object_ids) -> None:
        index = self.index
        built = index.built
        ids = np.atleast_1d(np.asarray(object_ids, dtype=np.int64)).tolist()
        for position, object_id in enumerate(ids):
            if not 0 <= object_id < index.data.shape[0]:
                raise ValueError(f"object {object_id} outside [0, {index.data.shape[0]})")
            if object_id in self._deleted or object_id in ids[:position]:
                raise ValueError(f"object {object_id} already deleted")
        if not ids:
            return

        index.invalidate_query_caches()
        projections = built.bank.project(index.data[ids])
        hash_values = [built.bank.hash_projections(projections, radius) for radius in built.ladder]
        for row, object_id in enumerate(ids):
            for rung_index in range(len(hash_values)):
                for li in range(built.params.L):
                    handle = built.tables[rung_index][li]
                    slots, fingerprints = built.codec.split_hash(
                        hash_values[rung_index][row : row + 1, li]
                    )
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
