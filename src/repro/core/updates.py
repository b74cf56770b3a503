"""Incremental index maintenance (paper Sec. 7, "Storage-specific issues").

The paper notes that one advantage of LSH over graph/tree ANNS is an
index that is "easy to maintain and update", and that on SSDs the write
volume matters because it consumes device endurance: "the impact of
object insertion and deletion is small, [but] rebuilding the entire
index should be done sparingly".

:class:`IndexUpdater` implements that maintenance path on a built
:class:`~repro.core.e2lshos.E2LSHoSIndex`.  A call takes a whole batch
(PLSH merges its delta in bulk), groups it by bucket chain per (radius,
table) and rewrites each chain once, editing packed object infos as bytes
-- block for block what one read-modify-write per entry would leave
(``tests/reference_updates.py``):

- **insert**: a chain's new entries top its head block up to capacity,
  in a freshly allocated block that replaces it, and spill into new
  blocks prepended to the chain.  Per object this writes O(L x r) small
  blocks, tiny compared to rebuilding the whole index.
- **delete**: one walk of the chain rewrites in place every block that
  held one of the objects (plus a DRAM tombstone so queries drop
  in-flight candidates immediately).

The block store counts every byte written, so the endurance ablation
benchmark can compare incremental maintenance against full rebuilds.
"""

from __future__ import annotations

import struct
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.e2lshos import E2LSHoSIndex
from repro.layout.builder import TableHandle
from repro.layout.bucket import (
    BLOCK_HEADER_SIZE,
    NULL_ADDRESS,
    decode_block,
)
from repro.layout.hash_table import OnStorageHashTable
from repro.layout.object_info import OBJECT_INFO_SIZE

__all__ = ["IndexUpdater", "UpdateStats"]

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
    #: Deleted entries that were not in the chain their hash names.
    entries_missed: int = 0

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

    def _chains(
        self, ids: np.ndarray, rows: np.ndarray
    ) -> Iterator[tuple[TableHandle, np.ndarray, list[tuple[int, bytes]]]]:
        """Per (radius, table): the hash values of ``rows`` and the packed
        entries of ``ids`` as one ``(slot, entries)`` per bucket chain, each
        in the order of ``ids`` (the sort by slot is stable)."""
        built = self.index.built
        projections = built.bank.project(rows)
        for handles, radius in zip(built.tables, built.ladder):
            hash_values = built.bank.hash_projections(projections, radius)
            for li, handle in enumerate(handles):
                slots, fingerprints = built.codec.split_hash(hash_values[:, li])
                order = np.argsort(slots, kind="stable")
                packed = built.codec.pack(ids[order], fingerprints[order])
                chain_slots, starts = np.unique(slots[order], return_index=True)
                bounds = (OBJECT_INFO_SIZE * np.append(starts, ids.size)).tolist()
                chains = zip(chain_slots.tolist(), bounds, bounds[1:])
                yield handle, hash_values[:, li], [(slot, packed[lo:hi]) for slot, lo, hi in chains]

    def _read_block(self, address: int) -> bytes:
        built = self.index.built
        self.stats.blocks_read += 1
        return built.store.read(address, min(built.block_size, built.store.size_bytes - address))

    # -- insertion -------------------------------------------------------------

    def insert(self, vector: np.ndarray) -> int:
        """Insert one object; returns its new ID."""
        return int(self.insert_batch(np.asarray(vector, dtype=np.float32)[None, :])[0])

    def insert_batch(self, vectors: np.ndarray) -> np.ndarray:
        """Insert several objects; returns their new IDs."""
        index = self.index
        vectors = np.ascontiguousarray(vectors, dtype=np.float32)
        if vectors.ndim != 2 or vectors.shape[1] != index.data.shape[1]:
            raise ValueError(
                f"vectors must have shape (k, {index.data.shape[1]}), got {vectors.shape}"
            )
        first_id = index.data.shape[0]
        new_ids = np.arange(first_id, first_id + vectors.shape[0], dtype=np.int64)
        if not new_ids.size:
            return new_ids
        if int(new_ids[-1]) > self.capacity:
            raise ValueError(
                f"object ID {int(new_ids[-1])} exceeds the layout capacity {self.capacity}"
            )

        # Announced before the first write: in-flight replays are turned
        # live against the store they were recorded on.
        index.invalidate_query_caches()
        # Grow the DRAM-resident database (the paper keeps vectors in DRAM).
        index.data = np.vstack([index.data, vectors])

        for handle, hash_values, chains in self._chains(new_ids, vectors):
            for slot, entries in chains:
                self._append(handle.table, slot, entries)
            # Keep the exact occupancy filter exact (absent: both insertion points coincide).
            present, values = handle.present_values, np.unique(hash_values)
            at = np.searchsorted(present, values)
            absent = at == np.searchsorted(present, values, side="right")
            if absent.any():
                merged = np.insert(present, at[absent], values[absent])
                object.__setattr__(handle, "present_values", merged)
        self.stats.inserted += int(vectors.shape[0])
        return new_ids

    def _append(self, table: OnStorageHashTable, slot: int, entries: bytes) -> None:
        """Append packed entries to one chain: one read, one slot write."""
        built = self.index.built
        room = (built.block_size - BLOCK_HEADER_SIZE) // OBJECT_INFO_SIZE * OBJECT_INFO_SIZE
        head = table.read_slot(slot)
        if head != NULL_ADDRESS:
            raw = self._read_block(head)
            next_address, count = _HEADER.unpack_from(raw)
            held = raw[BLOCK_HEADER_SIZE : BLOCK_HEADER_SIZE + count * OBJECT_INFO_SIZE]
            if len(held) < room:
                # The head has room, but its record may not (compact
                # allocation sizes records to their count): the first block
                # written below replaces it -- a rewrite, not an allocation.
                entries = held + entries
                head = next_address
                self.stats.blocks_rewritten += 1
                self.stats.blocks_allocated -= 1
        for start in range(0, len(entries), room):
            payload = entries[start : start + room]
            record = _HEADER.pack(head, len(payload) // OBJECT_INFO_SIZE) + payload
            # Maintenance writes whole device blocks (as the paper's SSDs
            # would): pad to block_size.  This also guarantees the query
            # path's fixed-size block reads stay inside the allocation.
            head = built.store.allocate(built.block_size)
            built.store.write(head, record.ljust(built.block_size, b"\x00"))
            self.stats.blocks_allocated += 1
        table.write_slot(slot, head)

    # -- deletion -------------------------------------------------------------

    def delete(self, object_ids: int | Sequence[int] | np.ndarray) -> None:
        """Remove objects from every bucket chain (and tombstone them)."""
        index = self.index
        ids = np.atleast_1d(np.asarray(object_ids, dtype=np.int64))
        batch: set[int] = set()
        for object_id in ids.tolist():
            if not 0 <= object_id < index.data.shape[0]:
                raise ValueError(f"object {object_id} outside [0, {index.data.shape[0]})")
            if object_id in self._deleted or object_id in batch:
                raise ValueError(f"object {object_id} already deleted")
            batch.add(object_id)
        if not batch:
            return

        index.invalidate_query_caches()  # before the first write, as in insert_batch
        for handle, _, chains in self._chains(ids, index.data[ids]):
            for slot, entries in chains:
                for missed in self._cut(handle.table, slot, entries):
                    self._sweep(handle.table, missed)
        self._deleted |= batch
        self.stats.deleted += len(batch)

    def _cut(self, table: OnStorageHashTable, slot: int, entries: bytes) -> list[bytes]:
        """Remove packed entries from one chain in one walk, each block
        rewritten once; returns the entries the chain does not hold."""
        size = OBJECT_INFO_SIZE
        pending = [entries[at : at + size] for at in range(0, len(entries), size)]
        address = table.read_slot(slot)
        while pending and address != NULL_ADDRESS:
            raw = self._read_block(address)
            next_address, count = _HEADER.unpack_from(raw)
            payload = raw[BLOCK_HEADER_SIZE : BLOCK_HEADER_SIZE + count * size]
            absent = []
            for entry in pending:
                at = payload.find(entry)
                while at > 0 and at % size:  # straddles two entries: not a match
                    at = payload.find(entry, at + 1)
                if at < 0:
                    absent.append(entry)
                else:
                    payload = payload[:at] + payload[at + size :]
            if len(absent) < len(pending):
                # The shrunken record fits in place of the old one.
                record = _HEADER.pack(next_address, len(payload) // size) + payload
                self.index.built.store.write(address, record)
                self.stats.blocks_rewritten += 1
            pending, address = absent, next_address
        return pending

    def _sweep(self, table: OnStorageHashTable, missed: bytes) -> None:
        """Cut an object out of whichever chain of ``table`` holds it: a delete
        hashes its rows again, a float32 projection depends on the shape of the
        BLAS call, and now and then one of an object's L x r hashes names
        another bucket than its entry was written to -- where, left alone, the
        object is answered again as soon as its tombstone is released."""
        built = self.index.built
        object_id = int.from_bytes(missed, "little") & self.capacity  # the low id_bits
        self.stats.entries_missed += 1
        heads = np.frombuffer(built.store.read(table.base_address, table.size_bytes), dtype="<u8")
        for slot, address in enumerate(heads.tolist()):
            while address != NULL_ADDRESS:
                block = decode_block(built.codec, self._read_block(address))
                found = block.object_ids == object_id
                if found.any():
                    entry = built.codec.pack(block.object_ids[found], block.fingerprints[found])
                    self._cut(table, slot, entry)
                    return
                address = block.next_address

    # -- query-side filtering ---------------------------------------------------

    def filter_answer_ids(self, ids: np.ndarray) -> np.ndarray:
        """Drop tombstoned IDs from a candidate/answer array."""
        if not self._deleted:
            return ids
        mask = np.array([obj not in self._deleted for obj in ids.tolist()])
        return ids[mask]
