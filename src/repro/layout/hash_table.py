"""On-storage hash table: u-bit keys to 8-byte bucket addresses (Sec. 5.2).

One table exists per (search radius, compound hash).  The table is a
flat array of ``2**u`` little-endian 8-byte addresses; slot ``s`` holds
the address of the first bucket block for hash values whose low ``u``
bits equal ``s``, or :data:`~repro.layout.bucket.NULL_ADDRESS` when the
bucket is empty.  Reading one slot is one (small) storage I/O — the
"Step 1" read of Figure 10.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.layout.bucket import NULL_ADDRESS
from repro.storage.blockstore import BlockStore

__all__ = ["OnStorageHashTable", "SLOT_SIZE"]

SLOT_SIZE = 8
_SLOT = struct.Struct("<Q")


class OnStorageHashTable:
    """A flat on-storage array of bucket addresses."""

    def __init__(
        self, store: BlockStore, table_bits: int, base_address: int | None = None
    ) -> None:
        """A new NULL-filled table, or the one in the caller's region at
        ``base_address`` (then nothing is allocated or written here)."""
        if not 1 <= table_bits <= 32:
            raise ValueError(f"table_bits must be in [1, 32], got {table_bits}")
        self.store = store
        self.table_bits = table_bits
        self.n_slots = 1 << table_bits
        if base_address is None:
            base_address = store.allocate(self.size_bytes)
            # Freshly allocated storage is zero-filled, which is a *valid*
            # address; initialize every slot to NULL explicitly.
            store.write(base_address, _SLOT.pack(NULL_ADDRESS) * self.n_slots)
        elif base_address < 0 or base_address + self.size_bytes > store.size_bytes:
            raise ValueError(
                f"hash table spans [{base_address}, {base_address + self.size_bytes}), "
                f"the block store holds {store.size_bytes} bytes"
            )
        self.base_address = base_address

    @property
    def size_bytes(self) -> int:
        """On-storage footprint of this table."""
        return self.n_slots * SLOT_SIZE

    def slot_address(self, slot: int) -> int:
        """Byte address of one slot (what the query pipeline reads)."""
        if not 0 <= slot < self.n_slots:
            raise ValueError(f"slot {slot} outside [0, {self.n_slots})")
        return self.base_address + slot * SLOT_SIZE

    def write_slot(self, slot: int, bucket_address: int) -> None:
        """Point ``slot`` at a bucket chain head."""
        self.store.write(self.slot_address(slot), _SLOT.pack(bucket_address))

    def write_slots(self, slots: np.ndarray, bucket_addresses: np.ndarray) -> None:
        """Bulk variant of :meth:`write_slot` used by the index builder."""
        slots = np.asarray(slots)
        bucket_addresses = np.asarray(bucket_addresses, dtype=np.uint64)
        if slots.shape != bucket_addresses.shape:
            raise ValueError("slots and bucket_addresses must have equal shape")
        for slot, address in zip(slots.tolist(), bucket_addresses.tolist()):
            self.write_slot(int(slot), int(address))

    def write_table(self, addresses: np.ndarray) -> None:
        """Replace the whole table with ``addresses`` (one per slot)."""
        addresses = np.asarray(addresses, dtype=np.uint64)
        if addresses.shape != (self.n_slots,):
            raise ValueError(f"expected {self.n_slots} addresses, got shape {addresses.shape}")
        self.store.write(self.base_address, addresses.astype("<u8").tobytes())

    def read_slot(self, slot: int) -> int:
        """Synchronous slot read (testing / tooling path)."""
        raw = self.store.read(self.slot_address(slot), SLOT_SIZE)
        return _SLOT.unpack(raw)[0]

    @staticmethod
    def parse_slot(raw: bytes) -> int:
        """Parse the 8 bytes returned by an asynchronous slot read."""
        return _SLOT.unpack(raw)[0]
