"""Byte-level stores backing the on-storage index.

The index layout (hash tables, bucket blocks) is encoded to real bytes and
written through this interface.  Two backends are provided:

- :class:`MemoryBlockStore` keeps everything in a ``bytearray``; this is
  what tests and most benchmarks use because it is fast and needs no
  cleanup.
- :class:`FileBlockStore` writes to an actual file so that examples can
  demonstrate a persistent index; reads go through normal file I/O.

Timing is *not* modeled here — the block store answers "what are the
bytes", the device model answers "how long did the read take".
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from collections.abc import Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = ["BlockStore", "MemoryBlockStore", "FileBlockStore"]


class BlockStore(ABC):
    """Append-allocated byte store addressed by absolute byte offsets."""

    def __init__(self) -> None:
        self._size = 0
        self._bytes_written = 0
        self._write_count = 0

    @property
    def size_bytes(self) -> int:
        """Total bytes allocated so far."""
        return self._size

    @property
    def bytes_written(self) -> int:
        """Total bytes ever written (the SSD-endurance figure of Sec. 7)."""
        return self._bytes_written

    @property
    def write_count(self) -> int:
        """Number of write calls issued."""
        return self._write_count

    def allocate(self, nbytes: int) -> int:
        """Reserve ``nbytes`` and return the address of the new region."""
        if nbytes <= 0:
            raise ValueError(f"nbytes must be positive, got {nbytes}")
        address = self._size
        self._size += nbytes
        self._grow_to(self._size)
        return address

    def _check_span(self, address: int, nbytes: int, position: int | None = None) -> None:
        if address < 0 or nbytes < 0 or address + nbytes > self._size:
            where = "" if position is None else f"request {position} of the batch: "
            raise ValueError(
                f"{where}span [{address}, {address + nbytes}) outside allocated "
                f"region of {self._size} bytes"
            )

    def write(self, address: int, data: bytes) -> None:
        """Store ``data`` at ``address`` (must be within allocated space)."""
        self._check_span(address, len(data))
        self._bytes_written += len(data)
        self._write_count += 1
        self._write(address, data)

    def read(self, address: int, nbytes: int) -> bytes:
        """Return ``nbytes`` bytes starting at ``address``."""
        self._check_span(address, nbytes)
        return self._read(address, nbytes)

    def read_many(self, requests: Iterable[tuple[int, int]]) -> list[bytes]:
        """:meth:`read` for each ``(address, nbytes)``, in order; a span
        outside the allocated region is named by its position."""
        out = []
        for position, (address, nbytes) in enumerate(requests):
            self._check_span(address, nbytes, position)
            out.append(self._read(address, nbytes))
        return out

    def read_matrix(self, addresses: Sequence[int] | np.ndarray, nbytes: int) -> np.ndarray:
        """:meth:`read_many` of equal-length spans as a ``(B, nbytes)`` uint8
        matrix, one row per address; nothing is read if any span is bad."""
        starts = self._check_spans(addresses, nbytes)
        raw = b"".join(self._read(address, nbytes) for address in starts.tolist())
        return np.frombuffer(raw, dtype=np.uint8).reshape(starts.size, nbytes)

    def _check_spans(self, addresses: Sequence[int] | np.ndarray, nbytes: int) -> np.ndarray:
        """``addresses`` as int64, the first bad span named by its position."""
        if nbytes <= 0:
            raise ValueError(f"request 0 of the batch: length must be positive, got {nbytes}")
        # A uint64 address past 2**63 wraps negative here and is refused as well.
        starts = np.asarray(addresses).astype(np.int64, copy=False)
        bad = (starts < 0) | (starts > self._size - nbytes)
        if bad.any():
            position = int(bad.argmax())
            self._check_span(int(starts[position]), nbytes, position)
        return starts

    @abstractmethod
    def _grow_to(self, size: int) -> None: ...

    @abstractmethod
    def _write(self, address: int, data: bytes) -> None: ...

    @abstractmethod
    def _read(self, address: int, nbytes: int) -> bytes: ...

    def close(self) -> None:
        """Release backing resources (no-op for memory stores)."""


class MemoryBlockStore(BlockStore):
    """Block store backed by an in-process ``bytearray``."""

    def __init__(self) -> None:
        super().__init__()
        self._buffer = bytearray()

    def _grow_to(self, size: int) -> None:
        if size > len(self._buffer):
            self._buffer.extend(b"\x00" * (size - len(self._buffer)))

    def _write(self, address: int, data: bytes) -> None:
        self._buffer[address : address + len(data)] = data

    def _read(self, address: int, nbytes: int) -> bytes:
        return bytes(self._buffer[address : address + nbytes])

    def read_many(self, requests: Iterable[tuple[int, int]]) -> list[bytes]:
        check, out = self._check_span, []
        # One copy per request, straight out of the buffer; the view is
        # released on the way out (an exported view would block growth).
        with memoryview(self._buffer) as view:
            for position, (address, nbytes) in enumerate(requests):
                check(address, nbytes, position)
                out.append(view[address : address + nbytes].tobytes())
        return out

    def read_matrix(self, addresses: Sequence[int] | np.ndarray, nbytes: int) -> np.ndarray:
        starts = self._check_spans(addresses, nbytes)
        if not starts.size:
            return np.empty((0, nbytes), dtype=np.uint8)
        # One gather; the export goes with ``windows``, before the view is released.
        with memoryview(self._buffer) as view:
            windows = sliding_window_view(np.frombuffer(view, dtype=np.uint8), nbytes)
            out = windows[starts]
            del windows
        return out


class FileBlockStore(BlockStore):
    """Block store backed by a real file on disk.

    Reopening an existing file resumes with its current size, so an
    index persisted in one process can be queried from another (see
    :mod:`repro.io.persistence`).
    """

    def __init__(self, path: str | os.PathLike[str]) -> None:
        super().__init__()
        self._path = os.fspath(path)
        exists = os.path.exists(self._path)
        self._file = open(self._path, "r+b" if exists else "w+b")
        if exists:
            self._size = os.path.getsize(self._path)

    @property
    def path(self) -> str:
        """Path of the backing file."""
        return self._path

    def _grow_to(self, size: int) -> None:
        self._file.truncate(size)

    def _write(self, address: int, data: bytes) -> None:
        self._file.seek(address)
        self._file.write(data)

    def _read(self, address: int, nbytes: int) -> bytes:
        self._file.seek(address)
        data = self._file.read(nbytes)
        if len(data) != nbytes:
            raise IOError(f"short read at {address}: wanted {nbytes}, got {len(data)}")
        return data

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()

    def __enter__(self) -> "FileBlockStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
