"""Simulated storage substrate.

The paper evaluates E2LSHoS on real NVMe SSDs and prototype low-latency
flash drives.  This package substitutes that hardware with a
discrete-event model while keeping the *bytes* real:

- :mod:`repro.storage.blockstore` holds the actual encoded index bytes
  (in memory or in a real file),
- :mod:`repro.storage.device` models a flash device's random-read timing
  (calibrated against the paper's Table 2),
- :mod:`repro.storage.interface` models the per-I/O CPU overhead of
  io_uring / SPDK / the XLFDD interface (Table 3),
- :mod:`repro.storage.raid` stripes timing across multiple devices
  (Table 5 configurations),
- :mod:`repro.storage.engine` is the asynchronous I/O engine that runs
  cooperative query tasks over simulated CPU workers and devices,
- :mod:`repro.storage.page_cache` provides the synchronous
  memory-mapped-I/O baseline of Sec. 6.5.
"""

from repro.storage.blockstore import BlockStore, FileBlockStore, MemoryBlockStore
from repro.storage.device import DeviceProfile, StorageDevice
from repro.storage.engine import AsyncIOEngine, Compute, EngineResult, Read, ReadBatch, Segment
from repro.storage.interface import StorageInterface
from repro.storage.page_cache import PageCache
from repro.storage.profiles import (
    DEVICE_PROFILES,
    INTERFACE_PROFILES,
    STORAGE_CONFIGS,
    StorageConfig,
    make_volume,
)
from repro.storage.raid import StripedVolume

__all__ = [
    "BlockStore",
    "MemoryBlockStore",
    "FileBlockStore",
    "DeviceProfile",
    "StorageDevice",
    "StorageInterface",
    "StripedVolume",
    "AsyncIOEngine",
    "EngineResult",
    "Read",
    "ReadBatch",
    "Compute",
    "Segment",
    "PageCache",
    "DEVICE_PROFILES",
    "INTERFACE_PROFILES",
    "STORAGE_CONFIGS",
    "StorageConfig",
    "make_volume",
]
