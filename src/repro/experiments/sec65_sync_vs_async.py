"""Sec. 6.5 "Comparison with synchronous I/Os".

The paper runs in-memory E2LSH with memory-mapped I/O (index reads
become page faults through a size-capped OS page cache) and measures it
19.7x slower than asynchronous E2LSHoS on the same cSSD x 4 volume,
with a 93% page-cache miss rate — E2LSH's random access pattern defeats
caching, and the synchronous path cannot hide storage latency.

We replay the same query tasks through a
:class:`~repro.storage.page_cache.PageCache` capped at the E2LSHoS
runtime memory footprint.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import built_e2lshos, dataset_for, tuned_e2lsh
from repro.experiments.config import DEFAULT_SCALE, ExperimentScale
from repro.storage.engine import AsyncIOEngine
from repro.storage.page_cache import PageCache
from repro.storage.profiles import INTERFACE_PROFILES, make_volume

__all__ = ["SyncVsAsync", "run", "format_table"]


@dataclass(frozen=True)
class SyncVsAsync:
    """Async vs mmap-sync outcome."""

    dataset: str
    async_ms: float
    sync_ms: float
    miss_rate: float

    @property
    def slowdown(self) -> float:
        """How many times slower the synchronous path is."""
        return self.sync_ms / self.async_ms


def run(
    scale: ExperimentScale = DEFAULT_SCALE,
    dataset: str = "sift",
    k: int = 1,
) -> SyncVsAsync:
    """Run the tuned query set asynchronously and through the page cache."""
    gamma = tuned_e2lsh(dataset, scale, k=k).tuned.selected.knob
    index = built_e2lshos(dataset, scale, gamma, 512)
    data = dataset_for(dataset, scale)

    engine = AsyncIOEngine(
        make_volume("cssd", 4), INTERFACE_PROFILES["io_uring"], index.built.store
    )
    async_result = index.run(data.queries, engine, k=k)

    cache = PageCache(
        volume=make_volume("cssd", 4),
        store=index.built.store,
        interface=INTERFACE_PROFILES["mmap_sync"],
        capacity_bytes=max(index.dram_bytes, 1),
    )
    sync_batch = index.run(data.queries, k=k, mode="mmap_sync", cache=cache)
    sync_total_ns = sync_batch.engine.makespan_ns
    sync_ms = sync_total_ns / len(data.queries) / 1e6

    return SyncVsAsync(
        dataset=dataset,
        async_ms=async_result.mean_query_time_ns / 1e6,
        sync_ms=sync_ms,
        miss_rate=cache.stats.miss_rate,
    )


def format_table(result: SyncVsAsync) -> str:
    """Render the comparison."""
    return (
        f"Sec 6.5 sync vs async ({result.dataset}): "
        f"async={result.async_ms:.3f} ms, mmap-sync={result.sync_ms:.3f} ms, "
        f"slowdown={result.slowdown:.1f}x (paper: 19.7x), "
        f"page-cache miss rate={result.miss_rate:.0%} (paper: 93%)"
    )
