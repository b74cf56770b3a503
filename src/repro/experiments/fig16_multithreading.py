"""Figure 16: query speeds with multithreading.

Worker CPUs scale query throughput linearly until the shared storage
volume's IOPS bound kicks in: E2LSHoS on cSSD x 4 plateaus, E2LSHoS on
XLFDD x 12 keeps scaling, and SRS (pure compute) scales linearly
throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.common import built_e2lshos, dataset_for, tuned_e2lsh, tuned_srs
from repro.experiments.config import DEFAULT_SCALE, ExperimentScale
from repro.experiments.tables import render_table
from repro.storage.engine import AsyncIOEngine
from repro.storage.profiles import INTERFACE_PROFILES, make_volume
from repro.utils.units import NS_PER_S

__all__ = ["Fig16Row", "run", "format_table"]


@dataclass(frozen=True)
class Fig16Row:
    """Throughput at one worker count."""

    workers: int
    srs_qps: float
    cssd_qps: float
    xlfdd_qps: float


def run(
    scale: ExperimentScale = DEFAULT_SCALE,
    dataset: str = "sift",
    worker_counts: tuple[int, ...] = (1, 2, 4, 8, 16, 32),
    k: int = 1,
    tasks_per_worker: int = 8,
) -> list[Fig16Row]:
    """Sweep worker counts for both storage setups plus SRS."""
    sweep = tuned_e2lsh(dataset, scale, k=k)
    gamma = sweep.tuned.selected.knob
    index = built_e2lshos(dataset, scale, gamma, 512)
    data = dataset_for(dataset, scale)
    srs_ns = tuned_srs(dataset, scale, k=k).selected.mean_time_ns

    rows = []
    for workers in worker_counts:
        # Enough interleaved queries to keep every worker's pipeline deep.
        repeats = max(1, int(np.ceil(workers * tasks_per_worker / data.n_queries)))
        queries = np.tile(data.queries, (repeats, 1))
        qps = {}
        for label, device, count, interface in (
            ("cssd", "cssd", 4, "io_uring"),
            ("xlfdd", "xlfdd", 12, "xlfdd"),
        ):
            engine = AsyncIOEngine(
                make_volume(device, count), INTERFACE_PROFILES[interface], index.built.store
            )
            result = index.run(queries, engine, k=k, workers=workers)
            qps[label] = result.queries_per_second
        rows.append(
            Fig16Row(
                workers=workers,
                srs_qps=workers * NS_PER_S / srs_ns,
                cssd_qps=qps["cssd"],
                xlfdd_qps=qps["xlfdd"],
            )
        )
    return rows


def format_table(rows: list[Fig16Row]) -> str:
    """Render the multithreading sweep."""
    return render_table(
        ["workers", "SRS q/s", "E2LSHoS cSSDx4 q/s", "E2LSHoS XLFDDx12 q/s"],
        [
            (r.workers, f"{r.srs_qps:.0f}", f"{r.cssd_qps:.0f}", f"{r.xlfdd_qps:.0f}")
            for r in rows
        ],
        title="Figure 16: query throughput vs worker count",
    )
