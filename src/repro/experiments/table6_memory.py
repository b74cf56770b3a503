"""Table 6: index size and runtime memory usage.

E2LSHoS keeps a large index on storage but little in DRAM (hash-table
base addresses plus the occupancy filters and hash bank); SRS keeps its
whole, tiny index in DRAM.  Both also keep the database itself in DRAM,
so runtime memory usage ends up comparable — that is the paper's point.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import built_e2lshos, dataset_for, tuned_e2lsh, _srs_index
from repro.experiments.config import DEFAULT_SCALE, ExperimentScale
from repro.experiments.tables import render_table
from repro.utils.units import format_bytes

__all__ = ["Table6Row", "run", "format_table"]


@dataclass(frozen=True)
class Table6Row:
    """Memory accounting for one dataset."""

    dataset: str
    database_bytes: int
    e2lshos_storage_bytes: int
    e2lshos_index_mem_bytes: int
    srs_index_mem_bytes: int

    @property
    def e2lshos_mem_usage_bytes(self) -> int:
        """E2LSHoS runtime DRAM: database + resident index data."""
        return self.database_bytes + self.e2lshos_index_mem_bytes

    @property
    def srs_mem_usage_bytes(self) -> int:
        """SRS runtime DRAM: database + in-memory index."""
        return self.database_bytes + self.srs_index_mem_bytes


def run(scale: ExperimentScale = DEFAULT_SCALE) -> list[Table6Row]:
    """Account index and memory sizes for every dataset."""
    rows = []
    for name in scale.datasets:
        dataset = dataset_for(name, scale)
        gamma = tuned_e2lsh(name, scale, k=1).tuned.selected.knob
        storage_index = built_e2lshos(name, scale, gamma, 512)
        srs = _srs_index(name, scale)
        rows.append(
            Table6Row(
                dataset=name,
                database_bytes=dataset.data.nbytes,
                e2lshos_storage_bytes=storage_index.storage_bytes,
                e2lshos_index_mem_bytes=storage_index.built.dram_bytes,
                srs_index_mem_bytes=srs.index_memory_bytes,
            )
        )
    return rows


def format_table(rows: list[Table6Row]) -> str:
    """Render the memory comparison."""
    return render_table(
        [
            "dataset",
            "E2LSHoS index (storage)",
            "E2LSHoS mem usage",
            "(index mem)",
            "SRS mem usage",
            "(index mem)",
        ],
        [
            (
                r.dataset,
                format_bytes(r.e2lshos_storage_bytes),
                format_bytes(r.e2lshos_mem_usage_bytes),
                format_bytes(r.e2lshos_index_mem_bytes),
                format_bytes(r.srs_mem_usage_bytes),
                format_bytes(r.srs_index_mem_bytes),
            )
            for r in rows
        ],
        title="Table 6: index size and runtime memory usage",
    )
