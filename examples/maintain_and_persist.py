#!/usr/bin/env python3
"""Index maintenance and persistence: the operational workflow.

The paper's Sec. 7 points out that an on-SSD index must be maintained
carefully — every write consumes device endurance, so incremental
insert/delete is cheap but full rebuilds should be rare.  This example
walks the lifecycle a deployment would use:

1. build an index over a real on-disk file (FileBlockStore),
2. persist the DRAM-side state next to it,
3. reload both in a "new process" and verify queries still work,
4. insert and delete objects incrementally, comparing the bytes written
   against the cost of a rebuild.

Run:  python examples/maintain_and_persist.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.core.e2lshos import E2LSHoSIndex
from repro.core.params import E2LSHParams
from repro.core.updates import IndexUpdater
from repro.datasets.registry import load_dataset
from repro.io.persistence import load_index, save_index
from repro.storage.blockstore import FileBlockStore
from repro.storage.profiles import make_engine
from repro.utils.units import format_bytes


def main() -> None:
    dataset = load_dataset("mnist", n=6_000, n_queries=10, seed=6)
    params = E2LSHParams(n=dataset.n, rho=0.29, gamma=0.6, s_factor=16)

    with tempfile.TemporaryDirectory() as tmp:
        blocks_path = Path(tmp) / "index.blocks"
        meta_path = Path(tmp) / "index.npz"

        # 1. Build on a real file.
        with FileBlockStore(blocks_path) as store:
            index = E2LSHoSIndex.build(dataset.data, params, store=store, seed=6)
            build_bytes = store.bytes_written
            save_index(index, meta_path)
            print(
                f"built {format_bytes(index.storage_bytes)} index at {blocks_path.name}, "
                f"metadata {format_bytes(meta_path.stat().st_size)}"
            )

        # 2-3. Reload cold and query.
        with FileBlockStore(blocks_path) as store:
            index = load_index(meta_path, store, dataset.data)
            engine = make_engine(store, device="cssd", count=4, interface="io_uring")
            result = index.run(dataset.queries, engine, k=5)
            print(
                f"reloaded index answers {len(result.answers)} queries at "
                f"{result.queries_per_second:,.0f} q/s "
                f"(first answer: {result.answers[0].ids.tolist()})"
            )

            # 4. Incremental maintenance with endurance accounting.
            updater = IndexUpdater(index)
            rng = np.random.default_rng(6)
            before = store.bytes_written
            new_ids = updater.insert_batch(
                dataset.data[:20] + rng.normal(scale=1.0, size=(20, dataset.d)).astype(np.float32)
            )
            updater.delete(new_ids[:5])
            maintenance_bytes = store.bytes_written - before
            print(
                f"25 maintenance ops wrote {format_bytes(maintenance_bytes)} "
                f"({format_bytes(maintenance_bytes / 25)} per op) vs "
                f"{format_bytes(build_bytes)} for a rebuild — "
                f"{build_bytes / (maintenance_bytes / 25):,.0f} ops equal one rebuild"
            )

            # Inserted objects are immediately findable.
            probe = dataset.data[7] + rng.normal(scale=0.5, size=dataset.d).astype(np.float32)
            engine = make_engine(store, device="cssd", count=4, interface="io_uring")
            answer = index.run(probe[None, :], engine, k=3).answers[0]
            live = updater.filter_answer_ids(answer.ids)
            print(f"post-maintenance query returns {live.tolist()}")


if __name__ == "__main__":
    main()
