"""Ablation: SSD endurance cost of index maintenance (Sec. 7).

"As SSDs have a limit to the amount of data that can be written under
warranty, updating the hash index consumes the device life. While the
impact of object insertion and deletion is small, rebuilding the entire
index should be done sparingly."  This ablation quantifies both paths
on the same index: bytes written by incremental inserts/deletes versus
bytes written by a full rebuild.
"""

import numpy as np

from repro.core.e2lshos import E2LSHoSIndex
from repro.core.params import E2LSHParams
from repro.core.updates import IndexUpdater
from repro.datasets.registry import load_dataset
from repro.storage.blockstore import MemoryBlockStore
from repro.utils.units import format_bytes


def test_ablation_endurance(scale, benchmark):
    n = min(scale.n, 6_000)
    dataset = load_dataset("sift", n=n, n_queries=5, seed=scale.seed)
    params = E2LSHParams(n=n, rho=0.3, gamma=0.7, s_factor=8)
    store = MemoryBlockStore()
    index = E2LSHoSIndex.build(dataset.data, params, store=store, seed=scale.seed)
    rebuild_bytes = store.bytes_written

    updater = IndexUpdater(index)
    rng = np.random.default_rng(scale.seed)
    batch = rng.normal(scale=20.0, size=(50, dataset.d)).astype(np.float32)

    def maintain():
        before = store.bytes_written
        ids = updater.insert_batch(batch[:25])
        for obj in ids[:10].tolist():
            updater.delete(int(obj))
        return store.bytes_written - before

    maintenance_bytes = benchmark.pedantic(maintain, rounds=1, iterations=1)
    per_insert = maintenance_bytes / 35  # 25 inserts + 10 deletes

    print(
        f"\nEndurance: full rebuild writes {format_bytes(rebuild_bytes)}; "
        f"35 maintenance ops wrote {format_bytes(maintenance_bytes)} "
        f"({format_bytes(per_insert)} per op, "
        f"{rebuild_bytes / max(per_insert, 1):.0f} ops = one rebuild)"
    )

    # The paper's claim: per-object maintenance is small relative to a
    # rebuild.  Per-op writes are O(L x r) blocks — independent of n —
    # while a rebuild scales with n, so the gap widens with scale.
    tables = params.L * index.ladder.rungs
    assert per_insert < 3 * tables * 512
    assert maintenance_bytes < rebuild_bytes / 5
