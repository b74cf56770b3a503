"""External-memory SRS sketch (paper's concluding suggestion).

The conclusion notes that small-index methods could also benefit from
modern storage on memory-limited machines: "external-memory SRS and
QALSH may issue requests for adjacent tree nodes while processing the
current node".  This module demonstrates that idea: the SRS R-tree's
nodes are serialized to the block store (one 512-byte record per node),
and the incremental-NN walk runs as an engine task that *prefetches*
the next-best frontier nodes in asynchronous batches instead of reading
one node per blocking I/O.

It is deliberately a sketch — enough to measure the sync-vs-async gap
for a tree workload (the ablation benchmark) — not a production index.
"""

from __future__ import annotations

import heapq
import math
import struct
from typing import NamedTuple

import numpy as np

from repro.baselines.rtree import _Node, min_dist_sq
from repro.baselines.srs import SRSIndex
from repro.storage.blockstore import BlockStore
from repro.storage.engine import Compute, ReadBatch, Task
from repro.utils.validation import require_finite_rows

__all__ = ["StorageSRS", "build_storage_srs"]

_NODE_RECORD = 512
#: node record: u8 is_leaf, u8 n_entries, 6 pad, then entries:
#:   leaf: n x u64 point ids;  internal: n x u64 child addresses.
_HEADER = struct.Struct("<BB6x")
#: Cost of scoring one frontier entry (heap + rectangle distance).
_VISIT_NS = 150.0


class _NodeRecord(NamedTuple):
    is_leaf: bool
    entries: np.ndarray  # point ids or child addresses
    node: _Node  # the DRAM-resident rectangles of those entries


class StorageSRS:
    """SRS with its R-tree nodes resident on (simulated) storage."""

    def __init__(self, srs: SRSIndex, store: BlockStore, prefetch: int = 8) -> None:
        if prefetch < 1:
            raise ValueError(f"prefetch must be >= 1, got {prefetch}")
        self.srs = srs
        self.store = store
        self.prefetch = prefetch
        #: DRAM-resident per-node rectangles (small), keyed by address.
        self._nodes: dict[int, _Node] = {}
        self.root_address = self._persist(srs.tree.root)

    def _persist(self, node: _Node) -> int:
        entries = np.array(
            node.entries if node.is_leaf else [self._persist(child) for child in node.entries],
            dtype=np.uint64,
        )
        if 16 + entries.size * 8 > _NODE_RECORD:
            raise ValueError(
                f"node with {entries.size} entries exceeds the {_NODE_RECORD}-byte record"
            )
        address = self.store.allocate(_NODE_RECORD)
        record = _HEADER.pack(1 if node.is_leaf else 0, entries.size)
        record += entries.astype("<u8").tobytes()
        record += b"\x00" * (_NODE_RECORD - len(record))
        self.store.write(address, record)
        self._nodes[address] = node
        return address

    def _decode(self, raw: bytes, address: int) -> _NodeRecord:
        is_leaf, count = _HEADER.unpack_from(raw)
        entries = np.frombuffer(raw, dtype="<u8", count=count, offset=8)
        return _NodeRecord(bool(is_leaf), entries, self._nodes[address])

    def query_task(self, query: np.ndarray, k: int, t_prime: int) -> Task:
        """Engine task: asynchronous best-first NN over on-storage nodes."""
        return self._run(query, k, t_prime, self.prefetch)

    def query_task_sync_order(self, query: np.ndarray, k: int, t_prime: int) -> Task:
        """Same walk, but one node read per batch (no prefetching)."""
        return self._run(query, k, t_prime, 1)

    def _run(self, query: np.ndarray, k: int, t_prime: int, width: int) -> Task:
        if k < 1 or t_prime < k:
            raise ValueError("need k >= 1 and t_prime >= k")
        query = np.asarray(query, dtype=np.float64).reshape(-1)
        require_finite_rows(query[None, :], "queries")
        srs = self.srs
        projected_query = query @ srs.projection
        root = self._nodes[self.root_address]

        counter = 0
        # Frontier of (score, tiebreak, is_point, payload).
        frontier: list[tuple[float, int, bool, int]] = [
            (
                float(min_dist_sq(root.lower, root.upper, projected_query)),
                counter,
                False,
                self.root_address,
            )
        ]
        best: list[tuple[float, int]] = []
        examined = 0
        while frontier and examined < t_prime:
            # Pop points cheaply; gather the next node addresses to read.
            to_read: list[int] = []
            while frontier and len(to_read) < width:
                score, _, is_point, payload = heapq.heappop(frontier)
                if is_point:
                    diff = srs.data[payload] - query
                    heapq.heappush(best, (-math.sqrt(diff.dot(diff)), payload))
                    if len(best) > k:
                        heapq.heappop(best)
                    examined += 1
                    if examined >= t_prime:
                        break
                else:
                    to_read.append(payload)
            if not to_read:
                continue
            yield Compute(_VISIT_NS * len(to_read))
            raw_nodes = yield ReadBatch([(address, _NODE_RECORD) for address in to_read])
            for raw, address in zip(raw_nodes, to_read):
                # The record names the entries (point ids or child
                # addresses); the resident rectangles score them.
                record = self._decode(raw, address)
                scores = record.node.entry_dist_sq(projected_query).tolist()
                for score, entry in zip(scores, record.entries.tolist()):
                    counter += 1
                    heapq.heappush(frontier, (score, counter, record.is_leaf, entry))

        ordered = sorted((-neg, obj) for neg, obj in best)
        ids = np.array([obj for _, obj in ordered], dtype=np.int64)
        dists = np.array([dist for dist, _ in ordered], dtype=np.float64)
        return ids, dists


def build_storage_srs(
    data: np.ndarray, store: BlockStore, seed: int = 0, prefetch: int = 8
) -> StorageSRS:
    """Convenience constructor: SRS index + on-storage tree."""
    srs = SRSIndex(data, seed=seed, leaf_capacity=32, fanout=8)
    return StorageSRS(srs, store, prefetch=prefetch)
