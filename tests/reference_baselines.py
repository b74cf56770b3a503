"""Reference implementations of the small-index baselines (test-only).

These are the pointer-linked B+ tree, the per-child R-tree walk and the
``SRSIndex.query`` / ``QALSHIndex.query`` bodies exactly as they stood
before the query paths were rewritten as sorted-array arithmetic and
one kernel per node, plus the ``StorageSRS`` walk with its private
rectangle distance.  ``tests/test_baselines_oracle.py`` holds the
production code to them bit for bit: ids, distances and every
``OpCounts`` field.  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import heapq
import math
import struct
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from scipy.stats import chi2

from repro.baselines.bptree import TraversalCounters
from repro.baselines.qalsh import QALSHIndex
from repro.baselines.rtree import NNCounters
from repro.baselines.srs import DEFAULT_EARLY_STOP_CONFIDENCE, SRSIndex
from repro.core.e2lsh import QueryAnswer
from repro.stats import OpCounts, QueryStats
from repro.storage.blockstore import BlockStore
from repro.storage.engine import Compute, ReadBatch, Task

__all__ = [
    "ReferenceBPlusTree",
    "ReferenceRTree",
    "ReferenceSRS",
    "ReferenceQALSH",
    "ReferenceStorageSRS",
]


# -- bptree.py ------------------------------------------------------------------


class _Leaf:
    __slots__ = ("keys", "values", "next", "prev")

    def __init__(self, keys: np.ndarray, values: np.ndarray) -> None:
        self.keys = keys
        self.values = values
        self.next: _Leaf | None = None
        self.prev: _Leaf | None = None


class _Internal:
    __slots__ = ("separators", "children")

    def __init__(self, separators: np.ndarray, children: list) -> None:
        # separators[i] = smallest key in children[i + 1].
        self.separators = separators
        self.children = children


class ReferenceBPlusTree:
    """Immutable bulk-loaded B+ tree."""

    def __init__(
        self,
        keys: np.ndarray,
        values: np.ndarray,
        leaf_capacity: int = 64,
        fanout: int = 16,
    ) -> None:
        keys = np.asarray(keys, dtype=np.float64)
        values = np.asarray(values, dtype=np.int64)
        if keys.ndim != 1 or keys.shape != values.shape:
            raise ValueError("keys and values must be equal-length 1-D arrays")
        if keys.size == 0:
            raise ValueError("cannot build an empty tree")
        if leaf_capacity < 2 or fanout < 2:
            raise ValueError("leaf_capacity and fanout must be >= 2")
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        values = values[order]

        self.leaf_capacity = leaf_capacity
        self.fanout = fanout
        self.n_entries = int(keys.size)

        leaves = [
            _Leaf(keys[i : i + leaf_capacity], values[i : i + leaf_capacity])
            for i in range(0, keys.size, leaf_capacity)
        ]
        for left, right in zip(leaves, leaves[1:]):
            left.next = right
            right.prev = left
        self.leaves = leaves
        self.height = 1

        level: list = leaves
        level_min_keys = [float(leaf.keys[0]) for leaf in leaves]
        while len(level) > 1:
            parents = []
            parent_mins = []
            for i in range(0, len(level), fanout):
                children = level[i : i + fanout]
                mins = level_min_keys[i : i + fanout]
                parents.append(_Internal(np.array(mins[1:], dtype=np.float64), children))
                parent_mins.append(mins[0])
            level = parents
            level_min_keys = parent_mins
            self.height += 1
        self.root = level[0]

    # -- lookups -------------------------------------------------------------

    def locate(self, key: float, counters: TraversalCounters | None = None) -> tuple[_Leaf, int]:
        """Leaf and in-leaf index of the first entry with key >= ``key``.

        If every key is smaller, returns the last leaf with an index one
        past its end.
        """
        counters = counters if counters is not None else TraversalCounters()
        node = self.root
        while isinstance(node, _Internal):
            counters.node_visits += 1
            # side="left": when key equals a separator, duplicates of the
            # key may extend into the child *before* the separator, and
            # "first entry >= key" must find them.
            child = int(np.searchsorted(node.separators, key, side="left"))
            node = node.children[child]
        counters.node_visits += 1
        counters.leaf_visits += 1
        index = int(np.searchsorted(node.keys, key, side="left"))
        if index == node.keys.size and node.next is not None:
            # Key falls in a gap between leaves: normalize to the next leaf.
            return node.next, 0
        return node, index

    def window(
        self,
        lo: float,
        hi: float,
        counters: TraversalCounters | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """All (keys, values) with ``lo <= key < hi`` in ascending order."""
        if hi < lo:
            raise ValueError(f"empty window: hi={hi} < lo={lo}")
        counters = counters if counters is not None else TraversalCounters()
        leaf, index = self.locate(lo, counters)
        keys_out: list[np.ndarray] = []
        values_out: list[np.ndarray] = []
        while leaf is not None:
            if index > 0:
                keys = leaf.keys[index:]
                values = leaf.values[index:]
            else:
                keys, values = leaf.keys, leaf.values
            if keys.size == 0:
                break
            counters.leaf_visits += 1
            stop = int(np.searchsorted(keys, hi, side="left"))
            counters.entries_scanned += stop
            if stop > 0:
                keys_out.append(keys[:stop])
                values_out.append(values[:stop])
            if stop < keys.size:
                break
            leaf = leaf.next
            index = 0
        if not keys_out:
            return np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64)
        return np.concatenate(keys_out), np.concatenate(values_out)

    def min_key(self) -> float:
        """Smallest key in the tree."""
        return float(self.leaves[0].keys[0])

    def max_key(self) -> float:
        """Largest key in the tree."""
        return float(self.leaves[-1].keys[-1])

    def __len__(self) -> int:
        return self.n_entries


# -- rtree.py -------------------------------------------------------------------


class _Node:
    __slots__ = ("lower", "upper", "children", "point_ids")

    def __init__(
        self,
        lower: np.ndarray,
        upper: np.ndarray,
        children: list["_Node"] | None,
        point_ids: np.ndarray | None,
    ) -> None:
        self.lower = lower
        self.upper = upper
        self.children = children
        self.point_ids = point_ids

    @property
    def is_leaf(self) -> bool:
        return self.point_ids is not None

    def min_dist_sq(self, query: np.ndarray) -> float:
        """Squared distance from ``query`` to the bounding rectangle."""
        delta = np.maximum(self.lower - query, 0.0) + np.maximum(query - self.upper, 0.0)
        return float((delta**2).sum())


class ReferenceRTree:
    """STR bulk-loaded R-tree with best-first incremental NN."""

    def __init__(
        self,
        points: np.ndarray,
        leaf_capacity: int = 32,
        fanout: int = 8,
    ) -> None:
        points = np.ascontiguousarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[0] == 0:
            raise ValueError(f"points must be a non-empty (n, m) array, got {points.shape}")
        if leaf_capacity < 1 or fanout < 2:
            raise ValueError("leaf_capacity must be >= 1 and fanout >= 2")
        self.points = points
        self.leaf_capacity = leaf_capacity
        self.fanout = fanout
        self.root = self._build(np.arange(points.shape[0], dtype=np.int64), depth=0)
        self.n_nodes = self._count_nodes(self.root)

    # -- construction ----------------------------------------------------------

    def _build(self, ids: np.ndarray, depth: int) -> _Node:
        subset = self.points[ids]
        lower = subset.min(axis=0)
        upper = subset.max(axis=0)
        if ids.size <= self.leaf_capacity:
            return _Node(lower, upper, children=None, point_ids=ids)
        # STR slice: sort along the cycling dimension, cut into fanout slabs.
        dim = depth % self.points.shape[1]
        order = ids[np.argsort(subset[:, dim], kind="stable")]
        n_slabs = min(self.fanout, math.ceil(ids.size / self.leaf_capacity))
        slab_size = math.ceil(ids.size / n_slabs)
        children = [
            self._build(order[i : i + slab_size], depth + 1)
            for i in range(0, ids.size, slab_size)
        ]
        return _Node(lower, upper, children=children, point_ids=None)

    def _count_nodes(self, node: _Node) -> int:
        if node.is_leaf:
            return 1
        return 1 + sum(self._count_nodes(child) for child in node.children)

    @property
    def memory_bytes(self) -> int:
        """Approximate DRAM footprint (points + node rectangles)."""
        per_node = 2 * self.points.shape[1] * 8 + 64
        return self.points.nbytes + self.n_nodes * per_node

    # -- incremental NN ----------------------------------------------------------

    def incremental_nn(
        self,
        query: np.ndarray,
        counters: NNCounters | None = None,
    ) -> Iterator[tuple[float, int]]:
        """Yield ``(distance, point_id)`` in non-decreasing distance order."""
        query = np.asarray(query, dtype=np.float64).reshape(-1)
        if query.size != self.points.shape[1]:
            raise ValueError(
                f"query has m={query.size}, tree expects {self.points.shape[1]}"
            )
        counters = counters if counters is not None else NNCounters()
        # Heap entries: (squared distance, tiebreak, is_point, payload).
        counter = 0
        heap: list[tuple[float, int, bool, object]] = [
            (self.root.min_dist_sq(query), counter, False, self.root)
        ]
        counters.heap_ops += 1
        while heap:
            dist_sq, _, is_point, payload = heapq.heappop(heap)
            counters.heap_ops += 1
            if is_point:
                counters.points_returned += 1
                yield math.sqrt(dist_sq), int(payload)  # type: ignore[arg-type]
                continue
            node: _Node = payload  # type: ignore[assignment]
            counters.node_visits += 1
            if node.is_leaf:
                ids = node.point_ids
                deltas = self.points[ids] - query
                dists = np.einsum("nm,nm->n", deltas, deltas)
                for point_dist, point_id in zip(dists.tolist(), ids.tolist()):
                    counter += 1
                    heapq.heappush(heap, (point_dist, counter, True, point_id))
                    counters.heap_ops += 1
            else:
                for child in node.children:
                    counter += 1
                    heapq.heappush(heap, (child.min_dist_sq(query), counter, False, child))
                    counters.heap_ops += 1

    def knn(self, query: np.ndarray, k: int) -> list[tuple[float, int]]:
        """Exact k nearest points in the projected space (testing helper)."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        result = []
        for dist, point_id in self.incremental_nn(query):
            result.append((dist, point_id))
            if len(result) == k:
                break
        return result


# -- srs.py ---------------------------------------------------------------------


class ReferenceSRS:
    """The old ``SRSIndex.query`` over a production index's projection."""

    def __init__(self, index: SRSIndex) -> None:
        self.data = index.data
        self.m = index.m
        self.c = index.c
        self.n = index.n
        self.d = index.d
        self.projection = index.projection
        self.projected = index.projected
        self.tree = ReferenceRTree(
            index.projected, leaf_capacity=index.tree.leaf_capacity, fanout=index.tree.fanout
        )

    def query(
        self,
        query: np.ndarray,
        k: int = 1,
        t_prime: int | None = None,
        use_early_stop: bool | None = None,
        early_stop_confidence: float = DEFAULT_EARLY_STOP_CONFIDENCE,
    ) -> QueryAnswer:
        """Top-k c-ANNS; ``t_prime`` caps the points examined (the knob).

        The chi-squared early-termination test provides the theoretical
        c-ANNS guarantee but stops long before reaching tight empirical
        ratios; following Sec. 3.3 ("we control the accuracy by varying
        T'"), it is disabled by default whenever an explicit ``t_prime``
        is given and enabled in guarantee mode (``t_prime=None``).
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if use_early_stop is None:
            use_early_stop = t_prime is None
        query = np.asarray(query, dtype=np.float64).reshape(-1)
        if query.size != self.d:
            raise ValueError(f"query has d={query.size}, index expects {self.d}")
        budget = t_prime if t_prime is not None else self.n
        if budget < k:
            raise ValueError(f"t_prime={budget} smaller than k={k}")

        projected_query = query @ self.projection
        counters = NNCounters()
        best_ids: list[int] = []
        best_dists: list[float] = []
        examined = 0
        distance_ops = 0

        for projected_dist, point_id in self.tree.incremental_nn(projected_query, counters):
            examined += 1
            true_dist = float(np.linalg.norm(self.data[point_id].astype(np.float64) - query))
            distance_ops += self.d
            # Maintain the running top-k (insertion into a short list).
            position = np.searchsorted(best_dists, true_dist)
            if position < k:
                best_dists.insert(position, true_dist)
                best_ids.insert(position, point_id)
                if len(best_dists) > k:
                    best_dists.pop()
                    best_ids.pop()
            if examined >= budget:
                break
            if use_early_stop and len(best_dists) == k:
                threshold = best_dists[-1] / self.c
                if threshold > 0:
                    confidence = chi2.cdf(projected_dist**2 / threshold**2, df=self.m)
                    if confidence >= early_stop_confidence:
                        break

        stats = QueryStats(
            ops=OpCounts(
                projection_scalar_ops=self.d * self.m,
                distance_scalar_ops=distance_ops,
                candidate_fetches=examined,
                tree_node_visits=counters.node_visits,
                heap_ops=counters.heap_ops,
            ),
            candidates_checked=examined,
        )
        return QueryAnswer(
            ids=np.asarray(best_ids, dtype=np.int64),
            distances=np.asarray(best_dists, dtype=np.float64),
            stats=stats,
        )


# -- qalsh.py -------------------------------------------------------------------


class ReferenceQALSH:
    """The old ``QALSHIndex.query`` over a production index's directions."""

    def __init__(self, index: QALSHIndex) -> None:
        self.data = index.data
        self.c = index.c
        self.w = index.w
        self.beta_count = index.beta_count
        self.m = index.m
        self.threshold = index.threshold
        self.n = index.n
        self.d = index.d
        self.directions = index.directions
        projections = index.data.astype(np.float64) @ index.directions
        ids = np.arange(index.n, dtype=np.int64)
        self.trees = [
            ReferenceBPlusTree(
                projections[:, i], ids, leaf_capacity=index.trees[i].leaf_capacity
            )
            for i in range(index.m)
        ]
        self._proj_extent = float(np.abs(projections).max()) or 1.0

    def query(self, query: np.ndarray, k: int = 1, c: float | None = None) -> QueryAnswer:
        """Top-k c-ANNS by virtual rehashing; ``c`` overrides the knob."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        query = np.asarray(query, dtype=np.float64).reshape(-1)
        if query.size != self.d:
            raise ValueError(f"query has d={query.size}, index expects {self.d}")
        c = c if c is not None else self.c
        if c <= 1:
            raise ValueError(f"c must be > 1, got {c}")

        projected_query = query @ self.directions
        counts = np.zeros(self.n, dtype=np.int16)
        checked = np.zeros(self.n, dtype=bool)
        #: Per-tree already-covered window [lo, hi) — grown each round.
        window_lo = projected_query.copy()
        window_hi = projected_query.copy()
        budget = self.beta_count + k - 1
        counters = TraversalCounters()

        best_ids: list[int] = []
        best_dists: list[float] = []
        distance_ops = 0
        candidates_checked = 0
        rounds = 0

        radius = 1.0
        max_radius = 4.0 * self._proj_extent / self.w + 1.0
        while True:
            rounds += 1
            half_width = self.w * radius / 2.0
            new_candidates: list[np.ndarray] = []
            for i, tree in enumerate(self.trees):
                center = projected_query[i]
                lo, hi = center - half_width, center + half_width
                # Only the not-yet-covered flanks are new this round.
                for flank_lo, flank_hi in ((lo, window_lo[i]), (window_hi[i], hi)):
                    if flank_hi <= flank_lo:
                        continue
                    _, ids = tree.window(flank_lo, flank_hi, counters)
                    if ids.size == 0:
                        continue
                    np.add.at(counts, ids, 1)
                    hit = ids[(counts[ids] >= self.threshold) & ~checked[ids]]
                    if hit.size:
                        new_candidates.append(np.unique(hit))
                window_lo[i], window_hi[i] = lo, hi

            if new_candidates:
                candidates = np.unique(np.concatenate(new_candidates))
                candidates = candidates[~checked[candidates]]
                room = budget - candidates_checked
                candidates = candidates[:room]
                if candidates.size:
                    checked[candidates] = True
                    diffs = self.data[candidates].astype(np.float64) - query
                    dists = np.sqrt(np.einsum("nd,nd->n", diffs, diffs))
                    distance_ops += int(candidates.size) * self.d
                    candidates_checked += int(candidates.size)
                    for obj, dist in zip(candidates.tolist(), dists.tolist()):
                        position = np.searchsorted(best_dists, dist)
                        if position < k:
                            best_dists.insert(position, dist)
                            best_ids.insert(position, obj)
                            if len(best_dists) > k:
                                best_dists.pop()
                                best_ids.pop()

            # T1: answer good enough for this radius; T2: budget exhausted.
            if len(best_dists) == k and best_dists[-1] <= c * radius:
                break
            if candidates_checked >= budget:
                break
            if radius > max_radius:
                break
            radius *= c

        stats = QueryStats(
            ops=OpCounts(
                projection_scalar_ops=self.d * self.m,
                distance_scalar_ops=distance_ops,
                candidate_fetches=candidates_checked,
                btree_entry_scans=counters.entries_scanned,
                tree_node_visits=counters.node_visits,
                rounds=rounds,
            ),
            candidates_checked=candidates_checked,
            rungs_searched=rounds,
        )
        return QueryAnswer(
            ids=np.asarray(best_ids, dtype=np.int64),
            distances=np.asarray(best_dists, dtype=np.float64),
            stats=stats,
        )


# -- srs_storage.py -------------------------------------------------------------


_NODE_RECORD = 512
#: node record: u8 is_leaf, u8 n_entries, 6 pad, then entries:
#:   leaf: n x u64 point ids;  internal: n x u64 child addresses.
_HEADER = struct.Struct("<BB6x")
#: Cost of scoring one frontier entry (heap + rectangle distance).
_VISIT_NS = 150.0


@dataclass
class _NodeRecord:
    is_leaf: bool
    entries: np.ndarray  # point ids or child addresses
    lower: np.ndarray
    upper: np.ndarray


class ReferenceStorageSRS:
    """SRS with its R-tree nodes resident on (simulated) storage."""

    def __init__(self, srs: ReferenceSRS, store: BlockStore, prefetch: int = 8) -> None:
        if prefetch < 1:
            raise ValueError(f"prefetch must be >= 1, got {prefetch}")
        self.srs = srs
        self.store = store
        self.prefetch = prefetch
        #: DRAM-resident per-node rectangles (small), keyed by address.
        self._rects: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.root_address = self._persist(srs.tree.root)

    def _persist(self, node: _Node) -> int:
        if node.is_leaf:
            entries = node.point_ids.astype(np.uint64)
        else:
            entries = np.array(
                [self._persist(child) for child in node.children], dtype=np.uint64
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
        self._rects[address] = (node.lower, node.upper)
        return address

    def _decode(self, raw: bytes, address: int) -> _NodeRecord:
        is_leaf, count = _HEADER.unpack_from(raw)
        entries = np.frombuffer(raw, dtype="<u8", count=count, offset=8).astype(np.uint64)
        lower, upper = self._rects[address]
        return _NodeRecord(is_leaf=bool(is_leaf), entries=entries, lower=lower, upper=upper)

    def query_task(self, query: np.ndarray, k: int, t_prime: int) -> Task:
        """Engine task: asynchronous best-first NN over on-storage nodes."""
        return self._run(np.asarray(query, dtype=np.float64).reshape(-1), k, t_prime, True)

    def query_task_sync_order(self, query: np.ndarray, k: int, t_prime: int) -> Task:
        """Same walk, but one node read per batch (no prefetching)."""
        return self._run(np.asarray(query, dtype=np.float64).reshape(-1), k, t_prime, False)

    def _run(self, query: np.ndarray, k: int, t_prime: int, prefetch: bool) -> Task:
        if k < 1 or t_prime < k:
            raise ValueError("need k >= 1 and t_prime >= k")
        srs = self.srs
        projected_query = query @ srs.projection
        points = srs.projected

        def min_dist_sq(address: int) -> float:
            lower, upper = self._rects[address]
            delta = np.maximum(lower - projected_query, 0.0) + np.maximum(
                projected_query - upper, 0.0
            )
            return float((delta**2).sum())

        counter = 0
        # Frontier of (score, tiebreak, is_point, payload).
        frontier: list[tuple[float, int, bool, int]] = [
            (min_dist_sq(self.root_address), counter, False, self.root_address)
        ]
        best: list[tuple[float, int]] = []
        examined = 0
        while frontier and examined < t_prime:
            # Pop points cheaply; gather the next node addresses to read.
            to_read: list[int] = []
            width = self.prefetch if prefetch else 1
            while frontier and len(to_read) < width:
                score, _, is_point, payload = heapq.heappop(frontier)
                if is_point:
                    true_dist = float(
                        np.linalg.norm(
                            srs.data[payload].astype(np.float64) - query
                        )
                    )
                    heapq.heappush(best, (-true_dist, payload))
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
                record = self._decode(raw, address)
                if record.is_leaf:
                    ids = record.entries.astype(np.int64)
                    deltas = points[ids] - projected_query
                    dists = np.einsum("nm,nm->n", deltas, deltas)
                    for dist, point_id in zip(dists.tolist(), ids.tolist()):
                        counter += 1
                        heapq.heappush(frontier, (dist, counter, True, point_id))
                else:
                    for child in record.entries.tolist():
                        counter += 1
                        heapq.heappush(frontier, (min_dist_sq(child), counter, False, child))

        ordered = sorted((-neg, obj) for neg, obj in best)
        ids = np.array([obj for _, obj in ordered], dtype=np.int64)
        dists = np.array([dist for dist, _ in ordered], dtype=np.float64)
        return ids, dists
