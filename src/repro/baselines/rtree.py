"""Packed R-tree over low-dimensional points with incremental NN.

This is SRS's index substrate: the projected (m ~ 6-8 dimensional)
points are bulk-loaded into an R-tree and queried with the classic
best-first *incremental* nearest-neighbor algorithm (Hjaltason &
Samet): a priority queue holds nodes keyed by the minimum distance of
their bounding rectangle and points keyed by their exact distance;
popping yields points in strictly non-decreasing distance order.

Bulk loading uses Sort-Tile-Recursive (STR): points are recursively
sorted and sliced along successive dimensions until slices fit a leaf.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

__all__ = ["RTree", "NNCounters", "min_dist_sq"]


@dataclass
class NNCounters:
    """Modelled operations of one incremental-NN traversal.

    What the machine model prices: the textbook eager best-first search,
    every entry of a visited page pushed, every page and point popped.  Not
    host heap traffic (a visited leaf sits on the host's heap as one entry).
    """

    node_visits: int = 0
    heap_ops: int = 0
    points_returned: int = 0


class _Node:
    """One page: ``entries`` are point ids (leaf) or child nodes (internal).

    ``entry_lower`` / ``entry_upper`` stack the entries' rectangles row by
    row (a leaf's points are degenerate rectangles, stored once), so
    scoring every entry of a page against a query is one pass.
    """

    __slots__ = ("is_leaf", "entries", "entry_lower", "entry_upper", "lower", "upper")

    def __init__(
        self, is_leaf: bool, entries: list, entry_lower: np.ndarray, entry_upper: np.ndarray
    ) -> None:
        self.is_leaf = is_leaf
        self.entries = entries
        self.entry_lower = entry_lower
        self.entry_upper = entry_upper
        #: The page's own bounding rectangle.
        self.lower = entry_lower.min(axis=0)
        self.upper = entry_upper.max(axis=0)

    def entry_dist_sq(self, query: np.ndarray) -> np.ndarray:
        """Squared distance from ``query`` to each entry of this page."""
        if self.is_leaf:
            deltas = self.entry_lower - query
            return np.einsum("nm,nm->n", deltas, deltas)
        return min_dist_sq(self.entry_lower, self.entry_upper, query)


def min_dist_sq(lower: np.ndarray, upper: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Squared distance from ``query`` to each rectangle of a stack."""
    delta = np.maximum(lower - query, 0.0) + np.maximum(query - upper, 0.0)
    return (delta**2).sum(axis=-1)


class RTree:
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
        if ids.size <= self.leaf_capacity:
            points = self.points[ids]
            return _Node(True, ids.tolist(), points, points)
        # STR slice: sort along the cycling dimension, cut into fanout slabs.
        dim = depth % self.points.shape[1]
        order = ids[np.argsort(self.points[ids, dim], kind="stable")]
        n_slabs = min(self.fanout, math.ceil(ids.size / self.leaf_capacity))
        slab_size = math.ceil(ids.size / n_slabs)
        children = [
            self._build(order[i : i + slab_size], depth + 1)
            for i in range(0, ids.size, slab_size)
        ]
        return _Node(
            False,
            children,
            np.stack([child.lower for child in children]),
            np.stack([child.upper for child in children]),
        )

    def _count_nodes(self, node: _Node) -> int:
        if node.is_leaf:
            return 1
        return 1 + sum(self._count_nodes(child) for child in node.entries)

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
        root = self.root
        # Heap entries: (squared distance, tiebreak, page, position, order,
        # scores); a page still to be visited has order None.  A visited leaf
        # is *one* cursor entry keyed by its nearest unreturned point, entry
        # ``order[position]`` of its stable argsort.  Keys are those of pushing
        # every point at the visit, so pops, ties and yields are unchanged.
        heap = [(float(min_dist_sq(root.lower, root.upper, query)), 0, root, 0, None, None)]
        next_tiebreak = 1
        counters.heap_ops += 1
        push, pop, replace = heapq.heappush, heapq.heappop, heapq.heapreplace
        while heap:
            dist_sq, tiebreak, node, position, order, scores = heap[0]
            counters.heap_ops += 1
            if order is not None:
                entry = order.item(position)
                position += 1
                if position == order.size:
                    pop(heap)
                else:
                    following = order.item(position)
                    key = scores.item(following), tiebreak - entry + following
                    replace(heap, (*key, node, position, order, scores))
                counters.points_returned += 1
                yield math.sqrt(dist_sq), node.entries[entry]
                continue
            pop(heap)
            counters.node_visits += 1
            counters.heap_ops += len(node.entries)
            scores = node.entry_dist_sq(query)  # one kernel scores the whole page
            if node.is_leaf:
                order = scores.argsort(kind="stable")
                nearest = order.item(0)
                push(heap, (scores.item(nearest), next_tiebreak + nearest, node, 0, order, scores))
            else:
                tiebreaks = itertools.count(next_tiebreak)
                for score, tiebreak, child in zip(scores.tolist(), tiebreaks, node.entries):
                    push(heap, (score, tiebreak, child, 0, None, None))
            next_tiebreak += len(node.entries)

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
