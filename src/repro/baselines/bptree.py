"""Bulk-loaded B+ tree over (float key, int value) pairs.

This is QALSH's index substrate: one tree per hash function, keyed by
the projection ``a_i . o`` with the object ID as value.  A bulk-loaded,
immutable B+ tree is fully described by its sorted entries plus
``(leaf_capacity, fanout)``: leaf ``j`` is entries
``[j * leaf_capacity, (j + 1) * leaf_capacity)``, a root-to-leaf descent
ends at the first entry with key >= x (one ``searchsorted``) after
``height`` node visits, and a window walk touches every leaf between
its two end positions.  The tree is stored as exactly that, and the
operation counts of the paged walk are computed from positions:

- :meth:`rank` / :meth:`locate`: first entry with key >= x, and
- :meth:`window`: all entries with keys in [lo, hi), counting node
  visits, leaf visits and entries scanned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = ["BPlusTree", "TraversalCounters", "LeafView"]


@dataclass
class TraversalCounters:
    """Operation counters for one traversal."""

    node_visits: int = 0
    leaf_visits: int = 0
    entries_scanned: int = 0


class LeafView(NamedTuple):
    """The entries of one leaf page (views into the tree's arrays)."""

    keys: np.ndarray
    values: np.ndarray


class BPlusTree:
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
        #: Entries in key order; leaf j is the j-th run of ``leaf_capacity``.
        self.keys = keys[order]
        self.values = values[order]
        self.leaf_capacity = leaf_capacity
        self.fanout = fanout
        self.n_entries = int(keys.size)
        #: Levels from the leaves up to a single root.
        self.height = 1
        level = -(-self.n_entries // leaf_capacity)
        while level > 1:
            level = -(-level // fanout)
            self.height += 1

    # -- lookups -------------------------------------------------------------

    def rank(self, keys: np.ndarray) -> np.ndarray:
        """Position of the first entry >= each of ``keys`` (``n`` if none).

        Each probe stands for one root-to-leaf descent: ``height`` node
        visits, charged by the caller.
        """
        return self.keys.searchsorted(keys, side="left")

    def locate(self, key: float, counters: TraversalCounters | None = None) -> tuple[LeafView, int]:
        """Leaf and in-leaf index of the first entry with key >= ``key``.

        If every key is smaller, returns the last leaf with an index one
        past its end.
        """
        if counters is not None:
            counters.node_visits += self.height
            counters.leaf_visits += 1
        position = int(self.rank(key))
        start = min(position, self.n_entries - 1) // self.leaf_capacity * self.leaf_capacity
        stop = start + self.leaf_capacity
        return LeafView(self.keys[start:stop], self.values[start:stop]), position - start

    def window(
        self,
        lo: float,
        hi: float,
        counters: TraversalCounters | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """All (keys, values) with ``lo <= key < hi`` in ascending order."""
        if hi < lo:
            raise ValueError(f"empty window: hi={hi} < lo={lo}")
        first, last = self.rank((lo, hi)).tolist()
        if counters is not None:
            counters.node_visits += self.height
            counters.entries_scanned += last - first
            # The descent's leaf, then every leaf from ``first``'s to the
            # one holding ``last`` (the walk stops inside it, or runs off
            # the final leaf when ``last`` is past every key).
            counters.leaf_visits += 1
            if first < self.n_entries:
                end = min(last, self.n_entries - 1)
                counters.leaf_visits += end // self.leaf_capacity - first // self.leaf_capacity + 1
        return self.keys[first:last], self.values[first:last]

    def min_key(self) -> float:
        """Smallest key in the tree."""
        return float(self.keys[0])

    def max_key(self) -> float:
        """Largest key in the tree."""
        return float(self.keys[-1])

    def __len__(self) -> int:
        return self.n_entries
