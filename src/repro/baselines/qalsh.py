"""QALSH: query-aware LSH with collision counting (Huang et al., VLDB 2015).

QALSH keeps one B+ tree per hash function over the raw projections
``a_i . o`` (no quantization at build time — buckets are defined at
query time, *centered on the query's projection*, hence "query-aware").
A query proceeds by virtual rehashing: for rounds ``R = 1, c, c^2, ...``
each tree's search window is ``[a_i.q - w R / 2, a_i.q + w R / 2]``;
objects appearing in a window increment a collision counter, and an
object whose count reaches the threshold ``l = alpha * m`` becomes a
candidate for true-distance checking.  The search stops when

- T1: the current k-th best distance is within ``c * R``, or
- T2: ``beta * n + k - 1`` candidates have been checked.

Index size is O(n log n) and query time superlinear — the paper's
Figure 2 shows QALSH consistently slower than SRS, which our
implementation reproduces.  The accuracy knob is the approximation
ratio ``c`` (Sec. 3.3: "for lack of other tweakable parameters").
"""

from __future__ import annotations

import math
from bisect import bisect_left

import numpy as np

from repro.baselines.bptree import BPlusTree
from repro.core.collision import query_aware_collision_probability
from repro.core.e2lsh import QueryAnswer
from repro.stats import OpCounts, QueryStats
from repro.utils.rng import rng_for
from repro.utils.validation import require_finite_rows

__all__ = ["QALSHIndex", "qalsh_parameters", "DEFAULT_DELTA"]

#: Failure probability delta giving the paper's success target 1/2 - 1/e.
DEFAULT_DELTA = 1.0 - (0.5 - 1.0 / math.e)


def qalsh_parameters(
    n: int, c: float, w: float, delta: float = DEFAULT_DELTA, beta_count: int = 100
) -> tuple[int, float, int]:
    """Derive (m, alpha, collision threshold l) per the QALSH paper.

    ``beta_count = beta * n`` is the candidate budget (QALSH uses 100).
    """
    if n < 1 or c <= 1 or w <= 0 or not 0 < delta < 1:
        raise ValueError("invalid QALSH parameters")
    p1 = float(query_aware_collision_probability(w))
    p2 = float(query_aware_collision_probability(w / c))
    beta = min(1.0, beta_count / n)
    term_beta = math.sqrt(math.log(2.0 / beta))
    term_delta = math.sqrt(math.log(1.0 / delta))
    m = max(1, math.ceil((term_beta + term_delta) ** 2 / (2.0 * (p1 - p2) ** 2)))
    alpha = (term_beta * p2 + term_delta * p1) / (term_beta + term_delta)
    threshold = max(1, math.ceil(alpha * m))
    return m, alpha, threshold


class QALSHIndex:
    """QALSH over a fixed database."""

    #: QALSH's recommended bucket width for c = 2.
    DEFAULT_W = 2.719

    def __init__(
        self,
        data: np.ndarray,
        c: float = 2.0,
        w: float | None = None,
        delta: float = DEFAULT_DELTA,
        beta_count: int = 100,
        seed: int = 0,
        leaf_capacity: int = 64,
    ) -> None:
        data = np.ascontiguousarray(data, dtype=np.float32)
        if data.ndim != 2 or data.shape[0] == 0:
            raise ValueError(f"data must be a non-empty (n, d) array, got {data.shape}")
        self.data = data
        self.c = c
        self.w = w if w is not None else self.DEFAULT_W
        self.delta = delta
        self.beta_count = beta_count
        self.m, self.alpha, self.threshold = qalsh_parameters(
            data.shape[0], c, self.w, delta, beta_count
        )
        rng = rng_for(seed, "qalsh-projections")
        self.directions = rng.standard_normal((data.shape[1], self.m)).astype(np.float64)
        projections = data.astype(np.float64) @ self.directions
        ids = np.arange(data.shape[0], dtype=np.int64)
        self.trees = [
            BPlusTree(projections[:, i], ids, leaf_capacity=leaf_capacity)
            for i in range(self.m)
        ]
        self._proj_extent = float(np.abs(projections).max()) or 1.0

    @property
    def n(self) -> int:
        """Database size."""
        return self.data.shape[0]

    @property
    def d(self) -> int:
        """Dimensionality."""
        return self.data.shape[1]

    @property
    def index_memory_bytes(self) -> int:
        """DRAM of the m B+ trees (keys + values + node overhead)."""
        per_entry = 16 + 4  # key + value + amortized node overhead
        return self.m * self.n * per_entry + self.directions.nbytes

    def query(self, query: np.ndarray, k: int = 1, c: float | None = None) -> QueryAnswer:
        """Top-k c-ANNS by virtual rehashing; ``c`` overrides the knob."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        query = np.asarray(query, dtype=np.float64).reshape(-1)
        if query.size != self.d:
            raise ValueError(f"query has d={query.size}, index expects {self.d}")
        require_finite_rows(query[None, :], "queries")
        c = c if c is not None else self.c
        if c <= 1:
            raise ValueError(f"c must be > 1, got {c}")

        projected_query = query @ self.directions
        counts = np.zeros(self.n, dtype=np.int64)
        checked = np.zeros(self.n, dtype=bool)
        #: Per-tree already-covered window [lo, hi) — grown each round.
        window_lo = projected_query
        window_hi = projected_query
        budget = self.beta_count + k - 1
        node_visits = 0
        entries_scanned = 0

        best_ids: list[int] = []
        best_dists: list[float] = []
        candidates_checked = 0
        rounds = 0

        radius = 1.0
        max_radius = 4.0 * self._proj_extent / self.w + 1.0
        while True:
            rounds += 1
            half_width = self.w * radius / 2.0
            lo, hi = projected_query - half_width, projected_query + half_width
            # Only the not-yet-covered flanks [lo, window_lo) and
            # [window_hi, hi) are new this round: four descents per tree
            # find both, and a flank that did not grow costs nothing.
            probes = np.stack((lo, window_lo, window_hi, hi), axis=1)
            grew_lo, grew_hi = (lo < window_lo).tolist(), (window_hi < hi).tolist()
            flanks: list[np.ndarray] = []
            for tree, probe, left, right in zip(self.trees, probes, grew_lo, grew_hi):
                lo0, lo1, hi0, hi1 = tree.rank(probe).tolist()
                if left:
                    node_visits += tree.height
                    entries_scanned += lo1 - lo0
                    flanks.append(tree.values[lo0:lo1])
                if right:
                    node_visits += tree.height
                    entries_scanned += hi1 - hi0
                    flanks.append(tree.values[hi0:hi1])
            window_lo, window_hi = lo, hi
            if flanks:
                counts += np.bincount(np.concatenate(flanks), minlength=self.n)

            # Counts only grow and a round that leaves candidates
            # unchecked ends the query, so every unchecked object at the
            # threshold crossed it this round.
            candidates = np.flatnonzero((counts >= self.threshold) & ~checked)
            candidates = candidates[: budget - candidates_checked]
            if candidates.size:
                checked[candidates] = True
                diffs = self.data[candidates].astype(np.float64) - query
                dists = np.sqrt(np.einsum("nd,nd->n", diffs, diffs))
                candidates_checked += int(candidates.size)
                for obj, dist in zip(candidates.tolist(), dists.tolist()):
                    position = bisect_left(best_dists, dist)
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
                distance_scalar_ops=candidates_checked * self.d,
                candidate_fetches=candidates_checked,
                btree_entry_scans=entries_scanned,
                tree_node_visits=node_visits,
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

    def query_batch(
        self, queries: np.ndarray, k: int = 1, c: float | None = None
    ) -> list[QueryAnswer]:
        """Answer each row of ``queries`` independently."""
        queries = np.asarray(queries, dtype=np.float32)
        if queries.ndim == 1:
            queries = queries[None, :]
        require_finite_rows(queries, "queries")
        return [self.query(row, k=k, c=c) for row in queries]
