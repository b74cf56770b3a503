"""Exact brute-force baseline.

Used for ground truth in tests and as the trivial linear-time
comparison point; its operation counts make the cost of exactness
explicit (n distance computations per query, always).
"""

from __future__ import annotations

import numpy as np

from repro.core.e2lsh import QueryAnswer
from repro.stats import OpCounts, QueryStats

__all__ = ["LinearScanIndex"]


class LinearScanIndex:
    """Exact k-NN by scanning the whole database."""

    def __init__(self, data: np.ndarray) -> None:
        data = np.ascontiguousarray(data, dtype=np.float32)
        if data.ndim != 2 or data.shape[0] == 0:
            raise ValueError(f"data must be a non-empty (n, d) array, got {data.shape}")
        self.data = data

    @property
    def n(self) -> int:
        """Database size."""
        return self.data.shape[0]

    @property
    def d(self) -> int:
        """Dimensionality."""
        return self.data.shape[1]

    def query(self, query: np.ndarray, k: int = 1) -> QueryAnswer:
        """Exact top-k answer."""
        if not 1 <= k <= self.n:
            raise ValueError(f"k must be in [1, {self.n}], got {k}")
        query = np.asarray(query, dtype=np.float64).reshape(-1)
        if query.size != self.d:
            raise ValueError(f"query has d={query.size}, index expects {self.d}")
        diffs = self.data.astype(np.float64) - query
        dists = np.sqrt(np.einsum("nd,nd->n", diffs, diffs))
        top = np.argpartition(dists, k - 1)[:k]
        order = top[np.argsort(dists[top], kind="stable")]
        stats = QueryStats(
            ops=OpCounts(
                distance_scalar_ops=self.n * self.d,
                candidate_fetches=self.n,
            ),
            candidates_checked=self.n,
        )
        return QueryAnswer(ids=order.astype(np.int64), distances=dists[order], stats=stats)

    def query_batch(self, queries: np.ndarray, k: int = 1) -> list[QueryAnswer]:
        """Answer each row of ``queries`` independently."""
        queries = np.asarray(queries, dtype=np.float32)
        if queries.ndim == 1:
            queries = queries[None, :]
        return [self.query(row, k=k) for row in queries]
