"""SRS: c-ANNS with a tiny index (Sun et al., VLDB 2014).

SRS projects the d-dimensional database into a tiny m-dimensional space
(m = 8 here, the value the paper found to work well for all datasets,
Sec. 3.3) using Gaussian random projections, indexes the projections in
an R-tree, and answers a query by walking the projected points in
increasing projected distance (incremental NN), checking true distances
as it goes.  Two stopping rules apply:

- the budget rule: stop after T' points (the accuracy knob), and
- the early-termination test: if a point with true distance below
  ``best / c`` existed, its projected distance squared over
  ``(best/c)^2`` would be chi^2_m distributed; once the frontier's
  projected distance makes that event unlikely (CDF above a threshold
  tied to the target success probability), searching further cannot
  change the c-approximate answer.

The index is linear in n and the query time is linear in n — the paper
uses SRS as the representative state-of-the-art small-index method.
"""

from __future__ import annotations

import itertools
import math
from array import array
from bisect import bisect_left
from collections import OrderedDict
from collections.abc import Iterator

import numpy as np
from scipy.stats import chi2

from repro.baselines.rtree import NNCounters, RTree
from repro.core.e2lsh import QueryAnswer
from repro.stats import OpCounts, QueryStats
from repro.utils.rng import rng_for
from repro.utils.validation import require_finite_rows

__all__ = ["SRSIndex", "DEFAULT_EARLY_STOP_CONFIDENCE"]

#: Early-termination confidence tied to the paper's success probability
#: target of 1/2 - 1/e (stop once the chance of a missed c-NN among the
#: unseen points drops below 1 - that target).
DEFAULT_EARLY_STOP_CONFIDENCE = 1.0 - (0.5 - 1.0 / np.e)

#: Walks kept across all indices, least recently used first out: one T' sweep's
#: query set (40 at the default scale); past that a sweep walks from the root again.
_MAX_WALKS = 64
#: (tree walked, query bytes) -> (recorded columns, the suspended walk).
_WALKS: OrderedDict[tuple[RTree, bytes], tuple[tuple[array, ...], Iterator[tuple]]] = OrderedDict()


def _extend(
    columns: tuple[array, ...], tree: RTree, data: np.ndarray, query: np.ndarray, start: np.ndarray
) -> Iterator[tuple[float, int, float, int, int]]:
    """``(projected dist, point id, true dist, node visits, heap ops)`` per point.

    Tree and query fix the stream (T' picks a prefix, k a top-k of it), so it
    is walked once: ``columns`` records each point beside the ``NNCounters``
    values at its yield; later calls replay that, then resume this generator.
    """
    counters = NNCounters()
    dists, ids, true_dists, node_visits, heap_ops = (column.append for column in columns)
    for projected_dist, point_id in tree.incremental_nn(start, counters):
        diff = data[point_id] - query  # float32 row promoted exactly
        true_dist = math.sqrt(diff.dot(diff))
        dists(projected_dist)
        ids(point_id)
        true_dists(true_dist)
        node_visits(counters.node_visits)
        heap_ops(counters.heap_ops)
        yield projected_dist, point_id, true_dist, counters.node_visits, counters.heap_ops


class SRSIndex:
    """SRS over a fixed database."""

    def __init__(
        self,
        data: np.ndarray,
        m: int = 8,
        c: float = 4.0,
        seed: int = 0,
        leaf_capacity: int = 32,
        fanout: int = 8,
    ) -> None:
        data = np.ascontiguousarray(data, dtype=np.float32)
        if data.ndim != 2 or data.shape[0] == 0:
            raise ValueError(f"data must be a non-empty (n, d) array, got {data.shape}")
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        if c <= 1:
            raise ValueError(f"c must be > 1, got {c}")
        self.data = data
        self.m = m
        self.c = c
        rng = rng_for(seed, "srs-projection")
        #: Gaussian projection: projected dist^2 ~ true dist^2 * chi^2_m.
        self.projection = rng.standard_normal((data.shape[1], m)).astype(np.float64)
        self.projected = data.astype(np.float64) @ self.projection
        self.tree = RTree(self.projected, leaf_capacity=leaf_capacity, fanout=fanout)

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
        """Modelled DRAM, projections + R-tree: the paper's "tiny index" (not the walk memo)."""
        return self.projected.nbytes + self.tree.memory_bytes + self.projection.nbytes

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
        require_finite_rows(query[None, :], "queries")
        budget = t_prime if t_prime is not None else self.n
        if budget < k:
            raise ValueError(f"t_prime={budget} smaller than k={k}")

        key = (self.tree, query.tobytes())
        # Out of the memo while it runs: a walk torn by an error or an
        # interrupt never goes back, so cannot pass for an exhausted one.
        walk = _WALKS.pop(key, None)
        if walk is None:
            columns = (array("d"), array("q"), array("d"), array("q"), array("q"))
            query = query.copy()  # the walk outlives the caller's buffer
            walk = (columns, _extend(columns, self.tree, self.data, query, query @ self.projection))
        best_ids: list[int] = []
        best_dists: list[float] = []
        examined = node_visits = heap_ops = 0
        # chain: unlike ``yield from``, leaving it early keeps the walk suspended.
        points = itertools.chain(zip(*walk[0]), walk[1])
        for projected_dist, point_id, true_dist, node_visits, heap_ops in points:
            examined += 1
            # Maintain the running top-k (insertion into a short list).
            position = bisect_left(best_dists, true_dist)
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
        _WALKS[key] = walk
        if len(_WALKS) > _MAX_WALKS:
            _WALKS.popitem(last=False)

        stats = QueryStats(
            ops=OpCounts(
                projection_scalar_ops=self.d * self.m,
                distance_scalar_ops=examined * self.d,
                candidate_fetches=examined,
                tree_node_visits=node_visits,
                heap_ops=heap_ops,
            ),
            candidates_checked=examined,
        )
        return QueryAnswer(
            ids=np.asarray(best_ids, dtype=np.int64),
            distances=np.asarray(best_dists, dtype=np.float64),
            stats=stats,
        )

    def query_batch(
        self, queries: np.ndarray, k: int = 1, t_prime: int | None = None
    ) -> list[QueryAnswer]:
        """Answer each row of ``queries`` independently."""
        queries = np.asarray(queries, dtype=np.float32)
        if queries.ndim == 1:
            queries = queries[None, :]
        require_finite_rows(queries, "queries")
        return [self.query(row, k=k, t_prime=t_prime) for row in queries]
