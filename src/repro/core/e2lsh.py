"""In-memory E2LSH answering top-k c-ANNS (paper Secs. 2.3 and 4).

This is the reference implementation used (a) as the in-memory
competitor in Figures 2, 11, 13 and 14, and (b) as the *measurement
instrument* of Sec. 4: running it yields the average rung count and the
bucket occupancies from which the I/O cost of an external-memory
execution is derived (Table 4, Figure 3).

The hash index is a CSR-grouped table per (radius rung, compound hash):
sorted unique 32-bit hash keys, offsets, and a flat object-ID array.
Queries walk the radius ladder; each rung probes L buckets, collects at
most S candidates, distance-checks them against the query, and stops as
soon as k objects lie within ``c * R`` (the (R, c)-NN success condition).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.lsh import CompoundHashBank
from repro.core.params import E2LSHParams
from repro.stats import QueryStats
from repro.core.radii import RadiusLadder
from repro.utils.validation import require_finite_rows

__all__ = ["E2LSHIndex", "QueryAnswer", "GroupedTable"]


@dataclass(frozen=True, eq=False)
class QueryAnswer:
    """Result of one top-k query."""

    #: Object IDs sorted by increasing true distance (may be < k IDs).
    ids: np.ndarray
    #: True Euclidean distances matching :attr:`ids`.
    distances: np.ndarray
    #: What the query did (drives the timing model and Sec. 4 analysis).
    stats: QueryStats = field(default_factory=QueryStats, compare=False)

    @property
    def found(self) -> bool:
        """True if at least one neighbor was reported."""
        return self.ids.size > 0


class GroupedTable:
    """One (rung, table) bucket map in CSR form."""

    __slots__ = ("keys", "offsets", "ids")

    def __init__(self, hash_values: np.ndarray) -> None:
        order = np.argsort(hash_values, kind="stable")
        sorted_values = hash_values[order]
        boundaries = np.flatnonzero(np.diff(sorted_values)) + 1
        self.keys = sorted_values[np.concatenate(([0], boundaries))] if sorted_values.size else sorted_values
        # int32/uint32 throughout: one table stores n entries and the
        # experiments keep hundreds of tables alive, so width matters.
        self.offsets = np.concatenate(([0], boundaries, [sorted_values.size])).astype(np.int32)
        self.ids = order.astype(np.int32)

    @property
    def n_buckets(self) -> int:
        """Number of non-empty buckets."""
        return int(self.keys.size)

    @property
    def memory_bytes(self) -> int:
        """DRAM footprint of this table."""
        return self.keys.nbytes + self.offsets.nbytes + self.ids.nbytes

    def lookup(self, hash_value: int) -> np.ndarray:
        """Object IDs in the bucket for ``hash_value`` (possibly empty)."""
        position = np.searchsorted(self.keys, hash_value)
        if position == self.keys.size or self.keys[position] != hash_value:
            return self.ids[:0]
        return self.ids[self.offsets[position] : self.offsets[position + 1]]

    def bucket_sizes(self) -> np.ndarray:
        """Sizes of all non-empty buckets (for the Sec. 4.3 analysis)."""
        return np.diff(self.offsets)


class E2LSHIndex:
    """In-memory E2LSH over a fixed database."""

    def __init__(
        self,
        data: np.ndarray,
        params: E2LSHParams,
        ladder: RadiusLadder | None = None,
        seed: int = 0,
        bank: CompoundHashBank | None = None,
        projections: np.ndarray | None = None,
    ) -> None:
        data = np.ascontiguousarray(data, dtype=np.float32)
        if data.ndim != 2 or data.shape[0] < 1:
            raise ValueError(f"data must be a non-empty (n, d) array, got {data.shape}")
        if params.n != data.shape[0]:
            raise ValueError(f"params.n={params.n} != n={data.shape[0]}")
        self.data = data
        self.params = params
        self.ladder = ladder or RadiusLadder.for_data(data, params.c)
        if bank is None:
            bank = CompoundHashBank.create(
                d=data.shape[1], m=params.m, L=params.L, w=params.w, seed=seed
            )
            projections = None  # projections must match the bank
        if bank.m != params.m or bank.L != params.L:
            raise ValueError(
                f"bank has (m={bank.m}, L={bank.L}), params need "
                f"(m={params.m}, L={params.L}); use bank.with_m()"
            )
        self.bank = bank
        # tables[rung][li] — built once, queried many times.
        self.tables: list[list[GroupedTable]] = []
        if projections is None:
            projections = self.bank.project(data)
        for radius in self.ladder:
            hash_values = self.bank.hash_projections(projections, radius)
            self.tables.append([GroupedTable(hash_values[:, li]) for li in range(params.L)])
        del projections

    # -- introspection ----------------------------------------------------

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
        """DRAM held by the hash index (excludes the database itself)."""
        tables = sum(t.memory_bytes for rung in self.tables for t in rung)
        return tables + self.bank.memory_bytes

    def bucket_sizes(self, rung: int) -> list[np.ndarray]:
        """Non-empty bucket sizes of every table at one rung."""
        return [table.bucket_sizes() for table in self.tables[rung]]

    # -- query -------------------------------------------------------------

    def query(self, query: np.ndarray, k: int = 1) -> QueryAnswer:
        """Top-k c-ANNS via the (R, c)-NN radius ladder."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        query = np.asarray(query, dtype=np.float32).reshape(-1)
        if query.size != self.d:
            raise ValueError(f"query has d={query.size}, index expects {self.d}")

        params = self.params
        n_tables, budget, c = params.L, params.S, params.c
        rung_scalar_ops = n_tables * params.m
        query64 = query.astype(np.float64)
        stats = QueryStats()
        stats.ops.projection_scalar_ops += self.d * rung_scalar_ops
        projections = self.bank.project(query)

        pool_ids = np.empty(0, dtype=np.int64)
        pool_dists = np.empty(0, dtype=np.float64)

        for rung_index, radius in enumerate(self.ladder):
            stats.rungs_searched += 1
            stats.ops.rounds += 1
            stats.ops.projection_scalar_ops += rung_scalar_ops  # re-quantize + mix
            hash_values = self.bank.hash_projections(projections, radius)[0]

            collected: list[np.ndarray] = []
            total = 0
            for li in range(n_tables):
                stats.buckets_probed += 1
                stats.ops.bucket_lookups += 1
                ids = self.tables[rung_index][li].lookup(int(hash_values[li])).astype(np.int64)
                if ids.size == 0:
                    continue
                stats.nonempty_buckets += 1
                take = min(ids.size, budget - total)
                stats.bucket_sizes_examined.append(int(take))
                if take > 0:
                    collected.append(ids[:take])
                    total += take
                if total >= budget:
                    break

            if collected:
                candidates = np.unique(np.concatenate(collected))
                new = candidates[~np.isin(candidates, pool_ids, assume_unique=True)]
                if new.size:
                    diffs = self.data[new].astype(np.float64) - query64
                    dists = np.sqrt(np.einsum("nd,nd->n", diffs, diffs))
                    stats.candidates_checked += int(new.size)
                    stats.ops.candidate_fetches += int(new.size)
                    stats.ops.distance_scalar_ops += int(new.size) * self.d
                    pool_ids = np.concatenate([pool_ids, new])
                    pool_dists = np.concatenate([pool_dists, dists])

            # (R, c)-NN success: k objects within c * R terminate the ladder.
            if pool_ids.size and int((pool_dists <= c * radius).sum()) >= k:
                break

        stats.bucket_blocks_read = len(stats.bucket_sizes_examined)

        if pool_ids.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return QueryAnswer(ids=empty, distances=empty.astype(np.float64), stats=stats)
        order = np.argsort(pool_dists, kind="stable")[:k]
        return QueryAnswer(ids=pool_ids[order], distances=pool_dists[order], stats=stats)

    def query_batch(self, queries: np.ndarray, k: int = 1) -> list[QueryAnswer]:
        """Answer each row of ``queries`` independently."""
        queries = np.asarray(queries, dtype=np.float32)
        if queries.ndim == 1:
            queries = queries[None, :]
        require_finite_rows(queries, "queries")
        return [self.query(row, k=k) for row in queries]
