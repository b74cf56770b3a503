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

from collections.abc import Sequence
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
        (only,) = self.for_rung(hash_values[:, None])
        self.keys: np.ndarray = only.keys
        self.offsets: np.ndarray = only.offsets
        self.ids: np.ndarray = only.ids

    @classmethod
    def for_rung(cls, hash_values: np.ndarray) -> list["GroupedTable"]:
        """The L tables of one rung's (n, L) hash values, grouped by one sort.

        Sorting ``(key << 32) | row`` orders each table as a stable
        argsort of its keys would (ties break on the row).  Lossless
        only for keys in ``[0, 2**32)`` and ``n < 2**31`` (ids are int32).
        """
        n = hash_values.shape[0]
        packed = hash_values.T.astype(np.uint64, order="C")
        packed <<= np.uint64(32)
        packed |= np.arange(n, dtype=np.uint64)
        packed.sort(axis=1)
        tables = []
        for row in packed:
            table = cls.__new__(cls)
            sorted_values = row >> np.uint64(32)
            boundaries = np.flatnonzero(np.diff(sorted_values)) + 1
            # An empty table has no first key: [:n] drops the 0.
            firsts = sorted_values[np.concatenate(([0], boundaries))[:n]]
            table.keys = firsts.astype(hash_values.dtype)
            # int32/uint32 throughout: one table stores n entries and the
            # experiments keep hundreds of tables alive, so width matters.
            table.offsets = np.concatenate(([0], boundaries, [n])).astype(np.int32)
            table.ids = (row & np.uint64(0xFFFFFFFF)).astype(np.int32)
            tables.append(table)
        return tables

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
        if bank is None:
            bank = CompoundHashBank.create(
                d=data.shape[-1], m=params.m, L=params.L, w=params.w, seed=seed
            )
            projections = None  # projections must match the bank
        self._adopt(data, params, ladder, bank)
        self._fill_tables([self], bank, projections)

    @classmethod
    def for_gammas(
        cls,
        data: np.ndarray,
        params_list: Sequence[E2LSHParams],
        ladder: RadiusLadder,
        bank: CompoundHashBank,
    ) -> list["E2LSHIndex"]:
        """One index per ``params``, each as if constructed on ``bank.with_m(params.m)``.

        Built rung-outer: gamma only changes m (Sec. 3.3), so a rung's
        lattice codes are computed once for the whole sweep.
        """
        indices = [cls.__new__(cls) for _ in params_list]
        for index, params in zip(indices, params_list):
            index._adopt(data, params, ladder, bank.with_m(params.m))
        cls._fill_tables(indices, bank, None)
        return indices

    def _adopt(
        self, data: np.ndarray, params: E2LSHParams, ladder: RadiusLadder | None, bank: CompoundHashBank
    ) -> None:
        data = np.ascontiguousarray(data, dtype=np.float32)
        if data.ndim != 2 or data.shape[0] < 1:
            raise ValueError(f"data must be a non-empty (n, d) array, got {data.shape}")
        if params.n != data.shape[0]:
            raise ValueError(f"params.n={params.n} != n={data.shape[0]}")
        if bank.m != params.m or bank.L != params.L:
            raise ValueError(
                f"bank has (m={bank.m}, L={bank.L}), params need "
                f"(m={params.m}, L={params.L}); use bank.with_m()"
            )
        self.data = data
        self.params = params
        self.ladder = ladder or RadiusLadder.for_data(data, params.c)
        self.bank = bank
        # tables[rung][li] — built once, queried many times.
        self.tables: list[list[GroupedTable]] = []

    @staticmethod
    def _fill_tables(
        indices: "Sequence[E2LSHIndex]", bank: CompoundHashBank, projections: np.ndarray | None
    ) -> None:
        """Hash and group each rung once for ``indices`` (on prefix banks of ``bank``)."""
        if projections is None:
            projections = bank.project(indices[0].data)
        widths = [index.params.m for index in indices]
        for radius in indices[0].ladder:
            for index, hash_values in zip(indices, bank.hash_prefixes(projections, radius, widths)):
                index.tables.append(GroupedTable.for_rung(hash_values))

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
