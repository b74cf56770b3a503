"""Multi-probe extension of E2LSH (paper Sec. 7 discussion item).

The paper's Discussion suggests "incorporating the ideas from
small-index methods in such a way that the index size of E2LSHoS is
reduced without sacrificing its sublinear query time".  Multi-Probe LSH
(Lv et al., VLDB 2007) is the canonical such idea: probe not only the
bucket the query hashes to but also the *neighboring* lattice cells
most likely to hold near objects, so fewer tables (smaller L, hence a
smaller index) reach the same recall.

This module implements query-directed probing on top of the existing
:class:`~repro.core.e2lsh.E2LSHIndex`: for each (rung, table) it
generates up to ``n_probes`` perturbed compound hash values, ordered by
the query-to-boundary distances of the perturbed coordinates (the
standard query-directed score), and probes each of them.  The ablation
benchmark compares index size and I/O count against plain E2LSH at
equal accuracy.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.core.e2lsh import E2LSHIndex, QueryAnswer
from repro.core.lsh import CompoundHashBank
from repro.stats import QueryStats

__all__ = ["MultiProbeE2LSH", "perturbation_sequence"]


def perturbation_sequence(
    boundary_distances: np.ndarray, max_probes: int
) -> list[tuple[int, ...]]:
    """Query-directed perturbation sets, cheapest first.

    ``boundary_distances`` has shape (m, 2): for each of the m hash
    coordinates, the squared distance from the query's projection to
    the lower (delta = -1) and upper (delta = +1) cell boundary.  A
    perturbation set flips a subset of coordinates by +-1; its score is
    the sum of the flipped boundary distances.  Sets are enumerated
    best-first with the classic heap of (score, set) expansions.

    Returns up to ``max_probes`` non-empty perturbation sets encoded as
    tuples of flat indices into ``boundary_distances`` (index 2*j + s
    flips coordinate j toward side s).
    """
    m = boundary_distances.shape[0]
    if boundary_distances.shape != (m, 2):
        raise ValueError("boundary_distances must have shape (m, 2)")
    if max_probes <= 0:
        return []
    flat = boundary_distances.reshape(-1)
    order = np.argsort(flat, kind="stable")
    # Heap entries: (score, next_rank_to_extend, frozenset of ranks).
    out: list[tuple[int, ...]] = []
    heap: list[tuple[float, tuple[int, ...]]] = [(float(flat[order[0]]), (0,))]
    seen = {(0,)}
    while heap and len(out) < max_probes:
        score, ranks = heapq.heappop(heap)
        coords = [int(order[r]) for r in ranks]
        # A valid set flips each coordinate at most once (not both sides).
        if len({c // 2 for c in coords}) == len(coords):
            out.append(tuple(coords))
        last = ranks[-1]
        # "Shift" and "expand" successors (Lv et al. Sec. 4.2).
        if last + 1 < flat.size:
            shifted = ranks[:-1] + (last + 1,)
            if shifted not in seen:
                seen.add(shifted)
                heapq.heappush(
                    heap,
                    (score - float(flat[order[last]]) + float(flat[order[last + 1]]), shifted),
                )
            expanded = ranks + (last + 1,)
            if expanded not in seen:
                seen.add(expanded)
                heapq.heappush(heap, (score + float(flat[order[last + 1]]), expanded))
    return out


@dataclass
class MultiProbeE2LSH:
    """Query-directed multi-probe wrapper around an E2LSH index."""

    index: E2LSHIndex
    #: Extra probes per (rung, table) beyond the home bucket.
    n_probes: int = 8

    def __post_init__(self) -> None:
        if self.n_probes < 0:
            raise ValueError(f"n_probes must be >= 0, got {self.n_probes}")

    def query(self, query: np.ndarray, k: int = 1) -> QueryAnswer:
        """Top-k c-ANNS probing perturbed buckets at every rung."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        index = self.index
        params = index.params
        bank = index.bank
        query = np.asarray(query, dtype=np.float32).reshape(-1)
        if query.size != index.d:
            raise ValueError(f"query has d={query.size}, index expects {index.d}")

        n_tables, m, budget, c = params.L, params.m, params.S, params.c
        query64 = query.astype(np.float64)
        stats = QueryStats()
        stats.ops.projection_scalar_ops += index.d * n_tables * m
        projections = bank.project(query)

        pool_ids = np.empty(0, dtype=np.int64)
        pool_dists = np.empty(0, dtype=np.float64)

        for rung_index, radius in enumerate(index.ladder):
            stats.rungs_searched += 1
            stats.ops.rounds += 1
            width = bank.w * radius
            scaled = projections[0] / width + bank.b  # fractional lattice coords
            codes = np.floor(scaled).astype(np.int64).reshape(n_tables, m)
            fractions = (scaled - np.floor(scaled)).reshape(n_tables, m)

            collected: list[np.ndarray] = []
            total = 0
            for li in range(n_tables):
                # Home bucket plus query-directed perturbations.
                lower = fractions[li] ** 2
                upper = (1.0 - fractions[li]) ** 2
                boundary = np.stack([lower, upper], axis=1)
                probe_sets = [()] + perturbation_sequence(boundary, self.n_probes)
                for probe in probe_sets:
                    perturbed = codes[li].copy()
                    for flat_index in probe:
                        coordinate, side = divmod(flat_index, 2)
                        perturbed[coordinate] += -1 if side == 0 else 1
                    hash_value = int(self._mix_single(bank, perturbed, li))
                    stats.buckets_probed += 1
                    stats.ops.bucket_lookups += 1
                    ids = index.tables[rung_index][li].lookup(hash_value).astype(np.int64)
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
                if total >= budget:
                    break

            if collected:
                candidates = np.unique(np.concatenate(collected))
                new = candidates[~np.isin(candidates, pool_ids, assume_unique=True)]
                if new.size:
                    diffs = index.data[new].astype(np.float64) - query64
                    dists = np.sqrt(np.einsum("nd,nd->n", diffs, diffs))
                    stats.candidates_checked += int(new.size)
                    stats.ops.candidate_fetches += int(new.size)
                    stats.ops.distance_scalar_ops += int(new.size) * index.d
                    pool_ids = np.concatenate([pool_ids, new])
                    pool_dists = np.concatenate([pool_dists, dists])

            if pool_ids.size and int((pool_dists <= c * radius).sum()) >= k:
                break

        if pool_ids.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return QueryAnswer(ids=empty, distances=empty.astype(np.float64), stats=stats)
        order = np.argsort(pool_dists, kind="stable")[:k]
        return QueryAnswer(ids=pool_ids[order], distances=pool_dists[order], stats=stats)

    @staticmethod
    def _mix_single(bank: CompoundHashBank, codes_row: np.ndarray, li: int) -> int:
        """32-bit hash of one table's (possibly perturbed) code vector.

        Must reproduce :meth:`CompoundHashBank.mix32` exactly — modular
        arithmetic in uint64 arrays, so overflow wraps silently and the
        home probe hits the same bucket the index was built with.
        """
        unsigned = codes_row.astype(np.uint64)
        mixed = np.array(
            [np.einsum("m,m->", unsigned, bank.mixers[li], dtype=np.uint64)],
            dtype=np.uint64,
        )
        mixed ^= mixed >> np.uint64(31)
        mixed *= np.uint64(0x9E3779B97F4A7C15)
        return int(mixed[0] >> np.uint64(32))

    def query_batch(self, queries: np.ndarray, k: int = 1) -> list[QueryAnswer]:
        """Answer each row of ``queries`` independently."""
        queries = np.asarray(queries, dtype=np.float32)
        if queries.ndim == 1:
            queries = queries[None, :]
        return [self.query(row, k=k) for row in queries]
