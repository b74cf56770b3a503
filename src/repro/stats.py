"""Operation counts and per-query statistics.

The reproduction replaces wall-clock measurement with *operation
counting*: every algorithm records how many scalar multiply-adds, random
memory fetches, index-structure probes, etc. it actually performed, and
:mod:`repro.analysis.machine_model` converts those counts into
nanoseconds calibrated against the paper's hardware.  This keeps the
compute/I-O cost *ratios* — which the paper's conclusions rest on —
while the absolute numbers come from real executions of real code.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

__all__ = ["OpCounts", "QueryStats"]


@dataclass
class OpCounts:
    """Primitive operation counters shared by all methods."""

    #: Scalar multiply-adds spent projecting points onto hash directions.
    projection_scalar_ops: int = 0
    #: Scalar operations spent computing Euclidean distances.
    distance_scalar_ops: int = 0
    #: Candidate objects fetched from DRAM for distance checking.
    candidate_fetches: int = 0
    #: Hash-table probes (in-memory tables / slot parses).
    bucket_lookups: int = 0
    #: R-tree nodes expanded (SRS).
    tree_node_visits: int = 0
    #: B+-tree leaf entries touched during window expansion (QALSH).
    btree_entry_scans: int = 0
    #: Priority-queue pushes/pops (SRS incremental NN).
    heap_ops: int = 0
    #: Search rounds (radius rungs / virtual-rehash rounds).
    rounds: int = 0

    def add(self, other: "OpCounts") -> None:
        """Accumulate ``other`` into ``self`` in place."""
        self.projection_scalar_ops += other.projection_scalar_ops
        self.distance_scalar_ops += other.distance_scalar_ops
        self.candidate_fetches += other.candidate_fetches
        self.bucket_lookups += other.bucket_lookups
        self.tree_node_visits += other.tree_node_visits
        self.btree_entry_scans += other.btree_entry_scans
        self.heap_ops += other.heap_ops
        self.rounds += other.rounds

    def scaled(self, factor: float) -> "OpCounts":
        """Return a copy with every counter multiplied by ``factor``."""
        return OpCounts(**{name: int(getattr(self, name) * factor) for name in _OP_FIELDS})


_OP_FIELDS = tuple(f.name for f in fields(OpCounts))


@dataclass
class QueryStats:
    """What one query did, independent of any timing model."""

    ops: OpCounts = field(default_factory=OpCounts)
    #: Radius rungs actually searched (Table 4's per-query radii count).
    rungs_searched: int = 0
    #: (rung, table) probes whose bucket was non-empty.
    nonempty_buckets: int = 0
    #: Total (rung, table) probes issued.
    buckets_probed: int = 0
    #: Distinct candidate objects whose true distance was computed.
    candidates_checked: int = 0
    #: Bucket *blocks* that a finite-block-size index would have read
    #: (keyed by block size; filled by the I/O accounting helpers).
    bucket_blocks_read: int = 0
    #: I/O requests an E2LSHoS execution actually issued (0 in-memory).
    ios_issued: int = 0
    #: Number of entries *examined* in each non-empty bucket visited, in
    #: visit order (bucket size truncated by the remaining S budget).
    #: Drives the finite-block-size I/O analysis of Sec. 4.3 / Figure 3.
    bucket_sizes_examined: list[int] = field(default_factory=list)

    @property
    def n_io_infinite_block(self) -> float:
        """The paper's N_io,inf: one hash-table I/O plus one bucket I/O
        per non-empty bucket probed (empty buckets are skipped via the
        in-DRAM occupancy filter, Sec. 4.3)."""
        return 2.0 * self.nonempty_buckets

    def copy(self) -> "QueryStats":
        """An independent copy: own ``ops`` and ``bucket_sizes_examined``."""
        fresh = QueryStats()
        fresh.merge(self)
        return fresh

    def merge(self, other: "QueryStats") -> None:
        """Accumulate ``other`` into ``self`` (for averaging over queries)."""
        self.ops.add(other.ops)
        self.rungs_searched += other.rungs_searched
        self.nonempty_buckets += other.nonempty_buckets
        self.buckets_probed += other.buckets_probed
        self.candidates_checked += other.candidates_checked
        self.bucket_blocks_read += other.bucket_blocks_read
        self.ios_issued += other.ios_issued
        self.bucket_sizes_examined.extend(other.bucket_sizes_examined)
