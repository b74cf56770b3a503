"""Partitioning a dataset across E2LSHoS shards that share one LSH.

Each shard owns a disjoint subset of the database, builds an on-storage
index over that subset, and answers queries on its own device volume
through its own :class:`~repro.storage.engine.AsyncIOEngine`.  Because
LSH partitions by *data* (not by query), a top-k query is scattered to
every shard and the per-shard answers merged — the shard answers carry
global object IDs (``id_map`` in
:meth:`~repro.core.e2lshos.E2LSHoSIndex.query_tasks`), so the merge is a
plain k-way selection by true distance.

Three decisions keep the scatter-gather I/O close to a single node's
(naively sharding an LSH multiplies work by ``N^(1-rho)`` because every
shard re-derives its own L from a smaller n, searches deeper rungs, and
spends a full S budget):

1. **Shared hash structure.**  All shards use one projection bank, one
   radius ladder (fit on the full dataset), and the full dataset's
   m / L (via the ``*_explicit`` overrides of
   :class:`~repro.core.params.E2LSHParams`).  A shard's tables are then
   exactly the single-node tables restricted to its objects, and the
   per-shard DRAM occupancy filters skip the buckets whose entries all
   live elsewhere — a singleton bucket costs one slot I/O fleet-wide,
   same as unsharded.
2. **Split candidate budget.**  Each shard gets ``ceil(S / N)`` so the
   fleet-wide candidate work matches the paper's S, not N times it.
3. **Quota termination.**  A shard holding 1/N of the data stops its
   rung descent once it has ``ceil(k/N) + 1`` hits within ``c * R``
   (its expected share of the global top-k) while still reporting up to
   k, so a skewed partition cannot starve the merge (``stop_k``).

Three partitioning schemes are provided:

- ``hash``: objects dealt to shards by a seeded pseudo-random
  permutation, the balanced analog of hashing object IDs;
- ``range``: objects in contiguous ID ranges (cheap to reason about,
  but exposed to insertion-order skew in real deployments);
- ``table``: the *index* is partitioned instead — each shard owns a
  disjoint slice of the L hash tables built over **all** objects
  (PLSH-style).  Object partitioning scales DRAM and storage with the
  fleet but pays ``min(bucket_size, N)`` I/Os where a single node pays
  one, because a probed bucket's entries are spread across devices;
  table partitioning keeps fleet-wide I/O *identical* to a single
  node's (the same buckets exist, merely distributed), so saturation
  throughput scales with the device count — at the price of
  replicating the in-DRAM vectors on every shard.  The serving
  benchmark quantifies both trade-offs.

All schemes are deterministic given the seed and leave no shard empty.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from repro.analysis.machine_model import DEFAULT_MACHINE, MachineModel
from repro.core.e2lsh import QueryAnswer
from repro.core.e2lshos import E2LSHoSIndex
from repro.core.lsh import CompoundHashBank
from repro.core.params import E2LSHParams
from repro.core.radii import RadiusLadder
from repro.serving.replication import FaultSpec, ReplicaGroup, build_replica_engines
from repro.stats import QueryStats
from repro.storage.blockstore import MemoryBlockStore
from repro.storage.engine import AsyncIOEngine, EngineResult, Task

__all__ = [
    "PARTITION_SCHEMES",
    "ShardPlan",
    "plan_shards",
    "Shard",
    "ShardedIndex",
    "ShardedBatchResult",
    "merge_answers",
]

PARTITION_SCHEMES = ("hash", "range", "table")


@dataclass(frozen=True)
class ShardPlan:
    """Deterministic unit-to-shard assignment.

    The partitioned *unit* is objects for the ``hash`` / ``range``
    schemes and hash tables for the ``table`` scheme.
    """

    scheme: str
    n_shards: int
    #: ``assignment[unit] == shard_id``.
    assignment: np.ndarray

    @property
    def unit(self) -> str:
        """What one assignment entry refers to."""
        return "table" if self.scheme == "table" else "object"

    @property
    def n_units(self) -> int:
        """Number of partitioned units (objects or tables)."""
        return int(self.assignment.shape[0])

    def members(self, shard_id: int) -> np.ndarray:
        """Unit IDs owned by ``shard_id``, ascending."""
        return np.flatnonzero(self.assignment == shard_id).astype(np.int64)

    def shard_sizes(self) -> np.ndarray:
        """Units per shard."""
        return np.bincount(self.assignment, minlength=self.n_shards)


def plan_shards(n: int, n_shards: int, scheme: str = "hash", seed: int = 0) -> ShardPlan:
    """Assign ``n`` units (objects, or tables for ``table``) to shards."""
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    if n < n_shards:
        raise ValueError(f"cannot spread {n} units over {n_shards} shards")
    if scheme == "hash":
        order = np.random.default_rng(seed).permutation(n)
        assignment = np.empty(n, dtype=np.int64)
        assignment[order] = np.arange(n, dtype=np.int64) % n_shards
    elif scheme == "range":
        assignment = (np.arange(n, dtype=np.int64) * n_shards) // n
    elif scheme == "table":
        # Tables are exchangeable; round-robin is balanced and seedless.
        assignment = np.arange(n, dtype=np.int64) % n_shards
    else:
        raise ValueError(f"unknown scheme {scheme!r}; known: {PARTITION_SCHEMES}")
    return ShardPlan(scheme=scheme, n_shards=n_shards, assignment=assignment)


def merge_answers(parts: Sequence[QueryAnswer], k: int) -> QueryAnswer:
    """Scatter-gather merge: k smallest true distances across shards.

    Table-partitioned shards can report the same object (it lives in
    every shard's tables), so the merge deduplicates by ID; distances
    are true distances, hence identical across duplicates.
    """
    if not parts:
        raise ValueError("nothing to merge")
    stats = QueryStats()
    for part in parts:
        stats.merge(part.stats)
    ids = np.concatenate([part.ids for part in parts])
    distances = np.concatenate([part.distances for part in parts])
    order = np.argsort(distances, kind="stable")
    ids, distances = ids[order], distances[order]
    _, first_seen = np.unique(ids, return_index=True)
    keep = np.sort(first_seen)[:k]
    return QueryAnswer(ids=ids[keep], distances=distances[keep], stats=stats)


@dataclass
class Shard:
    """One shard: its index, engine (own device volume), and ID mapping."""

    shard_id: int
    index: E2LSHoSIndex
    engine: AsyncIOEngine
    #: ``global_ids[local_id] == global object id``; ``None`` when local
    #: IDs already are global (table partitioning holds all objects —
    #: until an ingest run, which installs the identity map and lets
    #: merges extend it: see ``IngestCoordinator``).
    global_ids: np.ndarray | None
    #: Denominator of the termination quota: the number of shards the
    #: *objects* are spread over (1 under table partitioning — every
    #: shard must satisfy the full single-node stop condition because
    #: its candidates overlap the other shards').
    quota_shards: int = 1

    def stop_k(self, k: int) -> int:
        """Rung-descent quota: this shard's expected share of top-k."""
        return min(k, math.ceil(k / self.quota_shards) + 1)

    def query_tasks(self, queries: np.ndarray, k: int) -> list[Task]:
        """One planned wave of sub-query tasks reporting global IDs."""
        return self.index.query_tasks(
            queries, k=k, id_map=self.global_ids, stop_k=self.stop_k(k)
        )


@dataclass
class ShardedBatchResult:
    """Merged answers plus per-shard engine statistics."""

    answers: list[QueryAnswer]
    shard_results: list[EngineResult]

    @property
    def makespan_ns(self) -> float:
        """Simulated completion time (shards run in parallel)."""
        return max(result.makespan_ns for result in self.shard_results)


class ShardedIndex:
    """A dataset partitioned across N independent E2LSHoS shards.

    Each shard may be replicated R ways (``replica_groups``): the
    replicas share the shard's built index and block store but own
    independent device volumes, so routing between them trades IOPS
    for tail latency.  ``shards[i].engine`` is replica 0 of group
    ``i`` — the single-copy view used by the batch :meth:`run` path.
    """

    def __init__(
        self,
        shards: list[Shard],
        plan: ShardPlan,
        replica_groups: list[ReplicaGroup] | None = None,
    ) -> None:
        if not shards:
            raise ValueError("a sharded index needs at least one shard")
        if replica_groups is None:
            replica_groups = [
                ReplicaGroup(
                    shard=shard,
                    engines=[shard.engine],
                    profiles=[shard.engine.volume.devices[0].profile],
                )
                for shard in shards
            ]
        if len(replica_groups) != len(shards):
            raise ValueError(
                f"{len(shards)} shards need {len(shards)} replica groups, "
                f"got {len(replica_groups)}"
            )
        factors = {group.n_replicas for group in replica_groups}
        if len(factors) != 1:
            raise ValueError(f"replication factor must be uniform, got {sorted(factors)}")
        self.shards = shards
        self.plan = plan
        self.replica_groups = replica_groups

    @classmethod
    def build(
        cls,
        data: np.ndarray,
        params: E2LSHParams | None = None,
        n_shards: int = 1,
        scheme: str = "hash",
        device: str = "cssd",
        devices_per_shard: int = 1,
        interface: str = "io_uring",
        block_size: int = 512,
        seed: int = 0,
        machine: MachineModel = DEFAULT_MACHINE,
        replicas: int = 1,
        faults: Sequence[FaultSpec] = (),
        ladder: RadiusLadder | None = None,
    ) -> "ShardedIndex":
        """Partition ``data`` and build one index + engine per shard.

        ``params`` parameterizes the *whole* dataset.  Every shard keeps
        the full dataset's m and L and one shared projection bank and
        radius ladder (see the module docstring), while its ``n`` — and
        hence its storage, DRAM filters, and ID codec — reflects only
        the subset it owns.  The S budget is split evenly.

        ``replicas`` puts R copies of each shard on independent device
        volumes; ``faults`` degrades chosen replicas (see
        :class:`~repro.serving.replication.FaultSpec`).

        ``ladder`` pins an explicit radius ladder instead of deriving it
        from ``data`` — a rebuild over a dataset grown by streaming
        ingest must reuse the serving fleet's ladder to answer
        identically.
        """
        for fault in faults:
            if fault.shard >= n_shards or fault.replica >= replicas:
                raise ValueError(
                    f"fault targets shard {fault.shard} replica {fault.replica}, "
                    f"deployment has {n_shards} shards x {replicas} replicas"
                )
        data = np.ascontiguousarray(data, dtype=np.float32)
        params = params if params is not None else E2LSHParams(n=data.shape[0])
        if params.n != data.shape[0]:
            raise ValueError(f"params have n={params.n}, data has n={data.shape[0]}")
        n_units = params.L if scheme == "table" else data.shape[0]
        plan = plan_shards(n_units, n_shards, scheme=scheme, seed=seed)
        bank = CompoundHashBank.create(
            d=data.shape[1], m=params.m, L=params.L, w=params.w, seed=seed
        )
        if ladder is None:
            ladder = RadiusLadder.for_data(data, params.c)
        shards: list[Shard] = []
        replica_groups: list[ReplicaGroup] = []
        for shard_id in range(n_shards):
            members = plan.members(shard_id)
            if scheme == "table":
                # Every shard indexes all objects under its table slice.
                shard_data = data
                shard_bank = bank.select_tables(members)
                global_ids = None
                quota_shards = 1
                shard_params = replace(
                    params,
                    m_explicit=params.m,
                    L_explicit=int(members.size),
                    S_explicit=max(1, math.ceil(params.S * members.size / params.L)),
                )
            else:
                shard_data = data[members]
                shard_bank = bank
                global_ids = members
                quota_shards = n_shards
                shard_params = replace(
                    params,
                    n=int(members.size),
                    m_explicit=params.m,
                    L_explicit=params.L,
                    S_explicit=max(1, math.ceil(params.S / n_shards)),
                )
            store = MemoryBlockStore()
            index = E2LSHoSIndex.build(
                shard_data,
                shard_params,
                store=store,
                ladder=ladder,
                block_size=block_size,
                seed=seed,
                machine=machine,
                bank=shard_bank,
            )
            engines, profiles = build_replica_engines(
                store,
                shard_id,
                replicas=replicas,
                device=device,
                devices_per_replica=devices_per_shard,
                interface=interface,
                faults=faults,
            )
            shard = Shard(
                shard_id=shard_id,
                index=index,
                engine=engines[0],
                global_ids=global_ids,
                quota_shards=quota_shards,
            )
            shards.append(shard)
            replica_groups.append(
                ReplicaGroup(shard=shard, engines=engines, profiles=profiles)
            )
        return cls(shards, plan, replica_groups)

    @property
    def n_shards(self) -> int:
        """Number of shards."""
        return len(self.shards)

    @property
    def n_replicas(self) -> int:
        """Replication factor R (uniform across shards)."""
        return self.replica_groups[0].n_replicas

    @property
    def storage_bytes(self) -> int:
        """Total on-storage index size across shards."""
        return sum(shard.index.storage_bytes for shard in self.shards)

    @property
    def dram_bytes(self) -> int:
        """Total runtime DRAM across shards."""
        return sum(shard.index.dram_bytes for shard in self.shards)

    def run(
        self, queries: np.ndarray, k: int = 1, workers_per_shard: int = 1
    ) -> ShardedBatchResult:
        """Batch scatter-gather: every query on every shard, then merge.

        Shards execute concurrently on their own engines; the service
        path (:class:`~repro.serving.service.QueryService`) adds
        arrivals, queueing, and micro-batching on top of the same tasks.
        """
        queries = np.asarray(queries, dtype=np.float32)
        if queries.ndim == 1:
            queries = queries[None, :]
        shard_results: list[EngineResult] = []
        per_shard_answers: list[list[QueryAnswer]] = []
        for shard in self.shards:
            result = shard.engine.run(
                shard.query_tasks(queries, k=k), workers=workers_per_shard
            )
            shard_results.append(result)
            per_shard_answers.append(list(result.results))
        answers = [
            merge_answers([answers[q] for answers in per_shard_answers], k)
            for q in range(queries.shape[0])
        ]
        return ShardedBatchResult(answers=answers, shard_results=shard_results)
