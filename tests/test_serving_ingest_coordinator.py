"""Tests for repro.serving.ingest: delta tables, merges, and accounting.

The edge cases the merge window makes interesting: a delete that
catches its object while it still sits in an unmerged delta (DRAM
annihilation, never touches storage), an insert + delete of the same id
inside one merge window, and merge determinism — the same seed must
yield byte-identical reports *and* byte-identical post-merge query
results.  Satellite guard: update completions report their own latency
distribution and are never folded into the query percentiles.
"""

import json
from dataclasses import asdict, replace

import numpy as np
import pytest
from test_updates_oracle import chains_of, nudged_project

from repro.core.lsh import CompoundHashBank
from repro.core.params import E2LSHParams
from repro.serving import (
    Arrival,
    DataConfig,
    DispatchConfig,
    Dispatcher,
    IngestConfig,
    QueryService,
    ScenarioSpec,
    ServingConfig,
    ShardedIndex,
    UpdateArrival,
    WorkloadSpec,
    run_scenario,
    workload_updates,
)
from repro.serving.catalog import CatalogScale, steady_ingest
from repro.serving.stats import ServiceStats
from repro.storage.engine import EngineResult

N = 240
D = 8
K = 5


def small_fleet(scheme="table", n_shards=2, replicas=1, seed=3):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(N, D)).astype(np.float32)
    sharded = ShardedIndex.build(
        data,
        E2LSHParams(n=N),
        n_shards=n_shards,
        scheme=scheme,
        seed=seed,
        replicas=replicas,
    )
    return data, sharded


def run_with_updates(sharded, pool, updates, ingest=None, arrivals=None, k=K):
    service = QueryService(sharded)
    if arrivals is None:
        arrivals = [
            Arrival(query_id=i, time_ns=1_000_000.0 * (i + 1), pool_index=i)
            for i in range(pool.shape[0])
        ]
    report = service.run_arrivals(
        pool, arrivals, k=k, updates=updates, ingest=ingest or IngestConfig()
    )
    return service, report


# -- delta/merge edge cases --------------------------------------------------


def test_delete_of_insert_in_unmerged_delta_annihilates_in_dram():
    """Insert + delete of the same id within one merge window cancel in
    DRAM: nothing reaches storage, and queries answer exactly as if the
    pair never happened."""
    data, sharded = small_fleet()
    pool = data[:3].copy()

    control_service, control = run_with_updates(sharded, pool, updates=None)

    vector = (data[0] + 0.01).astype(np.float32)
    updates = [
        UpdateArrival(update_id=0, time_ns=10.0, kind="insert", object_id=N, vector=vector),
        UpdateArrival(update_id=1, time_ns=20.0, kind="delete", object_id=N),
    ]
    # A merge threshold far above two entries: the pair must meet in the
    # delta, not in the block store.
    service, report = run_with_updates(
        sharded, pool, updates, ingest=IngestConfig(merge_threshold=64)
    )

    assert report.updates_completed == 2
    assert report.inserts_applied == 1
    assert report.deletes_applied == 1
    assert report.merges_completed == 0
    assert report.merge_write_ios == 0
    assert report.merge_write_bytes == 0
    # Annihilation leaves no delta entry behind (no merge debt) ...
    assert report.shard_merge_debt == (0,) * sharded.n_shards
    # ... and no tombstone: queries answer byte-identically to a run
    # that never saw the pair.
    assert control.p99_ns == report.p99_ns
    for query_id, answer in control_service.answers.items():
        other = service.answers[query_id]
        assert np.array_equal(answer.ids, other.ids)
        assert np.array_equal(answer.distances, other.distances)


def test_insert_visible_through_merge_then_tombstoned_by_delete():
    """An insert is served from the delta, survives its merge into the
    block store, and disappears the moment its delete is applied."""
    data, sharded = small_fleet()
    pool = data[:1].copy()
    # The inserted vector IS the query: distance zero, so it must rank
    # first in any top-k that can see it.
    vector = data[0].copy()
    updates = [
        UpdateArrival(update_id=0, time_ns=10.0, kind="insert", object_id=N, vector=vector),
        UpdateArrival(update_id=1, time_ns=80_000_000.0, kind="delete", object_id=N),
    ]
    arrivals = [
        # Query 0 lands after the merge completed, query 1 after the delete.
        Arrival(query_id=0, time_ns=40_000_000.0, pool_index=0),
        Arrival(query_id=1, time_ns=120_000_000.0, pool_index=0),
    ]
    service, report = run_with_updates(
        sharded,
        pool,
        updates,
        ingest=IngestConfig(merge_threshold=1),
        arrivals=arrivals,
    )

    assert report.updates_completed == 2
    assert report.merges_completed >= 1
    assert report.merge_write_bytes > 0
    before, after = service.answers[0], service.answers[1]
    assert N in before.ids.tolist()
    # The inserted copy ties the original row at distance zero.
    assert before.distances[before.ids.tolist().index(N)] == 0.0
    assert N not in after.ids.tolist()


def test_noop_deletes_are_counted_not_applied():
    data, sharded = small_fleet()
    pool = data[:2].copy()
    updates = [
        # A scheduled id nothing ever inserted.
        UpdateArrival(update_id=0, time_ns=10.0, kind="delete", object_id=10**6),
        UpdateArrival(update_id=1, time_ns=20.0, kind="delete", object_id=0),
        # Deleting an already-deleted object resolves to nothing.
        UpdateArrival(update_id=2, time_ns=30.0, kind="delete", object_id=0),
    ]
    _, report = run_with_updates(sharded, pool, updates)
    assert report.updates_noop == 2
    assert report.deletes_applied == 1
    assert report.updates_completed == 1


def test_full_ingest_lanes_reject_updates():
    """With a tiny delta and a one-slot lane, a same-instant burst backs
    up behind the in-flight merge and sheds the excess."""
    data, sharded = small_fleet()
    pool = data[:2].copy()
    rng = np.random.default_rng(9)
    updates = [
        UpdateArrival(
            update_id=i,
            time_ns=float(i + 1),
            kind="insert",
            object_id=N + i,
            vector=rng.normal(size=D).astype(np.float32),
        )
        for i in range(12)
    ]
    _, report = run_with_updates(
        sharded,
        pool,
        updates,
        ingest=IngestConfig(delta_capacity=2, merge_threshold=2, queue_capacity=1),
    )
    assert report.updates_rejected > 0
    assert report.updates_completed + report.updates_rejected == len(updates)
    # Shedding is accounting-only: whatever was admitted still merged or
    # sits as visible debt; nothing half-applied.
    assert report.inserts_applied == report.updates_completed


@pytest.mark.parametrize("scheme", ["table", "hash", "range"])
def test_merge_determinism_same_seed_byte_identical(scheme):
    """Same seed -> byte-identical report AND byte-identical post-merge
    query results, across partitioning schemes."""
    spec = ScenarioSpec(
        name="ingest-determinism",
        data=DataConfig(n=300, pool_queries=6),
        serving=ServingConfig(
            n_shards=2,
            scheme=scheme,
            replicas=2,
            delta_capacity=16,
            merge_threshold=4,
        ),
        workload=WorkloadSpec(
            requests=8,
            qps=4_000.0,
            ingest_requests=24,
            ingest_qps=2_000.0,
            delete_fraction=0.25,
        ),
        seed=11,
        k=K,
    )
    results = [run_scenario(spec) for _ in range(2)]
    reports = [json.dumps(asdict(r.report), sort_keys=True) for r in results]
    assert reports[0] == reports[1]
    assert results[0].report.merges_completed > 0

    # Post-merge (compacted) batch answers are byte-identical too.
    for result in results:
        result.service.ingest.compact_now()
    pool = results[0].index.dataset.queries
    first = results[0].index.sharded.run(pool, k=K).answers
    second = results[1].index.sharded.run(pool, k=K).answers
    for a, b in zip(first, second):
        assert np.array_equal(a.ids, b.ids)
        assert np.array_equal(a.distances, b.distances)


# -- the describe() traffic-class guard (satellite bugfix) -------------------


def _engine_result():
    return EngineResult(
        makespan_ns=0.0,
        results=[],
        finish_times_ns=[],
        io_count=0,
        compute_ns=0.0,
        io_cpu_ns=0.0,
        stall_ns=0.0,
    )


def test_update_completions_never_fold_into_query_percentiles():
    """The ingest traffic class reports its own latency distribution;
    recording slow updates must not move the query percentiles."""
    shard_results = [[_engine_result()]]

    def stats_with_queries():
        stats = ServiceStats()
        for i, latency_ms in enumerate([1.0, 2.0, 3.0, 4.0]):
            stats.record_completion(i, i, arrival_ns=0.0, finish_ns=latency_ms * 1e6)
        return stats

    quiet = stats_with_queries().report(shard_results)

    noisy_stats = stats_with_queries()
    # Updates two orders of magnitude slower than any query.
    for i in range(4):
        noisy_stats.record_update(i, "insert", arrival_ns=0.0, finish_ns=4e8 + i)
    noisy = noisy_stats.report(shard_results)

    assert noisy.p50_ns == quiet.p50_ns
    assert noisy.p99_ns == quiet.p99_ns
    assert noisy.max_latency_ns == quiet.max_latency_ns
    assert noisy.update_p99_ns > noisy.p99_ns

    # describe() renders ingest as its own distinct block.
    text = noisy.describe()
    assert "ingest: applied 4 updates" in text
    assert "ingest latency: p50" in text
    assert "merges: 0 completed" in text
    assert "ingest" not in quiet.describe()


# -- validation and plumbing -------------------------------------------------


def test_ingest_config_validation():
    with pytest.raises(ValueError, match="merge_threshold"):
        IngestConfig(merge_threshold=0)
    with pytest.raises(ValueError, match="merge_threshold"):
        IngestConfig(delta_capacity=4, merge_threshold=8)
    with pytest.raises(ValueError, match="queue_capacity"):
        IngestConfig(queue_capacity=0)


def test_update_arrival_validation():
    with pytest.raises(ValueError, match="vector"):
        UpdateArrival(update_id=0, time_ns=0.0, kind="insert", object_id=1)
    with pytest.raises(ValueError, match="vector"):
        UpdateArrival(
            update_id=0,
            time_ns=0.0,
            kind="delete",
            object_id=1,
            vector=np.zeros(4, dtype=np.float32),
        )
    with pytest.raises(ValueError, match="kind"):
        UpdateArrival(update_id=0, time_ns=0.0, kind="upsert", object_id=1)


def test_workload_spec_ingest_validation():
    with pytest.raises(ValueError, match="ingest_qps"):
        WorkloadSpec(requests=4, qps=100.0, ingest_requests=4)
    with pytest.raises(ValueError, match="delete_fraction"):
        WorkloadSpec(
            requests=4,
            qps=100.0,
            ingest_requests=4,
            ingest_qps=50.0,
            delete_fraction=1.5,
        )
    with pytest.raises(ValueError, match="open"):
        WorkloadSpec(
            mode="closed", requests=4, concurrency=2, ingest_requests=4, ingest_qps=50.0
        )
    with pytest.raises(ValueError, match="ingest_requests"):
        WorkloadSpec(requests=4, qps=100.0, ingest_qps=50.0)


def test_workload_updates_deterministic_and_seed_sensitive():
    rng = np.random.default_rng(5)
    data = rng.normal(size=(64, D)).astype(np.float32)
    workload = WorkloadSpec(
        requests=8,
        qps=1_000.0,
        ingest_requests=16,
        ingest_qps=500.0,
        delete_fraction=0.3,
    )
    first = workload_updates(workload, data, seed=5)
    second = workload_updates(workload, data, seed=5)
    assert len(first) == len(second) == 16
    for a, b in zip(first, second):
        assert (a.update_id, a.time_ns, a.kind, a.object_id) == (
            b.update_id,
            b.time_ns,
            b.kind,
            b.object_id,
        )
        assert (a.vector is None) == (b.vector is None)
        if a.vector is not None:
            assert np.array_equal(a.vector, b.vector)
            assert a.vector.dtype == np.float32
    other = workload_updates(workload, data, seed=6)
    assert any(
        a.time_ns != b.time_ns or a.kind != b.kind for a, b in zip(first, other)
    )
    # Scheduled insert ids extend the dataset contiguously; deletes only
    # ever target the scheduled live population.
    insert_ids = [u.object_id for u in first if u.kind == "insert"]
    assert insert_ids == list(range(64, 64 + len(insert_ids)))
    for update in first:
        if update.kind == "delete":
            assert update.object_id < 64 + len(insert_ids)


def test_dispatcher_rejects_updates_without_a_coordinator():
    _, sharded = small_fleet()
    sessions = [group.sessions() for group in sharded.replica_groups]
    dispatcher = Dispatcher(sharded, sessions, DispatchConfig(), ServiceStats(), [])
    with pytest.raises(RuntimeError, match="ingest"):
        dispatcher.admit_update(
            0.0, UpdateArrival(update_id=0, time_ns=0.0, kind="delete", object_id=0)
        )


# -- store-local vs global ids under table partitioning (id-drift bugfix) ----


def _assert_answers_verify(answers, queries, vectors, deleted=()):
    """Every (id, distance) pair is the float64 distance to the vector
    held for that id; no object is reported twice, none is deleted."""
    for answer, query in zip(answers, queries):
        ids = answer.ids.tolist()
        assert len(set(ids)) == len(ids), f"duplicate object in {ids}"
        assert not set(ids) & set(deleted)
        diffs = vectors[answer.ids].astype(np.float64) - query.astype(np.float64)
        exact = np.sqrt(np.einsum("nd,nd->n", diffs, diffs))
        np.testing.assert_allclose(answer.distances, exact, rtol=1e-9, atol=1e-9)
        assert np.all(np.diff(answer.distances) >= 0)


def test_merged_insert_keeps_its_global_id_after_an_annihilated_pair():
    """An insert annihilated in DRAM never reaches the store, so under
    table partitioning every later merged insert sits at a store-local
    id below its global id.  Answers, tombstones and later deletes must
    all keep speaking global ids."""
    rng = np.random.default_rng(3)
    data = rng.normal(size=(N, D)).astype(np.float32)
    params = E2LSHParams(n=N, s_factor=64.0)  # scan budget never truncates
    sharded = ShardedIndex.build(data, params, n_shards=2, scheme="table", seed=3)
    pool = data[:1].copy()
    near = (data[0] + 1e-3).astype(np.float32)
    late = 80_000_000.0
    updates = [
        UpdateArrival(update_id=0, time_ns=10.0, kind="insert", object_id=N, vector=data[1]),
        UpdateArrival(update_id=1, time_ns=20.0, kind="delete", object_id=N),
        # Global ids N+1 and N+2 merge into store-local ids N and N+1.
        UpdateArrival(update_id=2, time_ns=30.0, kind="insert", object_id=N + 1, vector=data[0]),
        UpdateArrival(update_id=3, time_ns=40.0, kind="insert", object_id=N + 2, vector=near),
        UpdateArrival(update_id=4, time_ns=late, kind="delete", object_id=N + 1),
    ]
    arrivals = [
        Arrival(query_id=0, time_ns=40_000_000.0, pool_index=0),  # after the merge
        Arrival(query_id=1, time_ns=120_000_000.0, pool_index=0),  # after the delete
    ]
    service, report = run_with_updates(
        sharded, pool, updates, ingest=IngestConfig(merge_threshold=2), arrivals=arrivals
    )
    assert report.updates_completed == 5 and report.merges_completed >= 1
    vectors = np.vstack([data, data[1][None], data[0][None], near[None]])
    before, after = service.answers[0], service.answers[1]
    _assert_answers_verify([before, after], [pool[0], pool[0]], vectors)
    assert {0, N + 1, N + 2} <= set(before.ids.tolist())
    assert N not in before.ids.tolist()
    # The delete removed N+1 itself, not whatever sits at local id N+1.
    assert N + 1 not in after.ids.tolist()
    assert {0, N + 2} <= set(after.ids.tolist())

    # Offline compaction, then the batch path: still global ids, and
    # the same answers as a from-scratch build over the survivors.
    service.ingest.compact_now()
    served = sharded.run(pool, k=K).answers
    survivors = np.array([*range(N), N + 2])
    _assert_answers_verify(served, pool, vectors, deleted=(N, N + 1))
    rebuilt = ShardedIndex.build(
        vectors[survivors],
        replace(
            params,
            n=survivors.size,
            m_explicit=params.m,
            L_explicit=params.L,
            S_explicit=params.S,
        ),
        n_shards=2,
        scheme="table",
        seed=3,
        ladder=sharded.shards[0].index.built.ladder,
    )
    for got, fresh in zip(served, rebuilt.run(pool, k=K).answers):
        assert np.array_equal(got.ids, survivors[fresh.ids])
        assert np.array_equal(got.distances, fresh.distances)


@pytest.mark.parametrize("seed", [7, 11, 13])
def test_unfiltered_steady_ingest_stream_verifies_every_answer(seed):
    """The catalog's ``steady-ingest`` stream at the layered benchmark's
    size, with the deletes aimed at scheduled inserts left in (the
    benchmark filters them out): 50 and 28 of 1024 answers named an
    object twice or under a store-local id before the fix.  And once
    compacted, no deleted object answers a query for its own vector:
    5415 (seed 7) and 838 (seed 13) did, at distance 0, while a delete
    that hashed into another bucket than the build left its entry behind."""
    size = CatalogScale(n=6000, pool_queries=256, requests=1024, qps=4000.0)
    spec = replace(steady_ingest(size), seed=seed)
    result = run_scenario(spec)
    report = result.report
    data = result.index.dataset.data
    updates = workload_updates(spec.workload, data, spec.seed)
    # Nothing shed, so scheduled ids are the physical ids.
    assert report.updates_rejected == 0 and report.updates_noop == 0
    assert any(u.kind == "delete" and u.object_id >= data.shape[0] for u in updates)
    vectors = np.vstack([data, *[u.vector[None, :] for u in updates if u.kind == "insert"]])
    pool = result.index.dataset.queries
    records = sorted(result.records, key=lambda r: r.query_id)
    assert len(records) == spec.workload.requests
    _assert_answers_verify(
        [result.answers[r.query_id] for r in records],
        pool[[r.pool_index for r in records]],
        vectors,
    )
    # After offline compaction the static fleet alone answers in global
    # ids and never reports a deleted object.
    result.service.ingest.compact_now()
    deleted = [u.object_id for u in updates if u.kind == "delete"]
    served = result.index.sharded.run(pool, k=spec.k).answers
    _assert_answers_verify(served, pool, vectors, deleted=deleted)
    served = result.index.sharded.run(vectors[deleted], k=spec.k).answers
    _assert_answers_verify(served, vectors[deleted], vectors, deleted=deleted)


def test_a_delete_whose_hash_moved_does_not_bring_the_object_back(monkeypatch):
    """One projection of the victim is pushed a lattice cell over for the
    merge's delete (what a float32 sum in another order does to ~1 row in
    150), so rung 0 / table 0 names a bucket its entry is not in.  The
    object must stay gone once the merge completes and its tombstone is
    released — from the service, from the batch path after offline
    compaction, and from every chain on storage."""
    data, sharded = small_fleet(scheme="hash")
    victim = 17
    shard_id = int(sharded.plan.assignment[victim])
    shard = sharded.shards[shard_id]
    local = int(np.searchsorted(sharded.plan.members(shard_id), victim))
    assert len(chains_of(shard.index, local)) > 1
    nudged = nudged_project(data[victim], shard.index.built.ladder[0])
    pool = data[victim : victim + 1].copy()
    updates = [UpdateArrival(update_id=0, time_ns=10.0, kind="delete", object_id=victim)]
    arrivals = [Arrival(query_id=0, time_ns=40_000_000.0, pool_index=0)]  # after the merge
    with monkeypatch.context() as patch:
        patch.setattr(CompoundHashBank, "project", nudged)
        service, report = run_with_updates(
            sharded, pool, updates, ingest=IngestConfig(merge_threshold=1), arrivals=arrivals
        )
    assert (report.merges_completed, report.deletes_applied) == (1, 1)
    assert service.stats.merge_records[0].finish_ns < arrivals[0].time_ns
    assert victim not in service.answers[0].ids.tolist()
    assert chains_of(shard.index, local) == {}
    assert service.ingest._updaters[shard_id].stats.entries_missed >= 1
    service.ingest.compact_now()
    for answer in sharded.run(pool, k=K).answers:
        assert victim not in answer.ids.tolist()
