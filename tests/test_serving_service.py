"""End-to-end tests for repro.serving.service."""

import numpy as np
import pytest

from repro.core.params import E2LSHParams
from repro.serving.dispatcher import DispatchConfig
from repro.serving.loadgen import Arrival, ClosedLoopWorkload, OpenLoopWorkload
from repro.serving.replication import FaultSpec, RoutingConfig
from repro.serving.service import QueryService
from repro.serving.sharding import ShardedIndex

K = 3


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(13)
    data = rng.standard_normal((300, 16)).astype(np.float32)
    pool = rng.standard_normal((12, 16)).astype(np.float32)
    return data, pool


@pytest.fixture(scope="module")
def sharded(dataset):
    data, _ = dataset
    return ShardedIndex.build(
        data, E2LSHParams(n=300), n_shards=2, scheme="hash", seed=13
    )


def open_workload(qps=50_000.0, n_queries=40, **kwargs):
    return OpenLoopWorkload(qps=qps, n_queries=n_queries, seed=2, **kwargs)


def test_open_loop_completes_every_admitted_query(sharded, dataset):
    _, pool = dataset
    service = QueryService(sharded)
    report = service.run_open_loop(pool, open_workload(), k=K)
    assert report.completed == 40
    assert report.rejected == 0
    assert sorted(service.answers) == list(range(40))
    assert all(a.ids.size <= K for a in service.answers.values())


def test_open_loop_latencies_are_sane(sharded, dataset):
    _, pool = dataset
    service = QueryService(sharded)
    report = service.run_open_loop(pool, open_workload(), k=K)
    latencies = service.stats.latencies_ns()
    assert (latencies > 0).all()
    assert report.p50_ns <= report.p95_ns <= report.p99_ns <= report.max_latency_ns
    assert report.throughput_qps > 0
    assert sum(report.shard_io_counts) > 0


def test_service_is_deterministic(sharded, dataset):
    _, pool = dataset
    a = QueryService(sharded).run_open_loop(pool, open_workload(), k=K)
    b = QueryService(sharded).run_open_loop(pool, open_workload(), k=K)
    assert a == b


def test_service_answers_match_batch_scatter_gather(sharded, dataset):
    """Queueing changes *when* queries run, never *what* they answer."""
    _, pool = dataset
    service = QueryService(sharded)
    service.run_open_loop(pool, open_workload(n_queries=12), k=K)
    batch = sharded.run(pool, k=K)
    for record in service.stats.records:
        served = service.answers[record.query_id]
        expected = batch.answers[record.pool_index]
        assert np.allclose(served.distances, expected.distances)
        assert set(served.ids.tolist()) == set(expected.ids.tolist())


def test_open_loop_sheds_load_when_queues_bounded(sharded, dataset):
    _, pool = dataset
    service = QueryService(sharded, dispatch=DispatchConfig(queue_capacity=2))
    report = service.run_open_loop(
        pool, open_workload(qps=500_000.0, n_queries=60), k=K
    )
    assert report.rejected > 0
    assert report.completed + report.rejected == 60
    assert report.completed == len(service.answers)


def test_closed_loop_completes_exact_count(sharded, dataset):
    _, pool = dataset
    service = QueryService(sharded)
    workload = ClosedLoopWorkload(concurrency=8, n_queries=30, seed=3)
    report = service.run_closed_loop(pool, workload, k=K)
    assert report.completed == 30
    assert sorted(service.answers) == list(range(30))


def test_closed_loop_think_time_lowers_throughput(sharded, dataset):
    _, pool = dataset
    fast = QueryService(sharded).run_closed_loop(
        pool, ClosedLoopWorkload(concurrency=4, n_queries=20, seed=3), k=K
    )
    slow = QueryService(sharded).run_closed_loop(
        pool,
        ClosedLoopWorkload(concurrency=4, n_queries=20, think_time_ns=2e6, seed=3),
        k=K,
    )
    assert slow.throughput_qps < fast.throughput_qps


def test_more_concurrency_more_throughput(sharded, dataset):
    _, pool = dataset
    one = QueryService(sharded).run_closed_loop(
        pool, ClosedLoopWorkload(concurrency=1, n_queries=24, seed=3), k=K
    )
    many = QueryService(sharded).run_closed_loop(
        pool, ClosedLoopWorkload(concurrency=16, n_queries=24, seed=3), k=K
    )
    assert many.throughput_qps > 1.5 * one.throughput_qps


def test_micro_batching_batches_bursts(sharded, dataset):
    _, pool = dataset
    service = QueryService(
        sharded, dispatch=DispatchConfig(max_batch=8, max_delay_ns=1e6)
    )
    report = service.run_open_loop(
        pool, open_workload(qps=200_000.0, n_queries=32), k=K
    )
    assert report.mean_batch_size > 1.5


def test_batching_delay_adds_latency_at_light_load(sharded, dataset):
    _, pool = dataset
    light = open_workload(qps=100.0, n_queries=10)
    eager = QueryService(
        sharded, dispatch=DispatchConfig(max_batch=1, max_delay_ns=0.0)
    ).run_open_loop(pool, light, k=K)
    patient = QueryService(
        sharded, dispatch=DispatchConfig(max_batch=64, max_delay_ns=3e6)
    ).run_open_loop(pool, light, k=K)
    # At 100 q/s the size trigger never fires: every query waits out the
    # full 3 ms time trigger before dispatch.
    assert patient.p50_ns >= eager.p50_ns + 2.9e6


def test_zipf_reuse_repeats_pool_queries(sharded, dataset):
    _, pool = dataset
    service = QueryService(sharded)
    service.run_open_loop(
        pool, open_workload(n_queries=40, zipf_s=1.5), k=K
    )
    picks = [record.pool_index for record in service.stats.records]
    assert len(set(picks)) < len(picks)  # reuse happened


# -- replication -------------------------------------------------------------


@pytest.fixture(scope="module")
def replicated(dataset):
    data, _ = dataset
    return ShardedIndex.build(
        data,
        E2LSHParams(n=300),
        n_shards=2,
        scheme="hash",
        seed=13,
        replicas=2,
        faults=(FaultSpec(shard=0, replica=1, latency_multiplier=4.0),),
    )


@pytest.mark.parametrize("policy", ["round_robin", "least_outstanding", "hedged"])
def test_replicated_answers_match_single_copy(sharded, replicated, dataset, policy):
    """Routing and hedging change *when* queries finish, never *what*
    they answer — even with a degraded replica in the group."""
    _, pool = dataset
    workload = open_workload(n_queries=24)
    single = QueryService(sharded)
    single.run_open_loop(pool, workload, k=K)
    replica = QueryService(replicated, routing=RoutingConfig(policy=policy))
    report = replica.run_open_loop(pool, workload, k=K)
    assert report.completed == 24
    assert sorted(replica.answers) == sorted(single.answers)
    for query_id, expected in single.answers.items():
        served = replica.answers[query_id]
        assert np.array_equal(served.ids, expected.ids)
        assert np.array_equal(served.distances, expected.distances)


def test_replicated_service_is_deterministic(replicated, dataset):
    _, pool = dataset
    routing = RoutingConfig(policy="hedged")
    a = QueryService(replicated, routing=routing).run_open_loop(
        pool, open_workload(), k=K
    )
    b = QueryService(replicated, routing=routing).run_open_loop(
        pool, open_workload(), k=K
    )
    assert a == b


def test_replicated_report_carries_per_replica_columns(replicated, dataset):
    _, pool = dataset
    service = QueryService(replicated)
    report = service.run_open_loop(pool, open_workload(), k=K)
    assert report.n_replicas == 2
    assert all(len(row) == 2 for row in report.replica_io_counts)
    assert sum(report.shard_io_counts) == sum(
        count for row in report.replica_io_counts for count in row
    )
    # Round-robin spreads sub-queries over both replicas of every shard.
    assert all(min(row) > 0 for row in report.replica_io_counts)


def test_hedged_service_reports_hedge_ledger(replicated, dataset):
    _, pool = dataset
    service = QueryService(
        replicated, routing=RoutingConfig(policy="hedged", hedge_min_observations=4)
    )
    report = service.run_open_loop(pool, open_workload(n_queries=60), k=K)
    assert report.completed == 60
    assert report.hedges_armed > 0
    # Every armed timer is accounted for: cancelled, issued, or suppressed.
    assert (
        report.hedges_cancelled + report.hedges_issued + report.hedges_suppressed
        == report.hedges_armed
    )
    assert report.hedge_wins + report.hedge_losses == report.hedges_issued


def test_closed_loop_works_with_replicas(replicated, dataset):
    _, pool = dataset
    service = QueryService(replicated, routing=RoutingConfig(policy="least_outstanding"))
    workload = ClosedLoopWorkload(concurrency=8, n_queries=30, seed=3)
    report = service.run_closed_loop(pool, workload, k=K)
    assert report.completed == 30
    assert sorted(service.answers) == list(range(30))


# -- tie order through the one event heap --------------------------------------
#
# Simulated times are floats out of the device model, so an exact tie is
# staged in two passes: a probe run records the loop time of the step that
# completes a sub-query, and the run under test places a hedge deadline /
# an arrival at precisely that float.  Replays are deterministic up to the
# staged event, so the tie is exact.


def single_shard(dataset, replicas=1):
    data, _ = dataset
    return ShardedIndex.build(
        data, E2LSHParams(n=300), n_shards=1, scheme="hash", seed=13, replicas=replicas
    )


def completing_step_times(monkeypatch, run):
    """Loop times (session ``next_ready_ns``) of the steps that finished a task."""
    from repro.storage.engine import EngineSession

    times = []
    real_step = EngineSession.step

    def recording_step(session):
        loop_time = session.next_ready_ns
        completion = real_step(session)
        if completion is not None:
            times.append(loop_time)
        return completion

    with monkeypatch.context() as patch:
        patch.setattr(EngineSession, "step", recording_step)
        run()
    return times


def test_completion_at_its_hedge_deadline_disarms_the_timer(dataset, monkeypatch):
    _, pool = dataset
    fleet = single_shard(dataset, replicas=2)
    arrivals = [Arrival(query_id=0, time_ns=0.0, pool_index=0)]

    def serve(hedge_delay_ns):
        service = QueryService(
            fleet,
            dispatch=DispatchConfig(max_batch=1),
            routing=RoutingConfig(policy="hedged", hedge_delay_ns=hedge_delay_ns),
        )
        return service.run_arrivals(pool, arrivals, k=K)

    (done_at,) = completing_step_times(monkeypatch, lambda: serve(1e12))
    tied = serve(done_at)  # deadline == the completing step's loop time
    assert (tied.hedges_armed, tied.hedges_cancelled, tied.hedges_issued) == (1, 1, 0)
    # Control: a deadline just before the completion does fire.
    early = serve(done_at - 1.0)
    assert (early.hedges_cancelled, early.hedges_issued) == (0, 1)


def test_same_instant_arrival_sees_the_slot_a_completion_freed(dataset, monkeypatch):
    _, pool = dataset
    fleet = single_shard(dataset)

    def serve(second_arrival_ns):
        service = QueryService(
            fleet, dispatch=DispatchConfig(max_batch=1, queue_capacity=1)
        )
        arrivals = [Arrival(query_id=0, time_ns=0.0, pool_index=0)]
        if second_arrival_ns is not None:
            arrivals.append(Arrival(query_id=1, time_ns=second_arrival_ns, pool_index=1))
        return service.run_arrivals(pool, arrivals, k=K)

    (done_at,) = completing_step_times(monkeypatch, lambda: serve(None))
    tied = serve(done_at)
    assert (tied.completed, tied.rejected) == (2, 0)
    # Control: an instant earlier the lane is still full and the query is shed.
    early = serve(done_at - 1.0)
    assert (early.completed, early.rejected) == (1, 1)


def test_update_at_an_arrivals_instant_runs_after_it(sharded, dataset, monkeypatch):
    from repro.serving.dispatcher import Dispatcher
    from repro.serving.ingest import UpdateArrival

    data, pool = dataset
    order = []
    for name in ("admit", "admit_update"):
        real = getattr(Dispatcher, name)

        def recording(self, now_ns, *args, _name=name, _real=real, **kwargs):
            order.append((_name, now_ns))
            return _real(self, now_ns, *args, **kwargs)

        monkeypatch.setattr(Dispatcher, name, recording)
    # update_id 0 < query_id 7: only the tags can put the arrival first.
    update = UpdateArrival(
        update_id=0, time_ns=500.0, kind="insert", object_id=300, vector=data[0]
    )
    QueryService(sharded).run_arrivals(
        pool, [Arrival(query_id=7, time_ns=500.0, pool_index=0)], k=K, updates=[update]
    )
    assert order == [("admit", 500.0), ("admit_update", 500.0)]


def test_stale_entries_are_not_events(replicated, dataset, monkeypatch):
    """Stale heap entries — even ones far past the end of the run — bump no
    ``LoopProfile`` count and add no metrics-timeline row."""
    from repro.serving.dispatcher import Dispatcher
    from repro.serving.events import EVENT_COMPLETION, EVENT_FLUSH, EVENT_HEDGE

    _, pool = dataset

    def serve():
        service = QueryService(
            replicated,
            routing=RoutingConfig(policy="hedged", hedge_min_observations=4),
            metrics_interval_ns=50_000.0,
        )
        report = service.run_open_loop(pool, open_workload(n_queries=60), k=K)
        return report, service.loop_profile.event_counts(), service.timeline.as_dict()

    clean = serve()
    real_init = Dispatcher.__init__

    def littered_init(self, sharded, sessions, config, stats, events, **kwargs):
        for time_ns in (1.0, 1e9):
            events.append((time_ns, EVENT_COMPLETION, 0, 0))  # session not ready then
            events.append((time_ns, EVENT_FLUSH, 1, 1))  # lane empty / due later
            events.append((time_ns, EVENT_HEDGE, -1, (10**9, 0)))  # never armed
        real_init(self, sharded, sessions, config, stats, events, **kwargs)

    monkeypatch.setattr(Dispatcher, "__init__", littered_init)
    assert serve() == clean


@pytest.mark.parametrize("shape", [(0, 16), (0,), (3, 0)])
def test_zero_length_query_pool_is_rejected_by_name(sharded, shape):
    arrivals = [Arrival(query_id=0, time_ns=0.0, pool_index=0)]
    with pytest.raises(ValueError, match="pool must be a non-empty"):
        QueryService(sharded).run_arrivals(np.empty(shape, dtype=np.float32), arrivals, k=K)
