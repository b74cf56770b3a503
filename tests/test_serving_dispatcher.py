"""Tests for repro.serving.dispatcher (replica lanes, batching, hedging).

The dispatcher owns no timer queue: it *posts* flush deadlines, hedge
deadlines and session wake-ups to the run's event heap, and the service
loop skips entries that went stale.  These tests hand it a bare list and
assert on what it posts, applying the loop's staleness rule themselves.
"""

import math

import numpy as np
import pytest

from repro.core.params import E2LSHParams
from repro.serving.dispatcher import DispatchConfig, Dispatcher
from repro.serving.events import EVENT_COMPLETION, EVENT_FLUSH, EVENT_HEDGE
from repro.serving.replication import FaultSpec, RoutingConfig
from repro.serving.sharding import ShardedIndex
from repro.serving.stats import ServiceStats


@pytest.fixture(scope="module")
def sharded():
    rng = np.random.default_rng(5)
    data = rng.standard_normal((240, 12)).astype(np.float32)
    return ShardedIndex.build(data, E2LSHParams(n=240), n_shards=2, scheme="hash", seed=5)


@pytest.fixture(scope="module")
def replicated():
    rng = np.random.default_rng(5)
    data = rng.standard_normal((240, 12)).astype(np.float32)
    return ShardedIndex.build(
        data,
        E2LSHParams(n=240),
        n_shards=2,
        scheme="hash",
        seed=5,
        replicas=2,
        faults=(FaultSpec(shard=0, replica=1, latency_multiplier=4.0),),
    )


@pytest.fixture()
def query():
    return np.zeros(12, dtype=np.float32)


def make_dispatcher(sharded, routing=None, **kwargs):
    stats = ServiceStats()
    sessions = [group.sessions() for group in sharded.replica_groups]
    dispatcher = Dispatcher(
        sharded, sessions, DispatchConfig(**kwargs), stats, [], routing=routing
    )
    return dispatcher, sessions, stats


def posted(dispatcher, tag):
    """Every entry of one class the dispatcher has posted, in pop order."""
    return sorted(entry for entry in dispatcher._events if entry[1] == tag)


def live_flushes(dispatcher):
    """Posted flush deadlines the loop would act on (not stale)."""
    return [
        entry
        for entry in posted(dispatcher, EVENT_FLUSH)
        if dispatcher.flush_deadline_ns(entry[2], entry[3]) <= entry[0]
    ]


def live_hedges(dispatcher):
    """Posted hedge timers the loop would fire (not stale)."""
    return [
        entry
        for entry in posted(dispatcher, EVENT_HEDGE)
        if dispatcher.hedge_pending(entry[3])
    ]


def fire_due_hedges(dispatcher, now_ns):
    """What the loop does with the hedge timers due by ``now_ns``."""
    for deadline, _, _, key in posted(dispatcher, EVENT_HEDGE):
        if deadline <= now_ns and dispatcher.hedge_pending(key):
            dispatcher.fire_hedge(now_ns, key)


def queued(dispatcher):
    return sum(depth for row in dispatcher.queue_depths() for depth in row)


def drain_completions(dispatcher, sessions):
    """Flush everything, run every session dry, feed completions back."""
    dispatcher.flush_due(math.inf)
    answers = []
    for shard_id, row in enumerate(sessions):
        for replica, session in enumerate(row):
            for completion in session.drain():
                answers.append(dispatcher.subquery_done(shard_id, replica, completion))
    return answers


# -- micro-batch triggers ----------------------------------------------------


def test_size_trigger_flushes_full_batch(sharded, query):
    dispatcher, sessions, stats = make_dispatcher(sharded, max_batch=3)
    for i in range(3):
        assert dispatcher.admit(100.0, i, query, k=2)
    assert queued(dispatcher) == 0  # batch released on the 3rd admit
    assert all(s.has_work for row in sessions for s in row)
    assert stats.batch_sizes == [3, 3]  # one flush per shard lane
    # Each flush wakes the session it submitted to, at the flush time.
    assert posted(dispatcher, EVENT_COMPLETION) == [
        (100.0, EVENT_COMPLETION, 0, 0),
        (100.0, EVENT_COMPLETION, 1, 0),
    ]
    # The time triggers posted at first enqueue are stale now.
    assert live_flushes(dispatcher) == []


def test_time_trigger_deadline(sharded, query):
    dispatcher, sessions, stats = make_dispatcher(sharded, max_batch=100, max_delay_ns=500.0)
    dispatcher.admit(1000.0, 0, query, k=2)
    assert queued(dispatcher) == 2
    assert live_flushes(dispatcher) == [
        (1500.0, EVENT_FLUSH, 0, 0),
        (1500.0, EVENT_FLUSH, 1, 0),
    ]
    dispatcher.flush_due(1400.0)  # before the deadline: nothing happens
    assert queued(dispatcher) == 2
    dispatcher.flush_due(1500.0)
    assert queued(dispatcher) == 0
    assert all(s.has_work for row in sessions for s in row)
    assert live_flushes(dispatcher) == []


def test_deadline_set_by_oldest_entry(sharded, query):
    dispatcher, _, _ = make_dispatcher(sharded, max_batch=100, max_delay_ns=500.0)
    dispatcher.admit(1000.0, 0, query, k=2)
    dispatcher.admit(1300.0, 1, query, k=2)
    # The younger entry posts nothing: one deadline per lane, the oldest's.
    assert posted(dispatcher, EVENT_FLUSH) == [
        (1500.0, EVENT_FLUSH, 0, 0),
        (1500.0, EVENT_FLUSH, 1, 0),
    ]
    assert dispatcher.flush_deadline_ns(0, 0) == pytest.approx(1500.0)


def test_no_pending_means_no_deadline(sharded):
    dispatcher, _, _ = make_dispatcher(sharded)
    assert dispatcher._events == []
    assert math.isinf(dispatcher.flush_deadline_ns(0, 0))


# -- bounded admission -------------------------------------------------------


def test_bounded_admission_rejects_and_recovers(sharded, query):
    dispatcher, sessions, stats = make_dispatcher(sharded, max_batch=100, queue_capacity=2)
    assert dispatcher.admit(0.0, 0, query, k=2)
    assert dispatcher.admit(0.0, 1, query, k=2)
    assert not dispatcher.admit(0.0, 2, query, k=2)  # both lanes full
    assert stats.rejected == 1
    drain_completions(dispatcher, sessions)
    assert dispatcher.admit(0.0, 3, query, k=2)


def test_bounded_queue_rejects_burst_arrivals(sharded, query):
    """A same-instant burst sheds exactly the overflow, keeps the rest."""
    dispatcher, _, stats = make_dispatcher(sharded, max_batch=100, queue_capacity=8)
    admitted = sum(dispatcher.admit(0.0, i, query, k=2) for i in range(20))
    assert admitted == 8
    assert stats.rejected == 12
    # Every lane is exactly full, none above capacity.
    for row in dispatcher._lanes:
        for lane in row:
            assert lane.outstanding == 8


def test_burst_rejection_spreads_over_replicas(replicated, query):
    """With R=2 a burst fits 2x the sub-queries before shedding."""
    dispatcher, _, stats = make_dispatcher(replicated, max_batch=100, queue_capacity=8)
    admitted = sum(dispatcher.admit(0.0, i, query, k=2) for i in range(20))
    assert admitted == 16  # R=2 doubles the admission headroom
    assert stats.rejected == 4


def test_outstanding_counts_in_flight_not_just_queued(sharded, query):
    dispatcher, _, _ = make_dispatcher(sharded, max_batch=2, queue_capacity=3)
    # Two admits flush immediately (max_batch=2), but stay outstanding.
    dispatcher.admit(0.0, 0, query, k=2)
    dispatcher.admit(0.0, 1, query, k=2)
    assert queued(dispatcher) == 0
    assert dispatcher.admit(0.0, 2, query, k=2)  # 3rd slot
    assert not dispatcher.admit(0.0, 3, query, k=2)  # capacity 3 reached


def test_queue_depth_sampled_per_admit(sharded, query):
    dispatcher, _, stats = make_dispatcher(sharded, max_batch=100)
    dispatcher.admit(0.0, 0, query, k=2)
    dispatcher.admit(0.0, 1, query, k=2)
    assert stats.queue_depth_samples == [1, 1, 2, 2]  # two lanes, two admits


# -- completions -------------------------------------------------------------


def test_every_completion_returns_an_answer_without_hedging(sharded, query):
    dispatcher, sessions, _ = make_dispatcher(sharded, max_batch=100)
    dispatcher.admit(0.0, 0, query, k=2)
    dispatcher.admit(0.0, 1, query, k=2)
    answers = drain_completions(dispatcher, sessions)
    assert len(answers) == 4  # 2 queries x 2 shards
    assert all(answer is not None for answer in answers)


def test_subquery_done_underflow_raises(sharded):
    dispatcher, sessions, _ = make_dispatcher(sharded)

    class FakeCompletion:
        tag = 0
        result = None
        finish_ns = 0.0

    with pytest.raises(RuntimeError):
        dispatcher.subquery_done(0, 0, FakeCompletion())


def test_session_shape_must_match_replicas(sharded, replicated):
    with pytest.raises(ValueError):
        Dispatcher(
            sharded,
            [sharded.shards[0].engine.session()],
            DispatchConfig(),
            ServiceStats(),
            [],
        )
    with pytest.raises(ValueError):
        # Replicated index, single-copy session rows.
        Dispatcher(
            replicated,
            [group.engines[0].session() for group in replicated.replica_groups],
            DispatchConfig(),
            ServiceStats(),
            [],
        )


def test_flat_session_list_accepted_for_single_copy(sharded, query):
    stats = ServiceStats()
    sessions = [shard.engine.session() for shard in sharded.shards]
    dispatcher = Dispatcher(sharded, sessions, DispatchConfig(max_batch=1), stats, [])
    assert dispatcher.admit(0.0, 0, query, k=2)
    assert all(session.has_work for session in sessions)


# -- hedging -----------------------------------------------------------------


def hedged_dispatcher(replicated, delay_ns=1000.0, **kwargs):
    routing = RoutingConfig(policy="hedged", hedge_delay_ns=delay_ns)
    return make_dispatcher(replicated, routing=routing, **kwargs)


def test_hedge_timer_armed_at_admission(replicated, query):
    dispatcher, _, stats = hedged_dispatcher(replicated, max_batch=100)
    dispatcher.admit(100.0, 0, query, k=2)
    assert stats.hedges_armed == 2  # one per shard
    assert live_hedges(dispatcher) == [
        (1100.0, EVENT_HEDGE, 0, (0, 0)),
        (1100.0, EVENT_HEDGE, 1, (0, 1)),
    ]


def test_hedge_timer_cancelled_when_primary_completes_first(replicated, query):
    """Satellite: primary answers before the deadline -> timer disarmed."""
    dispatcher, sessions, stats = hedged_dispatcher(replicated, delay_ns=1e12, max_batch=1)
    dispatcher.admit(0.0, 0, query, k=2)
    for shard_id, row in enumerate(sessions):
        for replica, session in enumerate(row):
            for completion in session.drain():
                assert dispatcher.subquery_done(shard_id, replica, completion) is not None
    assert stats.hedges_cancelled == 2
    assert stats.hedges_issued == 0
    # Both posted timers are stale: the loop skips them, nothing fires.
    assert len(posted(dispatcher, EVENT_HEDGE)) == 2
    assert live_hedges(dispatcher) == []
    fire_due_hedges(dispatcher, 2e12)
    assert stats.hedges_issued == 0


def test_hedge_fires_and_duplicate_goes_to_other_replica(replicated, query):
    dispatcher, _, stats = hedged_dispatcher(replicated, delay_ns=500.0, max_batch=100)
    dispatcher.admit(0.0, 0, query, k=2)
    fire_due_hedges(dispatcher, 500.0)
    assert stats.hedges_issued == 2
    assert live_hedges(dispatcher) == []  # a fired timer never fires twice
    # Each shard now has the original plus the duplicate queued, on
    # different replica lanes.
    for row in dispatcher._lanes:
        occupied = [lane.outstanding for lane in row]
        assert sorted(occupied) == [1, 1]


def test_loser_cancellation_preserves_younger_entries_deadline(replicated, query):
    """Cancelling the oldest queued entry must not shorten the batching
    window of the entries behind it."""
    dispatcher, _, stats = hedged_dispatcher(
        replicated, delay_ns=100.0, max_batch=100, max_delay_ns=500.0
    )
    dispatcher.admit(0.0, 0, query, k=2)  # primaries queue at t=0
    fire_due_hedges(dispatcher, 100.0)  # duplicates join *other* lanes at t=100
    assert stats.hedges_issued == 2
    # Each duplicate heads its lane; cancel it by hand and make sure the
    # lane deadline is gone with it, not frozen at the duplicate's time.
    for shard_id, row in enumerate(dispatcher._lanes):
        for replica, lane in enumerate(row):
            if lane.pending and lane.pending[0][3] == 100.0:
                assert dispatcher._cancel_queued(shard_id, replica, 0)
                assert math.isinf(dispatcher.flush_deadline_ns(shard_id, replica))
    # Primaries still flush on their own t=0 + 500 deadline; the
    # duplicates' t=100 + 500 postings went stale with them.
    assert [entry[0] for entry in live_flushes(dispatcher)] == [500.0, 500.0]


def test_cancelling_the_front_entry_posts_the_survivors_deadline(sharded, query):
    """The lane re-keys to the oldest *surviving* entry: its full window,
    not the cancelled front's shorter one."""
    dispatcher, _, _ = make_dispatcher(sharded, max_batch=100, max_delay_ns=500.0)
    dispatcher.admit(0.0, 0, query, k=2)
    dispatcher.admit(300.0, 1, query, k=2)
    assert dispatcher._cancel_queued(0, 0, 0)  # drop shard 0's front entry
    assert dispatcher.flush_deadline_ns(0, 0) == pytest.approx(800.0)
    assert live_flushes(dispatcher) == [
        (500.0, EVENT_FLUSH, 1, 0),  # untouched lane keeps its deadline
        (800.0, EVENT_FLUSH, 0, 0),  # survivor: enqueued 300 + 500
    ]
    # Cancelling from the middle of a queue changes no deadline.
    dispatcher.admit(400.0, 2, query, k=2)
    before = list(dispatcher._events)
    assert dispatcher._cancel_queued(1, 0, 1)
    assert dispatcher._events == before


def test_hedge_loser_cancelled_while_still_queued(replicated, query):
    """Primary completes while the duplicate waits in its lane: the
    duplicate is dropped before costing any device I/O."""
    dispatcher, sessions, stats = hedged_dispatcher(replicated, delay_ns=500.0, max_batch=100)
    dispatcher.admit(0.0, 0, query, k=2)
    dispatcher.flush_due(math.inf)  # primaries reach their engines...
    fire_due_hedges(dispatcher, 500.0)  # ...duplicates stay queued (size 1 < 100)
    assert stats.hedges_issued == 2
    answers = 0
    for shard_id, row in enumerate(sessions):
        for replica, session in enumerate(row):
            for completion in session.drain():
                if dispatcher.subquery_done(shard_id, replica, completion) is not None:
                    answers += 1
    assert answers == 2
    assert stats.hedge_losses == 2
    assert stats.hedge_losers_cancelled == 2
    assert queued(dispatcher) == 0  # cancelled copies left no residue
    assert live_flushes(dispatcher) == []


def test_shed_admissions_do_not_skew_round_robin(replicated, query):
    """A query shed because one shard is full must leave every cursor
    in place: the next admitted query still alternates replicas."""
    dispatcher, _, stats = make_dispatcher(
        replicated, routing=RoutingConfig(policy="round_robin"),
        max_batch=100, queue_capacity=2,
    )
    # Fill shard 1's lanes completely (shard 0 keeps headroom: its
    # lanes also fill — capacity 2 x 2 replicas = 4 admits fit).
    for i in range(4):
        assert dispatcher.admit(0.0, i, query, k=2)
    assert not dispatcher.admit(0.0, 4, query, k=2)  # shed: all full
    assert stats.rejected == 1
    # Admitted sub-queries alternated replicas on every shard despite
    # the shed probe in between.
    for row in dispatcher._lanes:
        assert [lane.outstanding for lane in row] == [2, 2]


def test_hedged_single_copy_never_arms_timers(sharded, query):
    """R=1 has nowhere to hedge to: the ledger must stay silent rather
    than fill up with suppressed timers."""
    dispatcher, _, stats = make_dispatcher(
        sharded, routing=RoutingConfig(policy="hedged", hedge_delay_ns=100.0),
        max_batch=100,
    )
    dispatcher.admit(0.0, 0, query, k=2)
    assert stats.hedges_armed == 0
    assert posted(dispatcher, EVENT_HEDGE) == []


def test_adaptive_hedging_stays_quiet_until_warm(replicated, query):
    routing = RoutingConfig(policy="hedged", hedge_min_observations=4)
    dispatcher, _, stats = make_dispatcher(replicated, routing=routing, max_batch=100)
    dispatcher.admit(0.0, 0, query, k=2)
    assert stats.hedges_armed == 0  # no observations yet -> no delay anchor
    assert posted(dispatcher, EVENT_HEDGE) == []


def test_config_validation():
    with pytest.raises(ValueError):
        DispatchConfig(max_batch=0)
    with pytest.raises(ValueError):
        DispatchConfig(max_delay_ns=-1.0)
    with pytest.raises(ValueError):
        DispatchConfig(queue_capacity=0)
