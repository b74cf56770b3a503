"""Property tests: the vectorized batch query path is bit-identical to
the scalar path.

``E2LSHoSIndex.query_tasks`` plans a whole wave at once (batch
projections, one ``searchsorted`` per rung, shared slot addressing) and
memoizes hash state across waves, but every member task must still
yield *exactly* the Compute/ReadBatch action stream of
``query_task(q)`` run alone — same simulated durations, same I/O
addresses in the same order, same answers, same op counts.  These tests
pin that contract across k/stop_k settings, rung descent depths, empty
buckets, duplicated queries, and warm plan caches.
"""

import numpy as np
import pytest

from repro.core.e2lshos import E2LSHoSIndex
from repro.core.params import E2LSHParams
from repro.core.radii import RadiusLadder
from repro.storage.blockstore import MemoryBlockStore
from repro.storage.engine import AsyncIOEngine, Compute, Read, ReadBatch, Segment
from repro.storage.profiles import INTERFACE_PROFILES, make_volume


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(61)
    n, d = 3000, 24
    centers = rng.normal(scale=4.0, size=(30, d))
    data = (centers[rng.integers(0, 30, n)] + rng.normal(scale=0.4, size=(n, d))).astype(
        np.float32
    )
    index = E2LSHoSIndex.build(
        data,
        E2LSHParams(n=n, rho=0.35, gamma=0.8, s_factor=8),
        store=MemoryBlockStore(),
        ladder=RadiusLadder.for_data(data, 2.0),
        seed=9,
    )
    near = (data[rng.integers(0, n, 6)] + rng.normal(scale=0.05, size=(6, d))).astype(
        np.float32
    )
    far = np.full((1, d), 80.0, dtype=np.float32)  # all rungs, empty buckets
    queries = np.vstack([near, far, near[2:3]])  # includes an exact duplicate
    return index, queries.astype(np.float32)


def drain(index, task):
    """Run one task to completion, recording its observable action stream."""
    actions, sent = [], None
    store = index.built.store
    while True:
        try:
            action = task.send(sent)
        except StopIteration as stop:
            return actions, stop.value
        sent = None
        # A recurring query is replayed in segments; their plain actions are the stream.
        for plain in action.expand() if isinstance(action, Segment) else (action,):
            if isinstance(plain, Compute):
                actions.append(("compute", plain.duration_ns))
            elif isinstance(plain, ReadBatch):
                actions.append(("read_batch", tuple(plain.requests)))
                sent = [store.read(addr, length) for addr, length in plain.requests]
            elif isinstance(plain, Read):  # pragma: no cover - path yields batches
                actions.append(("read", plain.address, plain.length))
                sent = store.read(plain.address, plain.length)
            else:  # pragma: no cover - an action this walk was never taught
                raise TypeError(f"unsupported action {plain!r}")


@pytest.mark.parametrize("k,stop_k", [(1, None), (5, None), (10, 2), (3, 8)])
def test_batch_action_streams_match_scalar(setup, k, stop_k):
    index, queries = setup
    batch_tasks = index.query_tasks(queries, k=k, stop_k=stop_k)
    for i, batch_task in enumerate(batch_tasks):
        batch_actions, batch_answer = drain(index, batch_task)
        scalar_actions, scalar_answer = drain(
            index, index.query_task(queries[i], k=k, stop_k=stop_k)
        )
        assert batch_actions == scalar_actions
        np.testing.assert_array_equal(batch_answer.ids, scalar_answer.ids)
        np.testing.assert_array_equal(batch_answer.distances, scalar_answer.distances)
        assert vars(batch_answer.stats.ops) == vars(scalar_answer.stats.ops)
        assert batch_answer.stats.ios_issued == scalar_answer.stats.ios_issued
        assert batch_answer.stats.rungs_searched == scalar_answer.stats.rungs_searched
        assert (
            batch_answer.stats.bucket_sizes_examined
            == scalar_answer.stats.bucket_sizes_examined
        )


def test_far_query_probes_every_rung_without_io(setup):
    index, queries = setup
    far = queries[6]
    _, answer = drain(index, index.query_tasks(far[None, :], k=1)[0])
    assert answer.stats.rungs_searched == len(index.ladder)
    assert answer.ids.size == 0


def test_engine_run_identical_scalar_vs_batch(setup):
    index, queries = setup

    def engine():
        return AsyncIOEngine(
            make_volume("cssd", 4), INTERFACE_PROFILES["io_uring"], index.built.store
        )

    batch = engine().run(index.query_tasks(queries, k=5))
    scalar = engine().run([index.query_task(q, k=5) for q in queries])
    assert batch.makespan_ns == scalar.makespan_ns
    assert batch.finish_times_ns == scalar.finish_times_ns
    assert batch.io_count == scalar.io_count
    assert batch.compute_ns == scalar.compute_ns
    for a, b in zip(batch.results, scalar.results):
        np.testing.assert_array_equal(a.ids, b.ids)
        np.testing.assert_array_equal(a.distances, b.distances)


def test_warm_plan_cache_changes_nothing(setup):
    """Replanning the same queries reuses memoized hash state bit-for-bit."""
    index, queries = setup
    cold = [drain(index, t) for t in index.query_tasks(queries, k=3)]
    warm = [drain(index, t) for t in index.query_tasks(queries, k=3)]
    for (cold_actions, cold_answer), (warm_actions, warm_answer) in zip(cold, warm):
        assert cold_actions == warm_actions
        np.testing.assert_array_equal(cold_answer.ids, warm_answer.ids)
        np.testing.assert_array_equal(cold_answer.distances, warm_answer.distances)


def test_duplicate_rows_in_one_wave_share_a_plan(setup):
    index, queries = setup
    dupes = np.vstack([queries[0], queries[0], queries[0]])
    tasks = index.query_tasks(dupes, k=2)
    drained = [drain(index, t) for t in tasks]
    for actions, answer in drained[1:]:
        assert actions == drained[0][0]
        np.testing.assert_array_equal(answer.ids, drained[0][1].ids)


def test_query_tasks_validation(setup):
    index, queries = setup
    d = queries.shape[1]
    with pytest.raises(ValueError, match="index expects"):
        index.query_tasks(np.zeros((2, d + 3), dtype=np.float32))
    with pytest.raises(ValueError, match="stop_k"):
        index.query_tasks(queries, k=1, stop_k=0)
    with pytest.raises(ValueError, match="id_map"):
        index.query_tasks(queries, k=1, id_map=np.arange(5))
    with pytest.raises(ValueError):
        next(index.query_tasks(queries, k=0)[0])
