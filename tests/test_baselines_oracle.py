"""Differential oracle: the batched baselines against the tree walks.

``reference_baselines`` holds the pointer-linked B+ tree, the per-child
R-tree walk and the per-window / per-point query bodies the production
code replaced.  Everything the machine model or a figure reads must be
*equal*, not close: ids, the bytes of the distances, and every
``OpCounts`` field.
"""

import dataclasses
import random
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_baselines import (
    ReferenceBPlusTree,
    ReferenceQALSH,
    ReferenceRTree,
    ReferenceSRS,
    ReferenceStorageSRS,
)

from repro.baselines import srs as srs_module
from repro.baselines.bptree import BPlusTree, TraversalCounters
from repro.baselines.qalsh import QALSHIndex
from repro.baselines.rtree import NNCounters, RTree
from repro.baselines.srs import SRSIndex
from repro.baselines.srs_storage import StorageSRS
from repro.storage.blockstore import MemoryBlockStore
from repro.storage.engine import AsyncIOEngine
from repro.storage.profiles import INTERFACE_PROFILES, make_volume


def assert_same_answer(got, want):
    """ids, distance bits, operation counts and summary stats all equal."""
    assert got.ids.dtype == want.ids.dtype and got.ids.tolist() == want.ids.tolist()
    assert got.distances.dtype == want.distances.dtype
    assert got.distances.tobytes() == want.distances.tobytes()
    assert dataclasses.asdict(got.stats.ops) == dataclasses.asdict(want.stats.ops)
    assert dataclasses.asdict(got.stats) == dataclasses.asdict(want.stats)


def clustered(seed, n, d, n_queries=6):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=4.0, size=(8, d))
    data = centers[rng.integers(0, 8, n)] + rng.normal(scale=0.6, size=(n, d))
    queries = data[rng.integers(0, n, n_queries)] + rng.normal(scale=0.1, size=(n_queries, d))
    return data.astype(np.float32), queries.astype(np.float32)


def lattice(seed, n, d, n_queries=4):
    """Small-integer coordinates: many exact ties in every distance."""
    rng = np.random.default_rng(seed)
    data = rng.integers(-2, 3, size=(n, d)).astype(np.float32)
    return data, data[rng.integers(0, n, n_queries)].copy()


# -- B+ tree ----------------------------------------------------------------------


def assert_same_tree_walk(keys, leaf_capacity, fanout, probes):
    keys = np.asarray(keys, dtype=np.float64)
    values = np.arange(keys.size)
    tree = BPlusTree(keys, values, leaf_capacity=leaf_capacity, fanout=fanout)
    oracle = ReferenceBPlusTree(keys, values, leaf_capacity=leaf_capacity, fanout=fanout)
    assert (tree.height, len(tree)) == (oracle.height, len(oracle))
    assert (tree.min_key(), tree.max_key()) == (oracle.min_key(), oracle.max_key())
    for lo in probes:
        got, want = TraversalCounters(), TraversalCounters()
        leaf, index = tree.locate(lo, got)
        oracle_leaf, oracle_index = oracle.locate(lo, want)
        assert index == oracle_index
        assert leaf.keys.tolist() == oracle_leaf.keys.tolist()
        assert leaf.values.tolist() == oracle_leaf.values.tolist()
        assert got == want
        for hi in probes:
            if hi < lo:
                continue
            got, want = TraversalCounters(), TraversalCounters()
            window_keys, window_values = tree.window(lo, hi, got)
            oracle_keys, oracle_values = oracle.window(lo, hi, want)
            assert window_keys.tobytes() == oracle_keys.tobytes()
            assert window_values.tolist() == oracle_values.tolist()
            assert window_values.dtype == oracle_values.dtype
            assert got == want, (lo, hi)


def test_bptree_duplicates_straddling_a_leaf_boundary():
    # leaf_capacity 4: the run of 2.0s covers positions 2..9, three leaves.
    keys = [0.0, 1.0] + [2.0] * 8 + [3.0, 4.0, 5.0]
    assert_same_tree_walk(keys, 4, 3, [-1.0, 0.0, 1.5, 2.0, 2.5, 3.0, 5.0, 6.0])


def test_bptree_window_ends_on_leaf_boundaries_and_last_key():
    keys = np.arange(32, dtype=np.float64)
    # hi = 8, 16 land on the first key of a leaf; 31 is the last key.
    assert_same_tree_walk(keys, 8, 2, [0.0, 7.0, 7.5, 8.0, 15.5, 16.0, 24.0, 31.0, 31.5, 40.0])


def test_bptree_single_leaf_and_probe_above_every_key():
    assert_same_tree_walk([3.0, 1.0, 2.0], 8, 4, [0.0, 1.0, 2.5, 3.0, 9.0, 10.0])
    tree = BPlusTree(np.array([3.0, 1.0, 2.0]), np.arange(3), leaf_capacity=8)
    assert tree.height == 1


@settings(max_examples=120, deadline=None)
@given(
    keys=st.lists(st.integers(-6, 6), min_size=1, max_size=90),
    leaf_capacity=st.integers(2, 9),
    fanout=st.integers(2, 5),
    probes=st.lists(st.integers(-14, 14), min_size=1, max_size=6),
)
def test_property_bptree_matches_pointer_tree(keys, leaf_capacity, fanout, probes):
    """Half-integer probes fall between keys, integer ones on duplicates."""
    assert_same_tree_walk(
        [float(key) for key in keys], leaf_capacity, fanout, sorted({p / 2.0 for p in probes})
    )


# -- R-tree -----------------------------------------------------------------------


def assert_same_rectangle_scores(node, oracle_node, query):
    """Every page's one-pass child scores equal the per-child form, bit for bit.

    The walk below only sees a score through the order it induces, so a
    last-bit difference in a rectangle distance needs this direct check.
    """
    assert node.is_leaf == oracle_node.is_leaf
    if node.is_leaf:
        assert node.entries == oracle_node.point_ids.tolist()
        return
    scores = node.entry_dist_sq(query).tolist()
    assert scores == [child.min_dist_sq(query) for child in oracle_node.children]
    for child, oracle_child in zip(node.entries, oracle_node.children, strict=True):
        assert_same_rectangle_scores(child, oracle_child, query)


def assert_same_nn_walk(points, query, leaf_capacity, fanout):
    tree = RTree(points, leaf_capacity=leaf_capacity, fanout=fanout)
    oracle = ReferenceRTree(points, leaf_capacity=leaf_capacity, fanout=fanout)
    assert tree.n_nodes == oracle.n_nodes and tree.memory_bytes == oracle.memory_bytes
    query = np.asarray(query, dtype=np.float64)
    assert_same_rectangle_scores(tree.root, oracle.root, query)
    got, want = NNCounters(), NNCounters()
    walk, oracle_walk = tree.incremental_nn(query, got), oracle.incremental_nn(query, want)
    for step, expected in enumerate(oracle_walk):
        # Counters must agree at every yield, not only at exhaustion:
        # SRS stops the walk wherever its budget runs out.
        assert next(walk) == expected, step
        assert got == want, step
    assert next(walk, None) is None
    assert got == want


@pytest.mark.parametrize("m", [1, 3, 6, 8])
def test_rtree_walk_matches_per_child_walk(m):
    rng = np.random.default_rng(100 + m)
    points = rng.normal(size=(700, m))
    for query in (np.zeros(m), rng.normal(size=m), points[17], 50.0 + np.zeros(m)):
        assert_same_nn_walk(points, query, leaf_capacity=16, fanout=4)


def test_rtree_walk_with_tied_projected_distances():
    rng = np.random.default_rng(5)
    points = rng.integers(-2, 3, size=(400, 3)).astype(np.float64)
    assert_same_nn_walk(points, np.zeros(3), leaf_capacity=8, fanout=3)
    assert_same_nn_walk(points, np.array([0.5, -0.5, 0.5]), leaf_capacity=8, fanout=3)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(1, 150),
    m=st.integers(1, 9),
    leaf_capacity=st.integers(1, 12),
    fanout=st.integers(2, 6),
    grid=st.booleans(),
)
def test_property_rtree_walk_matches(seed, n, m, leaf_capacity, fanout, grid):
    rng = np.random.default_rng(seed)
    points = rng.uniform(-10, 10, size=(n, m))
    query = rng.uniform(-12, 12, size=m)
    if grid:
        points, query = np.round(points / 4.0), np.round(query / 4.0)
    assert_same_nn_walk(points, query, leaf_capacity, fanout)


# -- SRS --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def srs_pair():
    data, queries = clustered(21, 1200, 24)
    index = SRSIndex(data, m=6, seed=4)
    return index, ReferenceSRS(index), queries


@pytest.mark.parametrize("k", [1, 10])
def test_srs_budget_sweep_matches(srs_pair, k):
    index, oracle, queries = srs_pair
    for t_prime in (k, 37, 400, index.n):
        for query in queries:
            assert_same_answer(
                index.query(query, k=k, t_prime=t_prime), oracle.query(query, k=k, t_prime=t_prime)
            )


def test_srs_guarantee_mode_matches(srs_pair):
    """``t_prime=None``: the chi-squared test ends the walk early."""
    index, oracle, queries = srs_pair
    stopped_early = 0
    for k in (1, 5):
        for query in queries:
            got = index.query(query, k=k)
            assert_same_answer(got, oracle.query(query, k=k))
            stopped_early += got.stats.candidates_checked < index.n
    assert stopped_early
    # Early stop forced on beside a budget, and a confidence it never reaches.
    assert_same_answer(
        index.query(queries[0], k=3, t_prime=300, use_early_stop=True),
        oracle.query(queries[0], k=3, t_prime=300, use_early_stop=True),
    )
    assert_same_answer(
        index.query(queries[0], k=3, early_stop_confidence=2.0),
        oracle.query(queries[0], k=3, early_stop_confidence=2.0),
    )


def swap_in_integer_projection(index):
    """An integer projection keeps the lattice's exact ties in the projected
    space too, so the heap's tiebreak order is what decides."""
    index.projection = np.round(index.projection)
    index.projected = index.data.astype(np.float64) @ index.projection
    index.tree = RTree(index.projected, leaf_capacity=8, fanout=3)
    return index


def tied_srs(data):
    return swap_in_integer_projection(SRSIndex(data, m=3, seed=2, leaf_capacity=8, fanout=3))


def test_srs_ties_in_projected_and_true_distance():
    data, queries = lattice(8, 500, 5)
    index = tied_srs(data)
    oracle = ReferenceSRS(index)
    for query in queries:
        for t_prime in (4, 60, index.n):
            assert_same_answer(
                index.query(query, k=4, t_prime=t_prime), oracle.query(query, k=4, t_prime=t_prime)
            )
        assert_same_answer(index.query(query, k=4), oracle.query(query, k=4))


def test_srs_query_batch_is_the_per_row_query(srs_pair):
    index, oracle, queries = srs_pair
    for got, query in zip(index.query_batch(queries, k=3, t_prime=90), queries):
        assert_same_answer(got, oracle.query(query, k=3, t_prime=90))


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(2, 200),
    m=st.integers(1, 8),
    k=st.integers(1, 6),
    budget=st.one_of(st.none(), st.integers(0, 200)),
    grid=st.booleans(),
)
def test_property_srs_matches(seed, n, m, k, budget, grid):
    data, queries = (lattice if grid else clustered)(seed, n, 7, n_queries=2)
    index = SRSIndex(data, m=m, seed=seed, leaf_capacity=6, fanout=3)
    oracle = ReferenceSRS(index)
    k = min(k, n)
    t_prime = None if budget is None else min(n, k + budget)
    for query in queries:
        assert_same_answer(
            index.query(query, k=k, t_prime=t_prime), oracle.query(query, k=k, t_prime=t_prime)
        )


# -- SRS: a walk is kept and resumed ------------------------------------------------
#
# ``SRSIndex.query`` replays and resumes one recorded walk per (tree, query).
# Whatever calls came before, an answer must equal a *fresh index's* (which
# walks from the root) and the reference's: ids, distance bits, every count.


def srs_builders():
    """(name, () -> a new index over the same data, queries): smooth and tied."""
    smooth, smooth_queries = clustered(21, 700, 16, n_queries=5)
    tied, tied_queries = lattice(8, 500, 5, n_queries=5)
    return [
        ("clustered", lambda: SRSIndex(smooth, m=6, seed=4, leaf_capacity=8), smooth_queries),
        ("lattice", lambda: tied_srs(tied), tied_queries),
    ]


SRS_BUILDERS = srs_builders()


@pytest.fixture(params=SRS_BUILDERS, ids=lambda param: param[0])
def srs_build(request):
    return request.param[1:]


def assert_reuse_is_invisible(build, queries, calls, kept=True):
    """``calls`` = (query row, k, t_prime | None) in order, all on one index.

    ``kept``: no walk is evicted on the way, so each query's record must be as
    long as its deepest call so far — it was resumed, never walked again.
    """
    index = build()
    oracle = ReferenceSRS(index)
    deepest: dict[int, int] = {}
    for step, (row, k, t_prime) in enumerate(calls):
        got = index.query(queries[row], k=k, t_prime=t_prime)
        assert_same_answer(got, build().query(queries[row], k=k, t_prime=t_prime))
        assert_same_answer(got, oracle.query(queries[row], k=k, t_prime=t_prime))
        assert got.stats.candidates_checked <= (t_prime or index.n), step
        deepest[row] = max(deepest.get(row, 0), got.stats.candidates_checked)
        if kept:
            columns, _ = srs_module._WALKS[index.tree, queries[row].astype(np.float64).tobytes()]
            assert len(columns[0]) == deepest[row], step


def test_srs_budgets_in_any_order_reuse_one_walk(srs_build):
    build, queries = srs_build
    ascending = [4, 9, 37, 150, 400]
    shuffled = random.Random(5).sample(ascending, len(ascending))
    for budgets in (ascending, ascending[::-1], shuffled, [37, 37, 400, 400, 37]):
        calls = [(row, 4, t_prime) for t_prime in budgets for row in range(len(queries))]
        assert_reuse_is_invisible(build, queries, calls)


def test_srs_interleaved_k_on_the_same_walks(srs_build):
    build, queries = srs_build
    calls = [(row, k, t_prime) for t_prime in (10, 200, 60) for k in (1, 10) for row in (0, 1, 2)]
    assert_reuse_is_invisible(build, queries, calls)


def test_srs_guarantee_mode_before_and_after_a_budget_run(srs_build):
    """The chi-squared stop reads the replayed projected distances."""
    build, queries = srs_build
    rows = range(len(queries))
    for k in (1, 4):
        calls = [(row, k, None) for row in rows]
        calls += [(row, k, t_prime) for t_prime in (300, 12) for row in rows]
        calls += [(row, k, None) for row in rows]
        assert_reuse_is_invisible(build, queries, calls)


def test_srs_budget_beyond_n_exhausts_the_walk_then_replays_it(srs_build):
    build, queries = srs_build
    n = build().n
    calls = [(0, 3, 50), (0, 3, n + 100), (0, 3, n + 100), (0, 3, n), (0, 3, 7), (0, 3, None)]
    assert_reuse_is_invisible(build, queries, calls)
    answer = build().query(queries[0], k=3, t_prime=n + 100)
    assert answer.stats.candidates_checked == n


def test_srs_sweep_over_more_queries_than_the_memo_keeps():
    """Eviction mid-sweep: every walk is gone by the time its query recurs."""
    data, _ = clustered(22, 400, 8)
    rng = np.random.default_rng(3)
    queries = rng.normal(scale=3.0, size=(srs_module._MAX_WALKS + 9, 8)).astype(np.float32)
    rows = range(len(queries))
    calls = [(row, 2, t_prime) for t_prime in (5, 40, 20) for row in rows]
    # ... and a few that do recur while still kept.
    calls += [(row, 2, t_prime) for t_prime in (60, 30) for row in (3, 4)]

    def build():
        return SRSIndex(data, m=4, seed=1, leaf_capacity=8)

    assert_reuse_is_invisible(build, queries, calls, kept=False)
    assert len(srs_module._WALKS) == srs_module._MAX_WALKS


def test_srs_walk_belongs_to_its_tree():
    """A walk recorded before the tree is swapped is not served after it."""
    data, queries = lattice(8, 500, 5)
    index = SRSIndex(data, m=3, seed=2, leaf_capacity=8, fanout=3)
    before = index.query(queries[0], k=4, t_prime=60)
    swap_in_integer_projection(index)
    after = index.query(queries[0], k=4, t_prime=60)
    assert_same_answer(after, tied_srs(data).query(queries[0], k=4, t_prime=60))
    assert dataclasses.asdict(after.stats.ops) != dataclasses.asdict(before.stats.ops)


def test_srs_walk_outlives_the_callers_buffer():
    """A float64 query is not copied on the way in; the parked walk must not see
    what the caller writes into that buffer afterwards."""
    data, queries = clustered(23, 600, 12)
    index = SRSIndex(data, m=5, seed=8, leaf_capacity=8)
    buffer = queries[0].astype(np.float64)
    index.query(buffer, k=3, t_prime=20)
    buffer[:] = queries[1]
    fresh = SRSIndex(data, m=5, seed=8, leaf_capacity=8)
    assert_same_answer(
        index.query(queries[0], k=3, t_prime=300), fresh.query(queries[0], k=3, t_prime=300)
    )


def test_srs_torn_walk_is_forgotten(monkeypatch):
    """An error inside the suspended walk finishes its generator for good; the
    record it leaves must not pass for an exhausted walk."""
    data, queries = clustered(24, 600, 12)
    index = SRSIndex(data, m=5, seed=8, leaf_capacity=8)
    index.query(queries[0], k=2, t_prime=10)

    def interrupted(_):
        raise KeyboardInterrupt

    monkeypatch.setattr(srs_module, "math", types.SimpleNamespace(sqrt=interrupted))
    with pytest.raises(KeyboardInterrupt):
        index.query(queries[0], k=2, t_prime=50)
    monkeypatch.undo()
    fresh = SRSIndex(data, m=5, seed=8, leaf_capacity=8)
    assert_same_answer(
        index.query(queries[0], k=2, t_prime=50), fresh.query(queries[0], k=2, t_prime=50)
    )


@settings(max_examples=30, deadline=None)
@given(
    tied=st.booleans(),
    calls=st.lists(
        st.tuples(
            st.integers(0, 4), st.integers(1, 6), st.one_of(st.none(), st.integers(0, 520))
        ),
        min_size=1,
        max_size=12,
    ),
)
def test_property_srs_reuse_is_invisible(tied, calls):
    _, build, queries = SRS_BUILDERS[tied]
    assert_reuse_is_invisible(
        build, queries, [(row, k, None if extra is None else k + extra) for row, k, extra in calls]
    )


# -- StorageSRS -------------------------------------------------------------------


def run_tasks(store, tasks):
    engine = AsyncIOEngine(make_volume("cssd", 1), INTERFACE_PROFILES["io_uring"], store)
    return engine.run(tasks)


@pytest.mark.parametrize("maker", [clustered, lattice])
def test_storage_srs_prefetch_and_sync_order_match(maker):
    data, queries = maker(33, 900, 12)
    index = SRSIndex(data, seed=6)
    store, oracle_store = MemoryBlockStore(), MemoryBlockStore()
    storage = StorageSRS(index, store, prefetch=4)
    oracle = ReferenceStorageSRS(ReferenceSRS(index), oracle_store, prefetch=4)
    assert storage.root_address == oracle.root_address
    for task in ("query_task", "query_task_sync_order"):
        for k, t_prime in ((1, 1), (3, 150), (5, index.n)):
            got = run_tasks(store, [getattr(storage, task)(q, k, t_prime) for q in queries])
            want = run_tasks(
                oracle_store, [getattr(oracle, task)(q, k, t_prime) for q in queries]
            )
            # Same reads in the same order: the simulated clock agrees too.
            assert got.makespan_ns == want.makespan_ns
            assert got.io_count == want.io_count
            for (ids, dists), (oracle_ids, oracle_dists) in zip(got.results, want.results):
                assert ids.tolist() == oracle_ids.tolist()
                assert dists.tobytes() == oracle_dists.tobytes()


# -- QALSH ------------------------------------------------------------------------


@pytest.fixture(scope="module")
def qalsh_pair():
    data, queries = clustered(57, 1500, 20)
    index = QALSHIndex(data, seed=9)
    return index, ReferenceQALSH(index), queries


@pytest.mark.parametrize("k", [1, 10])
def test_qalsh_ratio_sweep_matches(qalsh_pair, k):
    index, oracle, queries = qalsh_pair
    for c in (3.0, 2.0, 1.5, 1.2):
        for query in queries:
            assert_same_answer(index.query(query, k=k, c=c), oracle.query(query, k=k, c=c))
    for got, query in zip(index.query_batch(queries, k=k, c=1.5), queries):
        assert_same_answer(got, oracle.query(query, k=k, c=1.5))


def test_qalsh_budget_truncates_a_round():
    """A tiny budget: the last round's candidates are cut at ``[:room]``."""
    data, queries = clustered(58, 800, 16)
    index = QALSHIndex(data, beta_count=7, seed=3, leaf_capacity=8)
    oracle = ReferenceQALSH(index)
    truncated = 0
    for query in queries:
        for k, c in ((1, 1.3), (3, 1.2), (3, 2.0)):
            got = index.query(query, k=k, c=c)
            assert_same_answer(got, oracle.query(query, k=k, c=c))
            truncated += got.stats.candidates_checked == index.beta_count + k - 1
    assert truncated


def test_qalsh_k_beyond_the_reachable_candidates():
    """k > n: T1 never fires, T2 never fills, the radius runs out."""
    data, queries = clustered(59, 40, 10, n_queries=3)
    index = QALSHIndex(data, seed=1, leaf_capacity=4)
    oracle = ReferenceQALSH(index)
    for query in queries:
        got = index.query(query, k=60, c=2.0)
        assert_same_answer(got, oracle.query(query, k=60, c=2.0))
        assert got.ids.size == index.n  # every object checked, still short of k
        assert sorted(got.ids.tolist()) == list(range(index.n))


def test_qalsh_duplicate_projections():
    data, queries = lattice(60, 600, 6)
    index = QALSHIndex(data, seed=5, leaf_capacity=8)
    oracle = ReferenceQALSH(index)
    for query in queries:
        for c in (2.0, 1.4):
            assert_same_answer(index.query(query, k=5, c=c), oracle.query(query, k=5, c=c))


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(2, 300),
    k=st.integers(1, 8),
    c=st.sampled_from([1.2, 1.5, 2.0, 3.0]),
    beta_count=st.integers(1, 120),
    leaf_capacity=st.integers(2, 40),
    grid=st.booleans(),
)
def test_property_qalsh_matches(seed, n, k, c, beta_count, leaf_capacity, grid):
    data, queries = (lattice if grid else clustered)(seed, n, 6, n_queries=2)
    index = QALSHIndex(data, beta_count=beta_count, seed=seed, leaf_capacity=leaf_capacity)
    oracle = ReferenceQALSH(index)
    for query in queries:
        assert_same_answer(index.query(query, k=k, c=c), oracle.query(query, k=k, c=c))


# -- hardened edge: NaN / inf queries -----------------------------------------------


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_queries_are_rejected_by_row(srs_pair, qalsh_pair, bad):
    for index, _, queries in (srs_pair, qalsh_pair):
        batch = queries.copy()
        batch[2, 1] = bad
        with pytest.raises(ValueError, match="queries row 2 has a NaN or infinite component"):
            index.query_batch(batch, k=1)
        with pytest.raises(ValueError, match="queries row 0 has a NaN or infinite component"):
            index.query(batch[2], k=1)
    index, _, queries = srs_pair
    storage = StorageSRS(index, MemoryBlockStore())
    query = queries[0].copy()
    query[0] = bad
    for task in (storage.query_task, storage.query_task_sync_order):
        with pytest.raises(ValueError, match="queries row 0 has a NaN or infinite component"):
            next(task(query, k=1, t_prime=10))
