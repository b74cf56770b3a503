"""Tests for repro.core.e2lsh (in-memory E2LSH)."""

import numpy as np
import pytest

from repro.core.e2lsh import E2LSHIndex, GroupedTable
from repro.core.params import E2LSHParams
from repro.baselines.linear_scan import LinearScanIndex


@pytest.fixture(scope="module")
def clustered():
    rng = np.random.default_rng(17)
    n, d = 3000, 24
    centers = rng.normal(scale=4.0, size=(30, d))
    data = (centers[rng.integers(0, 30, n)] + rng.normal(scale=0.4, size=(n, d))).astype(
        np.float32
    )
    queries = (data[rng.integers(0, n, 12)] + rng.normal(scale=0.05, size=(12, d))).astype(
        np.float32
    )
    return data, queries


@pytest.fixture(scope="module")
def index(clustered):
    data, _ = clustered
    params = E2LSHParams(n=data.shape[0], rho=0.35, gamma=0.8, s_factor=8)
    return E2LSHIndex(data, params, seed=2)


def test_finds_near_neighbors(clustered, index):
    data, queries = clustered
    exact = LinearScanIndex(data)
    hits = 0
    for q in queries:
        answer = index.query(q, k=1)
        assert answer.found
        truth = exact.query(q, k=1)
        # c^2-ANNS guarantee territory: returned distance within a small
        # factor of exact; mostly it IS the exact NN on clustered data.
        assert answer.distances[0] <= 4.0 * truth.distances[0] + 1e-6
        hits += int(answer.ids[0] == truth.ids[0])
    assert hits >= 8  # most queries recover the exact NN


def test_distances_sorted_and_consistent(clustered, index):
    data, queries = clustered
    answer = index.query(queries[0], k=5)
    assert np.all(np.diff(answer.distances) >= 0)
    for obj, dist in zip(answer.ids, answer.distances):
        true = np.linalg.norm(data[obj].astype(np.float64) - queries[0].astype(np.float64))
        assert dist == pytest.approx(true, rel=1e-6)


def test_topk_returns_at_most_k(clustered, index):
    _, queries = clustered
    for k in (1, 3, 10):
        answer = index.query(queries[1], k=k)
        assert answer.ids.size <= k
        assert answer.ids.size == np.unique(answer.ids).size


def test_stats_populated(clustered, index):
    _, queries = clustered
    stats = index.query(queries[2], k=1).stats
    assert stats.rungs_searched >= 1
    assert stats.buckets_probed >= index.params.L  # at least one rung's probes
    assert stats.ops.projection_scalar_ops > 0
    assert stats.candidates_checked == len(np.unique(stats.bucket_sizes_examined)) or (
        stats.candidates_checked > 0
    )
    assert stats.nonempty_buckets <= stats.buckets_probed


def test_candidate_budget_respected(clustered):
    data, queries = clustered
    params = E2LSHParams(n=data.shape[0], rho=0.35, gamma=0.8, s_factor=1.0)
    small_s = E2LSHIndex(data, params, seed=2)
    answer = small_s.query(queries[0], k=1)
    # Per-rung examined entries never exceed S.
    assert sum(answer.stats.bucket_sizes_examined) <= params.S * answer.stats.rungs_searched


def test_query_batch_matches_individual(clustered, index):
    _, queries = clustered
    batch = index.query_batch(queries[:3], k=2)
    for row, answer in zip(queries[:3], batch):
        np.testing.assert_array_equal(answer.ids, index.query(row, k=2).ids)


def test_deterministic_across_instances(clustered):
    data, queries = clustered
    params = E2LSHParams(n=data.shape[0], rho=0.3, gamma=1.0)
    a = E2LSHIndex(data, params, seed=5).query(queries[0], k=3)
    b = E2LSHIndex(data, params, seed=5).query(queries[0], k=3)
    np.testing.assert_array_equal(a.ids, b.ids)


def test_index_memory_accounting(index):
    per_table = index.tables[0][0].memory_bytes
    assert per_table > 0
    assert index.index_memory_bytes > index.ladder.rungs * index.params.L


def test_validation(clustered, index):
    data, queries = clustered
    with pytest.raises(ValueError):
        index.query(queries[0], k=0)
    with pytest.raises(ValueError):
        index.query(np.zeros(3, dtype=np.float32))
    with pytest.raises(ValueError):
        E2LSHIndex(data, E2LSHParams(n=17, rho=0.3))


def test_grouped_table_lookup():
    values = np.array([5, 5, 2, 9, 2, 2], dtype=np.uint32)
    table = GroupedTable(values)
    assert table.n_buckets == 3
    assert sorted(table.lookup(2).tolist()) == [2, 4, 5]
    assert sorted(table.lookup(5).tolist()) == [0, 1]
    assert table.lookup(7).size == 0
    np.testing.assert_array_equal(np.sort(table.bucket_sizes()), [1, 2, 3])


@pytest.mark.parametrize("poison", [np.nan, np.inf])
def test_query_batch_rejects_non_finite_rows_by_name(clustered, index, poison):
    _, queries = clustered
    bad = queries.copy()
    bad[7, 0] = poison
    with pytest.raises(ValueError, match="queries row 7 "):
        index.query_batch(bad, k=1)
