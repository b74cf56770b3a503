"""Tests for repro.baselines.srs."""

import tracemalloc

import numpy as np
import pytest

from repro.baselines import srs as srs_module
from repro.baselines.linear_scan import LinearScanIndex
from repro.baselines.srs import SRSIndex


@pytest.fixture(scope="module")
def data_and_queries():
    rng = np.random.default_rng(41)
    n, d = 2000, 32
    centers = rng.normal(scale=5.0, size=(20, d))
    data = (centers[rng.integers(0, 20, n)] + rng.normal(scale=0.5, size=(n, d))).astype(
        np.float32
    )
    queries = (data[rng.integers(0, n, 10)] + rng.normal(scale=0.05, size=(10, d))).astype(
        np.float32
    )
    return data, queries


@pytest.fixture(scope="module")
def index(data_and_queries):
    return SRSIndex(data_and_queries[0], seed=9)


def test_exhaustive_budget_is_exact(data_and_queries, index):
    """With t_prime = n, SRS enumerates everything -> exact answers."""
    data, queries = data_and_queries
    exact = LinearScanIndex(data)
    for q in queries[:3]:
        answer = index.query(q, k=3, t_prime=data.shape[0])
        truth = exact.query(q, k=3)
        np.testing.assert_allclose(answer.distances, truth.distances, rtol=1e-5)


def test_accuracy_improves_with_budget(data_and_queries, index):
    data, queries = data_and_queries
    exact = LinearScanIndex(data)
    errors = []
    for budget in (5, 50, 500):
        total = 0.0
        for q in queries:
            answer = index.query(q, k=1, t_prime=budget)
            truth = exact.query(q, k=1)
            total += answer.distances[0] / max(truth.distances[0], 1e-9)
        errors.append(total)
    assert errors[0] >= errors[-1]


def test_budget_respected(data_and_queries, index):
    _, queries = data_and_queries
    answer = index.query(queries[0], k=1, t_prime=37)
    assert answer.stats.candidates_checked <= 37


def test_guarantee_mode_stops_early(data_and_queries, index):
    """Without t_prime the chi-squared test stops the scan early."""
    data, queries = data_and_queries
    answer = index.query(queries[0], k=1)
    assert answer.stats.candidates_checked < data.shape[0] / 10
    # The guarantee still holds empirically on easy data: within c=4.
    exact = LinearScanIndex(data).query(queries[0], k=1)
    assert answer.distances[0] <= 4.0 * exact.distances[0] + 1e-9


def test_ops_counters_populated(data_and_queries, index):
    _, queries = data_and_queries
    stats = index.query(queries[0], k=1, t_prime=100).stats
    assert stats.ops.tree_node_visits > 0
    assert stats.ops.heap_ops > 0
    assert stats.ops.distance_scalar_ops == stats.candidates_checked * index.d


def test_index_memory_is_tiny(data_and_queries, index):
    data, _ = data_and_queries
    # The "tiny index" property: far below the raw data in float64 terms.
    assert index.index_memory_bytes < data.nbytes * 2


def test_walk_memo_is_bounded(data_and_queries, index):
    """200 distinct queries at a large budget (a quarter of n): the memo stops at
    its walk cap and retains under 7 MB (measured 3.8 MB; without the cap 11.9 MB)."""
    data, _ = data_and_queries
    rng = np.random.default_rng(43)
    queries = data[rng.integers(0, data.shape[0], 200)] + rng.normal(scale=0.3, size=(200, 32))
    srs_module._WALKS.clear()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for query in queries:
            index.query(query.astype(np.float32), k=1, t_prime=500)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(srs_module._WALKS) == srs_module._MAX_WALKS == 64
    # Per walk: 40 B per recorded point + ~0.8 KB per visited leaf's cursor.
    assert retained < 7_000_000


def test_topk_sorted(data_and_queries, index):
    _, queries = data_and_queries
    answer = index.query(queries[0], k=5, t_prime=500)
    assert np.all(np.diff(answer.distances) >= 0)
    assert answer.ids.size == 5


def test_validation(data_and_queries, index):
    _, queries = data_and_queries
    with pytest.raises(ValueError):
        index.query(queries[0], k=0)
    with pytest.raises(ValueError):
        index.query(np.zeros(5, dtype=np.float32), k=1)
    with pytest.raises(ValueError):
        index.query(queries[0], k=5, t_prime=2)
    with pytest.raises(ValueError):
        SRSIndex(np.empty((0, 4)))
    with pytest.raises(ValueError):
        SRSIndex(np.zeros((10, 4)), m=0)
    with pytest.raises(ValueError):
        SRSIndex(np.zeros((10, 4)), c=1.0)
