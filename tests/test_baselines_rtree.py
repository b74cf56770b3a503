"""Tests for repro.baselines.rtree (SRS's R-tree substrate)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.rtree import NNCounters, RTree, _Node


@pytest.fixture(scope="module")
def tree_and_points():
    rng = np.random.default_rng(31)
    points = rng.normal(size=(500, 6))
    return RTree(points, leaf_capacity=16, fanout=4), points


def test_incremental_nn_yields_nondecreasing_distances(tree_and_points):
    tree, points = tree_and_points
    query = np.zeros(6)
    distances = [d for d, _ in zip_take(tree.incremental_nn(query), 100)]
    assert distances == sorted(distances)


def zip_take(iterator, n):
    out = []
    for item in iterator:
        out.append(item)
        if len(out) == n:
            break
    return out


def test_knn_matches_brute_force(tree_and_points):
    tree, points = tree_and_points
    rng = np.random.default_rng(7)
    for _ in range(5):
        query = rng.normal(size=6)
        result = tree.knn(query, k=10)
        ids = [obj for _, obj in result]
        exact = np.argsort(np.linalg.norm(points - query, axis=1))[:10]
        assert ids == exact.tolist()


def test_full_enumeration_visits_everything(tree_and_points):
    tree, points = tree_and_points
    counters = NNCounters()
    seen = [obj for _, obj in tree.incremental_nn(np.zeros(6), counters)]
    assert sorted(seen) == list(range(points.shape[0]))
    assert counters.node_visits == tree.n_nodes
    assert counters.points_returned == points.shape[0]


def test_counters_scale_with_depth(tree_and_points):
    tree, points = tree_and_points
    few = NNCounters()
    zip_take(tree.incremental_nn(np.zeros(6), few), 5)
    many = NNCounters()
    zip_take(tree.incremental_nn(np.zeros(6), many), 200)
    assert many.node_visits >= few.node_visits
    assert many.heap_ops > few.heap_ops


def test_counters_price_the_eager_search_at_every_yield(tree_and_points, monkeypatch):
    """``NNCounters`` is the model's eager search, whatever the host heap holds:
    one root push, one pop per page and point, one push per entry of a visited
    page — and a visited page is scored by exactly one kernel."""
    tree, _ = tree_and_points
    scored: list[int] = []
    kernel = _Node.entry_dist_sq

    def spy(node, query):
        scored.append(len(node.entries))
        return kernel(node, query)

    monkeypatch.setattr(_Node, "entry_dist_sq", spy)
    for query in (np.zeros(6), np.full(6, 3.0)):
        scored.clear()
        counters = NNCounters()
        for returned, _ in enumerate(tree.incremental_nn(query, counters), start=1):
            assert counters.points_returned == returned
            assert counters.node_visits == len(scored)
            assert counters.heap_ops == 1 + len(scored) + returned + sum(scored)
        assert counters.node_visits == tree.n_nodes


def test_single_point_tree():
    tree = RTree(np.array([[1.0, 2.0]]))
    assert tree.knn(np.zeros(2), k=1) == [(pytest.approx(np.sqrt(5.0)), 0)]


def test_validation():
    with pytest.raises(ValueError):
        RTree(np.empty((0, 3)))
    with pytest.raises(ValueError):
        RTree(np.zeros((5, 3)), leaf_capacity=0)
    tree = RTree(np.zeros((5, 3)))
    with pytest.raises(ValueError):
        tree.knn(np.zeros(2), k=1)
    with pytest.raises(ValueError):
        tree.knn(np.zeros(3), k=0)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(2, 120),
    m=st.integers(1, 8),
    k=st.integers(1, 10),
)
def test_property_incremental_nn_matches_brute_force(seed, n, m, k):
    rng = np.random.default_rng(seed)
    points = rng.uniform(-10, 10, size=(n, m))
    query = rng.uniform(-10, 10, size=m)
    tree = RTree(points, leaf_capacity=8, fanout=4)
    k = min(k, n)
    got = [obj for _, obj in tree.knn(query, k)]
    exact_order = np.argsort(np.linalg.norm(points - query, axis=1), kind="stable")[:k]
    exact_dists = np.linalg.norm(points[exact_order] - query, axis=1)
    got_dists = np.linalg.norm(points[got] - query, axis=1)
    np.testing.assert_allclose(got_dists, exact_dists, rtol=1e-9, atol=1e-9)
