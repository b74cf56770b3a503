"""Tests for repro.serving.sharding."""

import numpy as np
import pytest

from repro.core.e2lsh import QueryAnswer
from repro.core.params import E2LSHParams
from repro.stats import QueryStats
from repro.datasets.registry import load_dataset
from repro.eval.ground_truth import exact_knn
from repro.eval.ratio import overall_ratio
from repro.serving.sharding import ShardedIndex, merge_answers, plan_shards


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("sift", n=1200, n_queries=8, seed=3)


@pytest.fixture(scope="module")
def params(dataset):
    return E2LSHParams(n=dataset.n, rho=0.32, gamma=0.6, s_factor=32.0)


def answer(ids, distances):
    return QueryAnswer(
        ids=np.asarray(ids, dtype=np.int64),
        distances=np.asarray(distances, dtype=np.float64),
        stats=QueryStats(),
    )


# -- plan_shards -------------------------------------------------------------


@pytest.mark.parametrize("scheme", ["hash", "range", "table"])
def test_plan_covers_all_units_disjointly(scheme):
    plan = plan_shards(100, 4, scheme=scheme, seed=5)
    members = [plan.members(s) for s in range(4)]
    combined = np.sort(np.concatenate(members))
    assert np.array_equal(combined, np.arange(100))
    assert plan.shard_sizes().sum() == 100


@pytest.mark.parametrize("scheme", ["hash", "range", "table"])
def test_plan_is_balanced(scheme):
    sizes = plan_shards(103, 4, scheme=scheme, seed=5).shard_sizes()
    assert sizes.max() - sizes.min() <= 1
    assert sizes.min() >= 1


def test_plan_is_deterministic():
    a = plan_shards(64, 4, scheme="hash", seed=9)
    b = plan_shards(64, 4, scheme="hash", seed=9)
    c = plan_shards(64, 4, scheme="hash", seed=10)
    assert np.array_equal(a.assignment, b.assignment)
    assert not np.array_equal(a.assignment, c.assignment)


def test_range_plan_is_contiguous():
    plan = plan_shards(100, 4, scheme="range")
    for s in range(4):
        members = plan.members(s)
        assert np.array_equal(members, np.arange(members[0], members[-1] + 1))


def test_plan_unit_semantics():
    assert plan_shards(10, 2, scheme="hash").unit == "object"
    assert plan_shards(10, 2, scheme="table").unit == "table"


def test_plan_validation():
    with pytest.raises(ValueError):
        plan_shards(3, 4)
    with pytest.raises(ValueError):
        plan_shards(10, 0)
    with pytest.raises(ValueError):
        plan_shards(10, 2, scheme="bogus")


# -- merge_answers -----------------------------------------------------------


def test_merge_selects_k_smallest_across_shards():
    merged = merge_answers(
        [answer([1, 2], [0.5, 3.0]), answer([3, 4], [0.1, 1.0])], k=3
    )
    assert merged.ids.tolist() == [3, 1, 4]
    assert merged.distances.tolist() == [0.1, 0.5, 1.0]


def test_merge_deduplicates_table_partitioned_answers():
    merged = merge_answers(
        [answer([7, 1], [0.2, 0.9]), answer([7, 2], [0.2, 0.4])], k=3
    )
    assert merged.ids.tolist() == [7, 2, 1]
    assert merged.distances.tolist() == [0.2, 0.4, 0.9]


def test_merge_accumulates_stats():
    a, b = answer([1], [1.0]), answer([2], [2.0])
    a.stats.ios_issued = 3
    b.stats.ios_issued = 4
    assert merge_answers([a, b], k=1).stats.ios_issued == 7


def test_merge_handles_empty_parts():
    merged = merge_answers([answer([], []), answer([5], [0.3])], k=2)
    assert merged.ids.tolist() == [5]


def test_merge_requires_parts():
    with pytest.raises(ValueError):
        merge_answers([], k=1)


# -- ShardedIndex ------------------------------------------------------------


@pytest.mark.parametrize("scheme", ["hash", "range", "table"])
def test_sharded_accuracy_matches_single_node(dataset, params, scheme):
    truth = exact_knn(dataset.data, dataset.queries, k=5)
    sharded = ShardedIndex.build(dataset.data, params, n_shards=3, scheme=scheme, seed=3)
    result = sharded.run(dataset.queries, k=5)
    ratio = overall_ratio([a.distances for a in result.answers], truth, k=5)
    assert ratio < 1.5
    assert all(a.ids.size == 5 for a in result.answers)


def test_sharded_answers_carry_global_ids(dataset, params):
    sharded = ShardedIndex.build(dataset.data, params, n_shards=3, scheme="hash", seed=3)
    result = sharded.run(dataset.queries, k=5)
    for query, a in zip(dataset.queries, result.answers):
        assert a.ids.min() >= 0 and a.ids.max() < dataset.n
        # Reported distances must be the true distances of the global IDs.
        diffs = dataset.data[a.ids].astype(np.float64) - query.astype(np.float64)
        expected = np.sqrt((diffs**2).sum(axis=1))
        assert np.allclose(a.distances, expected)


def test_object_shards_partition_storage(dataset, params):
    sharded = ShardedIndex.build(dataset.data, params, n_shards=3, scheme="hash", seed=3)
    sizes = [shard.index.built.params.n for shard in sharded.shards]
    assert sum(sizes) == dataset.n
    # Shared structure: every shard keeps the full dataset's L and m.
    assert all(shard.index.params.L == params.L for shard in sharded.shards)
    assert all(shard.index.params.m == params.m for shard in sharded.shards)


def test_table_shards_split_tables_and_keep_all_objects(dataset, params):
    sharded = ShardedIndex.build(dataset.data, params, n_shards=3, scheme="table", seed=3)
    assert sum(shard.index.params.L for shard in sharded.shards) == params.L
    assert all(shard.index.built.params.n == dataset.n for shard in sharded.shards)
    assert all(shard.global_ids is None for shard in sharded.shards)


def test_stop_k_quota():
    sharded = ShardedIndex.build(
        np.random.default_rng(0).standard_normal((200, 8)).astype(np.float32),
        E2LSHParams(n=200),
        n_shards=4,
        scheme="hash",
    )
    shard = sharded.shards[0]
    assert shard.stop_k(10) == 4  # ceil(10/4) + 1
    assert shard.stop_k(1) == 1  # never above k


def test_makespan_is_max_over_shards(dataset, params):
    sharded = ShardedIndex.build(dataset.data, params, n_shards=2, scheme="hash", seed=3)
    result = sharded.run(dataset.queries, k=3)
    assert result.makespan_ns == max(r.makespan_ns for r in result.shard_results)


def test_build_rejects_mismatched_params(dataset, params):
    with pytest.raises(ValueError):
        ShardedIndex.build(dataset.data, E2LSHParams(n=dataset.n + 1), n_shards=2)


def test_empty_shard_list_rejected():
    with pytest.raises(ValueError):
        ShardedIndex([], plan_shards(4, 2))
