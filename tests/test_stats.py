"""Tests for repro.stats (operation counters and query statistics)."""

import dataclasses

import pytest

from repro.stats import OpCounts, QueryStats


def test_opcounts_add_accumulates_every_field():
    a = OpCounts(
        projection_scalar_ops=1,
        distance_scalar_ops=2,
        candidate_fetches=3,
        bucket_lookups=4,
        tree_node_visits=5,
        btree_entry_scans=6,
        heap_ops=7,
        rounds=8,
    )
    b = OpCounts(projection_scalar_ops=10, rounds=1)
    a.add(b)
    assert a.projection_scalar_ops == 11
    assert a.rounds == 9
    assert a.heap_ops == 7


def _filled(cls, start):
    """An instance whose every field holds a distinct value, by ``dataclasses.fields``."""
    values = {}
    for offset, f in enumerate(dataclasses.fields(cls)):
        if f.type == "int":
            values[f.name] = start + offset
        elif f.type == "list[int]":
            values[f.name] = [start + offset, start]
        else:
            assert f.type == "OpCounts", f"teach this test about {cls.__name__}.{f.name}: {f.type}"
            values[f.name] = _filled(OpCounts, 10 * start)
    return cls(**values)


def _sum(a, b):
    """Ints add, lists concatenate, a nested record sums field by field."""
    return {key: _sum(a[key], b[key]) for key in a} if isinstance(a, dict) else a + b


@pytest.mark.parametrize("cls", [OpCounts, QueryStats])
def test_add_merge_and_copy_drop_no_field(cls):
    """``add`` / ``merge`` spell their fields out: one added later must be added there."""
    total, other = _filled(cls, 100), _filled(cls, 7000)
    expected = _sum(dataclasses.asdict(total), dataclasses.asdict(other))
    total.add(other) if cls is OpCounts else total.merge(other)
    assert dataclasses.asdict(total) == expected
    assert other == _filled(cls, 7000)
    if cls is QueryStats:
        twin = other.copy()
        assert twin == other
        twin.ops.rounds += 1
        twin.bucket_sizes_examined.append(0)
        assert other == _filled(cls, 7000)  # a copy shares nothing mutable


def test_opcounts_scaled_rounds_down():
    ops = OpCounts(candidate_fetches=5)
    assert ops.scaled(0.5).candidate_fetches == 2
    assert ops.scaled(2.0).candidate_fetches == 10


def test_query_stats_merge():
    a = QueryStats(rungs_searched=2, nonempty_buckets=3, bucket_sizes_examined=[1, 2])
    b = QueryStats(rungs_searched=1, nonempty_buckets=4, bucket_sizes_examined=[5])
    a.merge(b)
    assert a.rungs_searched == 3
    assert a.nonempty_buckets == 7
    assert a.bucket_sizes_examined == [1, 2, 5]


def test_n_io_infinite_block():
    stats = QueryStats(nonempty_buckets=13)
    assert stats.n_io_infinite_block == pytest.approx(26.0)
