"""Smoke tests for the experiment drivers at the small scale.

The benchmarks exercise the drivers fully at the default scale; these
tests pin the drivers' *interfaces* (row shapes, formatting, caching)
quickly so refactors are caught by ``pytest tests/`` alone.
"""

import pytest

from repro.experiments import common
from repro.experiments.config import SMALL_SCALE
from repro.experiments.tables import render_table


def test_render_table_alignment():
    text = render_table(["a", "bb"], [(1, 2.5), ("xyz", 0.001)], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert lines[1].startswith("a")
    assert len(lines) == 5


def test_dataset_and_truth_caching():
    first = common.dataset_for("sift", SMALL_SCALE)
    second = common.dataset_for("sift", SMALL_SCALE)
    assert first is second  # lru-cached
    truth = common.ground_truth_for("sift", SMALL_SCALE)
    assert truth.ids.shape == (SMALL_SCALE.n_queries, 100)


def test_params_for_ties_s_factor_to_gamma():
    loose = common.params_for("sift", 1000, gamma=1.2)
    tight = common.params_for("sift", 1000, gamma=0.4)
    assert tight.s_factor > loose.s_factor
    assert tight.m < loose.m
    assert tight.L == loose.L  # gamma never changes the index size


def test_tuned_e2lsh_structure():
    sweep = common.tuned_e2lsh("sift", SMALL_SCALE, k=1)
    assert len(sweep.tuned.runs) == len(SMALL_SCALE.gammas)
    assert sweep.tuned.selected in sweep.tuned.runs
    assert set(sweep.indices) == set(SMALL_SCALE.gammas)
    # The selected run carries per-query stats for the analysis layer.
    assert len(sweep.tuned.selected.stats) == SMALL_SCALE.n_queries


def test_time_at_ratio_interpolates_monotonically():
    sweep = common.tuned_e2lsh("sift", SMALL_SCALE, k=1)
    ratios = sorted(run.overall_ratio for run in sweep.tuned.runs)
    lo = common.time_at_ratio(sweep.tuned, ratios[0])
    hi = common.time_at_ratio(sweep.tuned, ratios[-1])
    mid = common.time_at_ratio(sweep.tuned, (ratios[0] + ratios[-1]) / 2)
    assert min(lo, hi) <= mid <= max(lo, hi)


def test_mean_stats_averages():
    sweep = common.tuned_e2lsh("sift", SMALL_SCALE, k=1)
    avg = common.mean_stats(sweep.tuned.selected.stats)
    assert avg.rungs_searched >= 1.0
    assert avg.n_io_infinite_block == pytest.approx(2 * avg.nonempty_buckets)
    with pytest.raises(ValueError):
        common.mean_stats([])


def test_built_e2lshos_shares_bank_with_sweep():
    sweep = common.tuned_e2lsh("sift", SMALL_SCALE, k=1)
    gamma = sweep.tuned.selected.knob
    index = common.built_e2lshos("sift", SMALL_SCALE, gamma, 512)
    expected_m = common.params_for("sift", index.params.n, gamma).m
    assert index.built.bank.m == expected_m
    # Bank reuse: the on-storage index hashes exactly like the tuned
    # in-memory index (prefix of the same projections).
    import numpy as np

    _, bank_full, ladder = common._e2lsh_indices("sift", SMALL_SCALE)
    np.testing.assert_array_equal(index.built.bank.a, bank_full.with_m(expected_m).a)
    assert index.ladder is ladder is sweep.ladder


def test_on_storage_index_is_built_once_for_every_k():
    """k changes the query, not the index: one build serves k=1 and k=10."""
    sweep = common.tuned_e2lsh("sift", SMALL_SCALE, k=1)
    gamma = sweep.tuned.selected.knob
    common.built_e2lshos.cache_clear()
    for k in (1, 10):
        result = common.run_e2lshos("sift", SMALL_SCALE, gamma, "cssd", 1, "io_uring", k=k)
        assert all(answer.ids.size == k for answer in result.answers)
    # The drivers that ask for the index itself (fig16, sec65, table6)
    # get that same object: there is one way to spell the call.
    direct = common.built_e2lshos("sift", SMALL_SCALE, gamma, 512)
    info = common.built_e2lshos.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    assert direct is common.built_e2lshos("sift", SMALL_SCALE, gamma, 512)
    for spelling in ({}, {"block_size": 512}, {"k": 10}):
        with pytest.raises(TypeError):
            common.built_e2lshos("sift", SMALL_SCALE, gamma, **spelling)


def test_run_e2lshos_repeat_tiles_queries():
    sweep = common.tuned_e2lsh("sift", SMALL_SCALE, k=1)
    gamma = sweep.tuned.selected.knob
    single = common.run_e2lshos("sift", SMALL_SCALE, gamma, "cssd", 1, "io_uring")
    doubled = common.run_e2lshos(
        "sift", SMALL_SCALE, gamma, "cssd", 1, "io_uring", repeat=2
    )
    assert len(doubled.answers) == 2 * len(single.answers)
