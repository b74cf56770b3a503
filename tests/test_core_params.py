"""Tests for repro.core.params (Eq. 5 + gamma scaling)."""

import math
from dataclasses import FrozenInstanceError, asdict, fields, replace

import numpy as np
import pytest

import repro.core.params as params_module
from repro.core.collision import collision_probability
from repro.core.e2lsh import E2LSHIndex
from repro.core.e2lshos import E2LSHoSIndex
from repro.core.params import E2LSHParams
from repro.storage.profiles import make_engine


def test_eq5_values():
    params = E2LSHParams(n=1_000_000, c=2.0, w=4.0, rho=0.3)
    # m = ceil(log_{1/p2} n) with p2 = p(2) ~ 0.6095.
    expected_m = math.ceil(math.log(1_000_000) / math.log(1 / params.p2))
    assert params.m == expected_m
    assert params.L == math.ceil(1_000_000**0.3)
    assert params.S == 2 * params.L


def test_gamma_scales_m_not_L():
    base = E2LSHParams(n=100_000, rho=0.3)
    scaled = base.with_gamma(0.5)
    assert scaled.L == base.L
    assert scaled.m == math.ceil(base.m * 0.5) or scaled.m == max(1, math.ceil(
        0.5 * math.log(100_000) / math.log(1 / base.p2)
    ))
    assert scaled.m < base.m


def test_s_factor():
    params = E2LSHParams(n=10_000, rho=0.3, s_factor=8.0)
    assert params.S == 8 * params.L
    assert params.with_s_factor(2.0).S == 2 * params.L


def test_probabilities_ordered():
    params = E2LSHParams(n=1000)
    assert 0 < params.p2 < params.p1 < 1


def test_success_probability_constant():
    assert E2LSHParams(n=10).success_probability == pytest.approx(0.5 - 1 / math.e)


def test_describe_mentions_core_values():
    text = E2LSHParams(n=1000, rho=0.3).describe()
    assert "n=1000" in text and "m=" in text and "L=" in text


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n": 0},
        {"n": 10, "c": 1.0},
        {"n": 10, "w": 0},
        {"n": 10, "rho": 0.0},
        {"n": 10, "rho": 1.0},
        {"n": 10, "gamma": 0},
        {"n": 10, "s_factor": 0},
    ],
)
def test_validation(kwargs):
    with pytest.raises(ValueError):
        E2LSHParams(**kwargs)


def test_explicit_overrides_replace_derived_values():
    base = E2LSHParams(n=4000, rho=0.32)
    overridden = E2LSHParams(
        n=1000, rho=0.32, m_explicit=base.m, L_explicit=base.L, S_explicit=7
    )
    assert overridden.m == base.m
    assert overridden.L == base.L
    assert overridden.S == 7
    # Without overrides a smaller n derives a smaller index.
    assert E2LSHParams(n=1000, rho=0.32).L < base.L


def test_explicit_overrides_validated():
    with pytest.raises(ValueError):
        E2LSHParams(n=10, m_explicit=0)
    with pytest.raises(ValueError):
        E2LSHParams(n=10, L_explicit=0)
    with pytest.raises(ValueError):
        E2LSHParams(n=10, S_explicit=0)


# -- derived values are resolved once per instance ---------------------------


def _fresh(params):
    """p1, p2, m, L, S computed from the fields the way the properties
    were before they were cached: ``norm.cdf`` on every read."""
    p1 = float(collision_probability(params.w))
    p2 = float(collision_probability(params.w / params.c))
    m = params.m_explicit
    if m is None:
        m = max(1, math.ceil(params.gamma * math.log(max(params.n, 2)) / math.log(1.0 / p2)))
    L = params.L_explicit
    if L is None:
        L = max(1, math.ceil(params.n**params.rho))
    S = params.S_explicit
    if S is None:
        S = max(1, math.ceil(params.s_factor * L))
    return p1, p2, m, L, S


@pytest.mark.parametrize(
    "params",
    [
        E2LSHParams(n=1),
        E2LSHParams(n=20_000, gamma=0.8),
        E2LSHParams(n=1_000_000, c=1.5, w=2.5, rho=0.45, gamma=1.3, s_factor=3.5),
        E2LSHParams(n=5_000, m_explicit=7, L_explicit=9),
        E2LSHParams(n=5_000, S_explicit=11),
    ],
)
def test_cached_values_equal_freshly_computed_ones(params):
    for _ in range(2):  # cold read, then the cached one
        assert (params.p1, params.p2, params.m, params.L, params.S) == _fresh(params)


def test_copies_start_cold_and_equality_ignores_the_cache():
    base = E2LSHParams(n=100_000, gamma=1.0)
    untouched = E2LSHParams(n=100_000, gamma=1.0)
    warm = (base.p1, base.p2, base.m, base.L, base.S)
    # Reading the derived values changed nothing observable.
    assert base == untouched and hash(base) == hash(untouched)
    assert asdict(base) == asdict(untouched)
    assert set(asdict(base)) == {f.name for f in fields(E2LSHParams)}
    assert repr(base) == repr(untouched)
    # Copies recompute from their own fields.
    for copy in (
        base.with_gamma(0.5),
        base.with_s_factor(5.0),
        replace(base, n=10),
        replace(base, w=2.0),
        replace(base, L_explicit=3),
    ):
        assert (copy.p1, copy.p2, copy.m, copy.L, copy.S) == _fresh(copy)
        assert copy != base
    assert base.with_gamma(0.5).m < base.m
    assert replace(base, w=2.0).p1 != base.p1
    assert (base.p1, base.p2, base.m, base.L, base.S) == warm
    # Still frozen.
    with pytest.raises(FrozenInstanceError):
        base.gamma = 2.0


def test_query_run_evaluates_collision_probability_a_constant_number_of_times(monkeypatch):
    """p1/p2 sat inside every query's rung loop (~9 ``norm.cdf`` calls
    per query); a 64-query run may now trigger at most the two cold
    reads, however many queries and rungs it has."""
    rng = np.random.default_rng(8)
    data = rng.normal(scale=3.0, size=(1500, 12)).astype(np.float32)
    queries = data[:64] + rng.normal(scale=0.05, size=(64, 12)).astype(np.float32)
    index = E2LSHoSIndex.build(data, E2LSHParams(n=1500, gamma=0.8), seed=5)
    calls = []
    monkeypatch.setattr(
        params_module,
        "collision_probability",
        lambda t: calls.append(t) or collision_probability(t),
    )
    engine = make_engine(index.built.store, "cssd", 1, "io_uring")
    result = index.run(queries, engine, k=3)
    assert sum(a.stats.rungs_searched for a in result.answers) >= 64
    assert len(calls) <= 2
    inmem = E2LSHIndex(data, replace(index.params, gamma=0.9), seed=5)
    calls.clear()
    inmem.query_batch(queries, k=3)
    assert len(calls) <= 2
