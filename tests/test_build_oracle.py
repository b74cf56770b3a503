"""Differential oracle: the per-rung build kernels against the per-table ones.

``reference_build`` holds ``GroupedTable.__init__`` and
``IndexBuilder.build`` / ``_build_table`` as they stood when every table
was grouped by its own stable argsort (and ``np.unique`` for the
occupancy filter).  Table arrays and stored index bytes are a contract —
figures, digests and the serving catalog replay from them — so
everything here must be *equal*, dtype included, not close.  The sort
NumPy dispatches to depends on the CPU and the NumPy build (AVX-512,
AVX2, scalar); CI runs this module on every Python version.
"""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_build import ReferenceGroupedTable, ReferenceIndexBuilder

from repro.core.e2lsh import E2LSHIndex, GroupedTable
from repro.core.lsh import CompoundHashBank
from repro.core.params import E2LSHParams
from repro.core.radii import RadiusLadder
from repro.layout.builder import IndexBuilder
from repro.storage.blockstore import MemoryBlockStore

UINT32_MAX = 2**32 - 1


def assert_same_table(got, want):
    for name in ("keys", "offsets", "ids"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


# -- grouping ---------------------------------------------------------------------


def key_matrices():
    """Named (n, L) uint32 key matrices covering the awkward shapes."""
    rng = np.random.default_rng(17)
    n = 257
    return {
        "all-equal": np.full((n, 3), 77, dtype=np.uint32),
        "all-distinct": rng.permutation(n * 2).astype(np.uint32).reshape(n, 2),
        "heavy-duplicates": rng.integers(0, 5, size=(n, 4)).astype(np.uint32),
        "extremes": rng.choice(np.array([0, 1, UINT32_MAX - 1, UINT32_MAX], dtype=np.uint32), (n, 3)),
        "high-bit-only": (rng.integers(0, 2, size=(n, 2)).astype(np.uint32) << np.uint32(31)),
        "random": rng.integers(0, 2**32, size=(n, 5), dtype=np.uint64).astype(np.uint32),
        "one-row": np.array([[5, UINT32_MAX, 0]], dtype=np.uint32),
        "one-table": rng.integers(0, 9, size=(n, 1)).astype(np.uint32),
        "empty": np.empty((0, 2), dtype=np.uint32),
    }


@pytest.mark.parametrize("name", sorted(key_matrices()))
def test_rung_grouping_equals_one_argsort_per_table(name):
    keys = key_matrices()[name]
    tables = GroupedTable.for_rung(keys)
    assert len(tables) == keys.shape[1]
    for li, table in enumerate(tables):
        want = ReferenceGroupedTable(keys[:, li])
        assert_same_table(table, want)
        # ... and the one-table constructor is the same code.
        assert_same_table(GroupedTable(keys[:, li]), want)
        assert_same_table(GroupedTable(np.ascontiguousarray(keys[:, li])), want)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 40),
    st.integers(1, 4),
    st.sampled_from([1, 3, 2**16, 2**32]),
    st.integers(0, 2**32 - 1),
)
def test_rung_grouping_property(n, n_tables, spread, seed):
    rng = np.random.default_rng(seed)
    low = rng.integers(0, spread, size=(n, n_tables), dtype=np.uint64)
    # Mix keys hugging both ends of the 32-bit range into every matrix.
    keys = np.where(rng.random((n, n_tables)) < 0.5, low, UINT32_MAX - low).astype(np.uint32)
    for li, table in enumerate(GroupedTable.for_rung(keys)):
        assert_same_table(table, ReferenceGroupedTable(keys[:, li]))


def test_rung_grouping_reads_any_layout_and_keeps_the_key_dtype():
    """The on-storage builder groups uint64 table slots through the same code."""
    rng = np.random.default_rng(3)
    keys = rng.integers(0, 7, size=(500, 6)).astype(np.uint32)
    keys[::9] = UINT32_MAX
    for matrix in (keys, keys.astype(np.uint64), np.asfortranarray(keys), keys[::-1], keys[:, ::2]):
        for li, table in enumerate(GroupedTable.for_rung(matrix)):
            assert table.keys.dtype == matrix.dtype
            assert_same_table(table, ReferenceGroupedTable(matrix[:, li]))


# -- on-storage build -------------------------------------------------------------


def build_both(n, d, rho, table_bits, block_size, seed):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=5.0, size=(6, d))
    data = (centers[rng.integers(0, 6, n)] + rng.normal(scale=0.5, size=(n, d))).astype(np.float32)
    params = E2LSHParams(n=n, rho=rho, gamma=0.7)
    ladder = RadiusLadder.for_data(data, params.c)
    built = []
    for builder_class in (IndexBuilder, ReferenceIndexBuilder):
        store = MemoryBlockStore()
        builder = builder_class(
            store, params, ladder, block_size=block_size, table_bits=table_bits, seed=seed
        )
        built.append((builder.build(data), store))
    return built


@pytest.mark.parametrize(
    ("n", "table_bits", "block_size"),
    [
        # 2^5 slots for 700 objects: many hash values per slot, and at
        # the wide rungs chains of several 64-byte blocks (10 entries).
        (700, 5, 64),
        # The default width and block size: mostly one-entry buckets.
        (1500, None, 512),
    ],
)
def test_stored_bytes_and_handles_equal_the_reference(n, table_bits, block_size):
    (got, store), (want, reference_store) = build_both(n, 12, 0.3, table_bits, block_size, seed=5)
    assert store.size_bytes == reference_store.size_bytes
    image, reference_image = bytes(store._buffer), bytes(reference_store._buffer)
    assert hashlib.sha256(image).digest() == hashlib.sha256(reference_image).digest()
    assert dataclasses.asdict(got.stats) == dataclasses.asdict(want.stats)
    assert len(got.tables) == len(want.tables) == got.ladder.rungs
    chains = collisions = 0
    for rung, reference_rung in zip(got.tables, want.tables):
        assert len(rung) == len(reference_rung) == got.params.L
        for handle, reference in zip(rung, reference_rung):
            assert handle.table.base_address == reference.table.base_address
            assert handle.table.table_bits == reference.table.table_bits
            assert handle.present_values.dtype == reference.present_values.dtype == np.uint32
            assert handle.present_values.tobytes() == reference.present_values.tobytes()
            assert (handle.n_buckets, handle.n_blocks, handle.bucket_bytes) == (
                reference.n_buckets,
                reference.n_blocks,
                reference.bucket_bytes,
            )
            chains += handle.n_blocks > handle.n_buckets
            collisions += handle.present_values.size > handle.n_buckets
    if table_bits == 5:
        # The setting is only worth its name if it really exercises both.
        assert chains > 0 and collisions > 0
    # Same bytes, fewer writes: the hash table goes out once, finished.
    assert store.write_count == 2 * got.stats.n_tables
    assert reference_store.write_count == 3 * got.stats.n_tables


# -- hashing ----------------------------------------------------------------------


def test_hash_prefixes_equal_one_prefix_bank_at_a_time():
    bank = CompoundHashBank.create(d=10, m=6, L=5, w=4.0, seed=23)
    rng = np.random.default_rng(29)
    # More rows than one kernel chunk, plus a ragged tail.
    points = rng.normal(scale=8.0, size=(2048 + 37, 10)).astype(np.float32)
    projections = bank.project(points)
    widths = [6, 1, 4, 2, 3, 5, 4]
    for radius in (0.3, 2.0):
        got = bank.hash_prefixes(projections, radius, widths)
        assert len(got) == len(widths)
        for m_new, values in zip(widths, got):
            narrow = bank.with_m(m_new)
            want = narrow.hash_projections(
                bank.select_projection_columns(projections, m_new), radius
            )
            assert values.dtype == want.dtype == np.uint32
            assert values.shape == want.shape and values.tobytes() == want.tobytes()
            # ... which is the bank's own two-step form.
            two_step = narrow.mix32(
                narrow.codes_for_radius(bank.select_projection_columns(projections, m_new), radius)
            )
            assert values.tobytes() == two_step.tobytes()
    assert bank.hash_prefixes(projections, 1.0, []) == []
    for bad in ([0], [7], [3, -1]):
        with pytest.raises(ValueError, match=r"widths must be in \[1, 6\]"):
            bank.hash_prefixes(projections, 1.0, bad)


# -- gamma sweep ------------------------------------------------------------------


def test_rung_outer_sweep_equals_one_index_per_gamma():
    rng = np.random.default_rng(41)
    n, d = 900, 14
    centers = rng.normal(scale=4.0, size=(7, d))
    data = (centers[rng.integers(0, 7, n)] + rng.normal(scale=0.5, size=(n, d))).astype(np.float32)
    queries = data[:12] + rng.normal(scale=0.05, size=(12, d)).astype(np.float32)
    gammas = (1.2, 0.5, 0.8, 1.2)
    params_list = [E2LSHParams(n=n, rho=0.3, gamma=gamma) for gamma in gammas]
    widest = max(params_list, key=lambda params: params.m)
    assert len({params.m for params in params_list}) == 3
    ladder = RadiusLadder.for_data(data, widest.c)
    bank = CompoundHashBank.create(d=d, m=widest.m, L=widest.L, w=widest.w, seed=9)
    projections = bank.project(data)

    swept = E2LSHIndex.for_gammas(data, params_list, ladder, bank)
    assert len(swept) == len(params_list)
    for params, index in zip(params_list, swept):
        single = E2LSHIndex(
            data,
            params,
            ladder=ladder,
            bank=bank.with_m(params.m),
            projections=bank.select_projection_columns(projections, params.m),
        )
        assert index.params is params and index.ladder is ladder
        assert (index.bank.m, index.bank.L) == (params.m, params.L)
        assert index.bank.a.tobytes() == single.bank.a.tobytes()
        assert len(index.tables) == len(single.tables) == ladder.rungs
        for rung, single_rung in zip(index.tables, single.tables):
            assert len(rung) == len(single_rung) == params.L
            for table, single_table in zip(rung, single_rung):
                assert_same_table(table, single_table)
                assert_same_table(table, ReferenceGroupedTable(_hash_column(table, n)))
        for got, want in zip(index.query_batch(queries, k=5), single.query_batch(queries, k=5)):
            assert got.ids.tolist() == want.ids.tolist()
            assert got.distances.tobytes() == want.distances.tobytes()
            assert dataclasses.asdict(got.stats) == dataclasses.asdict(want.stats)


def _hash_column(table, n):
    """The (n,) hash values a CSR table was grouped from."""
    values = np.empty(n, dtype=table.keys.dtype)
    values[table.ids] = np.repeat(table.keys, np.diff(table.offsets))
    return values


def test_sweep_rejects_a_width_the_bank_does_not_have():
    data = np.random.default_rng(2).normal(size=(50, 6)).astype(np.float32)
    params = E2LSHParams(n=50, rho=0.3)
    ladder = RadiusLadder.for_data(data, params.c)
    narrow = CompoundHashBank.create(d=6, m=params.m - 1, L=params.L, w=params.w, seed=1)
    with pytest.raises(ValueError, match="m_new must be in"):
        E2LSHIndex.for_gammas(data, [params], ladder, narrow)
