"""Tests for repro.core.lsh (compound hash bank)."""

import numpy as np
import pytest

import repro.core.lsh as lsh
from repro.core.lsh import CompoundHashBank


@pytest.fixture(scope="module")
def bank():
    return CompoundHashBank.create(d=16, m=6, L=4, w=3.0, seed=21)


def test_deterministic_given_seed():
    a = CompoundHashBank.create(d=8, m=3, L=2, w=2.0, seed=1)
    b = CompoundHashBank.create(d=8, m=3, L=2, w=2.0, seed=1)
    np.testing.assert_array_equal(a.a, b.a)
    np.testing.assert_array_equal(a.mixers, b.mixers)
    c = CompoundHashBank.create(d=8, m=3, L=2, w=2.0, seed=2)
    assert not np.allclose(a.a, c.a)


def test_shapes(bank):
    rng = np.random.default_rng(0)
    points = rng.normal(size=(10, 16)).astype(np.float32)
    projections = bank.project(points)
    assert projections.shape == (10, 4 * 6)
    codes = bank.codes_for_radius(projections, radius=1.0)
    assert codes.shape == (10, 4, 6)
    values = bank.mix32(codes)
    assert values.shape == (10, 4)
    assert values.dtype == np.uint32


def test_identical_points_identical_hashes(bank):
    point = np.random.default_rng(3).normal(size=16).astype(np.float32)
    h1 = bank.hash_values(point, radius=2.0)
    h2 = bank.hash_values(point.copy(), radius=2.0)
    np.testing.assert_array_equal(h1, h2)


def test_radius_scales_bucket_width(bank):
    """At a huge radius everything collapses into the same bucket."""
    rng = np.random.default_rng(4)
    points = rng.normal(size=(50, 16)).astype(np.float32)
    tiny = bank.hash_values(points, radius=1e-6)
    huge = bank.hash_values(points, radius=1e9)
    # Tiny radius: essentially all points in distinct buckets.
    assert len(np.unique(tiny[:, 0])) > 40
    # Huge radius: all collide.
    assert len(np.unique(huge[:, 0])) == 1


def test_near_points_collide_more_than_far(bank):
    rng = np.random.default_rng(6)
    base = rng.normal(size=(400, 16)).astype(np.float32) * 5
    near = base + rng.normal(size=base.shape).astype(np.float32) * 0.01
    far = base + rng.normal(size=base.shape).astype(np.float32) * 5.0
    h_base = bank.hash_values(base, radius=1.0)
    near_rate = (bank.hash_values(near, radius=1.0) == h_base).mean()
    far_rate = (bank.hash_values(far, radius=1.0) == h_base).mean()
    assert near_rate > far_rate


def test_with_m_prefix_property(bank):
    """A prefix bank must produce codes equal to the full bank's prefix."""
    small = bank.with_m(3)
    assert small.m == 3 and small.L == bank.L
    rng = np.random.default_rng(8)
    points = rng.normal(size=(20, 16)).astype(np.float32)
    full_codes = bank.codes_for_radius(bank.project(points), 2.0)
    small_codes = small.codes_for_radius(small.project(points), 2.0)
    np.testing.assert_array_equal(small_codes, full_codes[:, :, :3])


def test_select_projection_columns_matches_projection(bank):
    rng = np.random.default_rng(9)
    points = rng.normal(size=(5, 16)).astype(np.float32)
    full = bank.project(points)
    small = bank.with_m(2)
    np.testing.assert_allclose(
        bank.select_projection_columns(full, 2), small.project(points), rtol=1e-6
    )


def test_select_projection_columns_is_a_row_major_prefix(bank):
    rng = np.random.default_rng(12)
    full = bank.project(rng.normal(size=(7, 16)).astype(np.float32))
    for m_new in range(1, bank.m):
        narrow = bank.select_projection_columns(full, m_new)
        assert narrow.flags.c_contiguous and narrow.shape == (7, bank.L * m_new)
        want = full.reshape(7, bank.L, bank.m)[:, :, :m_new].reshape(7, -1)
        np.testing.assert_array_equal(narrow, want)
        assert not np.shares_memory(narrow, full)
    # The full width is the input itself, not a copy of it.
    assert bank.select_projection_columns(full, bank.m) is full


@pytest.mark.parametrize("bad", [0, -1, 7, 12])
def test_select_projection_columns_rejects_widths_outside_the_bank(bank, bad):
    full = np.zeros((3, bank.L * bank.m))
    with pytest.raises(ValueError, match=rf"m_new must be in \[1, {bank.m}\], got {bad}"):
        bank.select_projection_columns(full, bad)
    with pytest.raises(ValueError, match=rf"m_new must be in \[1, {bank.m}\], got {bad}"):
        bank.with_m(bad)


def test_with_m_identity_and_validation(bank):
    assert bank.with_m(bank.m) is bank
    with pytest.raises(ValueError):
        bank.with_m(0)
    with pytest.raises(ValueError):
        bank.with_m(bank.m + 1)


def test_mix32_spreads_values(bank):
    """The universal mix should not cluster distinct codes."""
    rng = np.random.default_rng(10)
    points = rng.normal(size=(2000, 16)).astype(np.float32) * 10
    values = bank.hash_values(points, radius=0.01)[:, 0]
    # Near-unique inputs should map to near-unique 32-bit values.
    assert len(np.unique(values)) > 1990


def test_dimension_mismatch(bank):
    with pytest.raises(ValueError):
        bank.project(np.zeros((3, 5), dtype=np.float32))
    with pytest.raises(ValueError):
        bank.codes_for_radius(np.zeros((3, 24)), radius=0.0)
    with pytest.raises(ValueError):
        bank.mix32(np.zeros((3, 2, 2), dtype=np.int64))


def test_create_validation():
    with pytest.raises(ValueError):
        CompoundHashBank.create(d=0, m=1, L=1, w=1.0, seed=0)
    with pytest.raises(ValueError):
        CompoundHashBank.create(d=4, m=1, L=1, w=0.0, seed=0)


def test_select_tables_hashes_like_parent(bank):
    rng = np.random.default_rng(3)
    points = rng.normal(size=(20, 16)).astype(np.float32)
    full = bank.hash_values(points, radius=1.0)
    sliced = bank.select_tables([1, 3])
    assert sliced.L == 2 and sliced.m == bank.m
    np.testing.assert_array_equal(sliced.hash_values(points, radius=1.0), full[:, [1, 3]])


def test_select_tables_validation(bank):
    with pytest.raises(ValueError):
        bank.select_tables([])
    with pytest.raises(ValueError):
        bank.select_tables([0, 0])
    with pytest.raises(ValueError):
        bank.select_tables([bank.L])
    with pytest.raises(ValueError):
        bank.select_tables([-1])


# -- the fused, chunked hash kernel against the two-step form it replaces ----


def _two_step(bank, projections, radius):
    """The oracle: materialize lattice codes, then mix them."""
    return bank.mix32(bank.codes_for_radius(projections, radius))


CHUNK = lsh._HASH_CHUNK_ROWS


@pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7])
def test_hash_projections_is_bitwise_the_two_step_form(bank, n):
    rng = np.random.default_rng(n)
    projections = rng.normal(scale=40.0, size=(n, bank.L * bank.m))
    # Negative, signed-zero, just-below-an-integer and huge projections:
    # floor, the int64 cast and the uint64 reinterpretation must all
    # agree with the oracle (beyond +-2^63 both go through the same C
    # cast, whatever it yields on this platform).
    edge = np.array([-0.0, -1e-300, -1.0, -3.0 * bank.w, 2.0**52, -(2.0**62), 1e19, -1e19, 1e300])
    projections[-1, : edge.size] = edge
    projections[0, -edge.size :] = -edge
    with np.errstate(invalid="ignore"):
        for radius in (0.37, 1.0, 64.0):
            got = bank.hash_projections(projections, radius)
            want = _two_step(bank, projections, radius)
            assert got.dtype == want.dtype == np.uint32
            assert got.shape == want.shape == (n, bank.L)
            np.testing.assert_array_equal(got, want)


def test_hash_projections_on_derived_banks_and_strided_input(bank):
    rng = np.random.default_rng(5)
    points = rng.normal(scale=10.0, size=(CHUNK + 3, bank.d)).astype(np.float32)
    full = bank.project(points)
    narrow = bank.with_m(2)
    sliced = bank.select_tables([3, 0])
    for derived, projections in (
        (narrow, bank.select_projection_columns(full, 2)),
        (sliced, sliced.project(points)),
        # Non-contiguous source rows are fine: the kernel only reads
        # its input.
        (bank, np.asfortranarray(full)),
        (bank, full[::-1]),
    ):
        np.testing.assert_array_equal(
            derived.hash_projections(projections, 1.7), _two_step(derived, projections, 1.7)
        )
    # ... and it never writes to what it was handed.
    before = full.copy()
    bank.hash_projections(full, 0.5)
    np.testing.assert_array_equal(full, before)
    np.testing.assert_array_equal(
        bank.hash_values(points, 2.0), _two_step(bank, bank.project(points), 2.0)
    )


def test_hash_projections_validation(bank):
    projections = np.zeros((3, bank.L * bank.m))
    with pytest.raises(ValueError, match="radius must be positive"):
        bank.hash_projections(projections, 0.0)
    with pytest.raises(ValueError, match="projections must have shape"):
        bank.hash_projections(projections[:, :-1], 1.0)
    assert bank.hash_projections(projections[:0], 1.0).shape == (0, bank.L)
