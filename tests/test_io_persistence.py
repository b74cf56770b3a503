"""Tests for repro.io.persistence (save/load an on-storage index)."""

import numpy as np
import pytest

from repro.core.e2lshos import E2LSHoSIndex
from repro.core.params import E2LSHParams
from repro.io.persistence import load_index, save_index
from repro.storage.blockstore import FileBlockStore
from repro.storage.engine import AsyncIOEngine
from repro.storage.profiles import INTERFACE_PROFILES, make_volume


@pytest.fixture
def built(tmp_path):
    rng = np.random.default_rng(103)
    n, d = 1000, 12
    data = (rng.normal(scale=3.0, size=(n, d))).astype(np.float32)
    queries = data[:6] + rng.normal(scale=0.02, size=(6, d)).astype(np.float32)
    params = E2LSHParams(n=n, rho=0.35, gamma=0.7, s_factor=8)
    store = FileBlockStore(tmp_path / "index.blocks")
    index = E2LSHoSIndex.build(data, params, store=store, seed=12)
    return tmp_path, data, queries, store, index


def answers_of(index, queries):
    engine = AsyncIOEngine(
        make_volume("cssd", 1), INTERFACE_PROFILES["io_uring"], index.built.store
    )
    return index.run(queries, engine, k=3).answers


def test_roundtrip_same_answers(built):
    tmp_path, data, queries, store, index = built
    before = answers_of(index, queries)
    save_index(index, tmp_path / "index.npz")

    # Reopen the block store cold, as a fresh process would.
    store.close()
    with FileBlockStore(tmp_path / "index.blocks") as reopened:
        assert reopened.size_bytes > 0
        loaded = load_index(tmp_path / "index.npz", reopened, data)
        after = answers_of(loaded, queries)
        for a, b in zip(before, after):
            np.testing.assert_array_equal(a.ids, b.ids)
            np.testing.assert_allclose(a.distances, b.distances, rtol=1e-7)


def test_roundtrip_preserves_metadata(built):
    tmp_path, data, queries, store, index = built
    save_index(index, tmp_path / "index.npz")
    loaded = load_index(tmp_path / "index.npz", store, data)
    assert loaded.params == index.params and hash(loaded.params) == hash(index.params)
    # The derived values resolve from the loaded fields, not from a
    # cache that travelled with the file.
    assert (loaded.params.m, loaded.params.L, loaded.params.S) == (
        index.params.m,
        index.params.L,
        index.params.S,
    )
    assert loaded.ladder.radii == index.ladder.radii
    assert loaded.storage_bytes == index.storage_bytes
    assert loaded.built.codec.table_bits == index.built.codec.table_bits
    np.testing.assert_array_equal(loaded.built.bank.a, index.built.bank.a)


def test_version_check(built, tmp_path):
    _, data, queries, store, index = built
    save_index(index, tmp_path / "index.npz")
    import json

    import numpy as np_mod

    with np_mod.load(tmp_path / "index.npz") as payload:
        arrays = {key: payload[key] for key in payload.files}
    meta = json.loads(bytes(arrays["meta_json"]).decode("utf-8"))
    meta["version"] = 999
    arrays["meta_json"] = np_mod.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np_mod.uint8
    )
    np_mod.savez_compressed(tmp_path / "bad.npz", **arrays)
    with pytest.raises(ValueError, match="version"):
        load_index(tmp_path / "bad.npz", store, data)


def _resave(source, target, **replaced):
    """Copy a saved index, replacing (or with ``None`` dropping) arrays."""
    with np.load(source) as payload:
        arrays = {key: payload[key] for key in payload.files}
    for key, value in replaced.items():
        if value is None:
            del arrays[key]
        else:
            arrays[key] = value
    np.savez_compressed(target, **arrays)
    return target


def test_truncated_block_store_is_rejected_at_load(built):
    tmp_path, data, queries, store, index = built
    save_index(index, tmp_path / "index.npz")
    store.close()
    whole = (tmp_path / "index.blocks").read_bytes()
    last_table = index.built.tables[-1][-1].table
    for keep, message in (
        # Cut inside the last table's slots, and inside its buckets.
        (last_table.base_address + 64, r"hash table spans \[\d+, \d+\), the block store holds"),
        (len(whole) - 100, "block store holds .* bytes, the index"),
    ):
        (tmp_path / "cut.blocks").write_bytes(whole[:keep])
        with FileBlockStore(tmp_path / "cut.blocks") as cut:
            with pytest.raises(ValueError, match=message):
                load_index(tmp_path / "index.npz", cut, data)


def test_data_of_the_wrong_shape_is_rejected_at_load(built):
    tmp_path, data, queries, store, index = built
    save_index(index, tmp_path / "index.npz")
    for wrong in (data[:, :6], np.hstack([data, data]), data[0]):
        with pytest.raises(ValueError, match=r"data has shape .*, the bank expects d=12"):
            load_index(tmp_path / "index.npz", store, wrong)
    with pytest.raises(ValueError, match="data has n=999, index expects 1000"):
        load_index(tmp_path / "index.npz", store, data[:-1])


def test_inconsistent_saved_arrays_are_rejected_at_load(built):
    tmp_path, data, queries, store, index = built
    saved = tmp_path / "index.npz"
    save_index(index, saved)
    bank = index.built.bank
    for replaced, message in (
        ({"bank_a": bank.a[:, :-1]}, "bank arrays .* do not fit m="),
        ({"bank_a": bank.a.reshape(-1)}, "bank arrays .* do not fit m="),
        ({"bank_b": bank.b[:-1]}, "bank arrays .* do not fit m="),
        ({"bank_mixers": bank.mixers.T}, "bank arrays .* do not fit m="),
        ({"present_0_1": None}, "present_0_1 is missing or not a uint32 array"),
        (
            {"present_2_0": index.built.tables[2][0].present_values.astype(np.int64)},
            "present_2_0 is missing or not a uint32 array",
        ),
    ):
        bad = _resave(saved, tmp_path / "bad.npz", **replaced)
        with pytest.raises(ValueError, match=message):
            load_index(bad, store, data)
