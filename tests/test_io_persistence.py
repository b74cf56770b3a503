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
