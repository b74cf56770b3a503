"""Save and load E2LSHoS indices built over a :class:`FileBlockStore`.

The block store file holds the hash tables and bucket chains; this
module persists the *DRAM side* needed to query them again: the hash
bank (projections, offsets, mixers), the parameters and radius ladder,
and per-table metadata (base addresses, occupancy filters).  Everything
lands in one ``.npz`` next to the block store file, so an index built
once can serve queries across process restarts — the workflow a real
deployment of the paper's system would use.
"""

from __future__ import annotations

import json
import os

import numpy as np

from repro.core.e2lshos import E2LSHoSIndex
from repro.core.lsh import CompoundHashBank
from repro.core.params import E2LSHParams
from repro.core.radii import RadiusLadder
from repro.layout.builder import BuildStats, BuiltIndex, TableHandle
from repro.layout.hash_table import OnStorageHashTable
from repro.layout.object_info import ObjectInfoCodec
from repro.storage.blockstore import BlockStore

__all__ = ["save_index", "load_index"]

_FORMAT_VERSION = 1


def save_index(index: E2LSHoSIndex, path: str | os.PathLike[str]) -> None:
    """Write the index's DRAM-side state to ``path`` (an ``.npz``)."""
    built = index.built
    params = built.params
    meta = {
        "version": _FORMAT_VERSION,
        "params": {
            "n": params.n,
            "c": params.c,
            "w": params.w,
            "rho": params.rho,
            "gamma": params.gamma,
            "s_factor": params.s_factor,
        },
        "ladder": {"c": built.ladder.c, "radii": list(built.ladder.radii)},
        "block_size": built.block_size,
        "table_bits": built.codec.table_bits,
        "rungs": len(built.tables),
        "tables_per_rung": len(built.tables[0]) if built.tables else 0,
        "stats": {
            "n_tables": built.stats.n_tables,
            "n_buckets": built.stats.n_buckets,
            "n_blocks": built.stats.n_blocks,
            "table_bytes": built.stats.table_bytes,
            "bucket_bytes": built.stats.bucket_bytes,
        },
    }
    arrays: dict[str, np.ndarray] = {
        "bank_a": built.bank.a,
        "bank_b": built.bank.b,
        "bank_mixers": built.bank.mixers,
        "meta_json": np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
    }
    base_addresses = []
    for rung_index, rung in enumerate(built.tables):
        for li, handle in enumerate(rung):
            base_addresses.append(
                (handle.table.base_address, handle.n_buckets, handle.n_blocks, handle.bucket_bytes)
            )
            arrays[f"present_{rung_index}_{li}"] = handle.present_values
    arrays["table_records"] = np.asarray(base_addresses, dtype=np.int64)
    np.savez_compressed(os.fspath(path), **arrays)


def load_index(
    path: str | os.PathLike[str],
    store: BlockStore,
    data: np.ndarray,
) -> E2LSHoSIndex:
    """Reconstruct an index from ``path`` plus its block store and data.

    ``store`` must be the same block store (same bytes, same addresses)
    the index was built over, and ``data`` the same database vectors.
    """
    with np.load(os.fspath(path)) as payload:
        meta = json.loads(bytes(payload["meta_json"]).decode("utf-8"))
        if meta["version"] != _FORMAT_VERSION:
            raise ValueError(f"unsupported index format version {meta['version']}")
        params = E2LSHParams(**meta["params"])
        ladder = RadiusLadder(c=meta["ladder"]["c"], radii=tuple(meta["ladder"]["radii"]))
        bank = CompoundHashBank(
            a=payload["bank_a"],
            b=payload["bank_b"],
            mixers=payload["bank_mixers"],
            m=params.m,
            L=params.L,
            w=params.w,
        )
        data = np.ascontiguousarray(data, dtype=np.float32)
        if data.ndim != 2 or data.shape[1] != bank.d:
            raise ValueError(f"data has shape {data.shape}, the bank expects d={bank.d}")
        codec = ObjectInfoCodec(n_objects=params.n, table_bits=int(meta["table_bits"]))
        records = payload["table_records"]
        built = BuiltIndex(
            store=store,
            codec=codec,
            bank=bank,
            params=params,
            ladder=ladder,
            block_size=int(meta["block_size"]),
        )
        rungs = int(meta["rungs"])
        per_rung = int(meta["tables_per_rung"])
        if records.shape[0] != rungs * per_rung:
            raise ValueError("table record count does not match the ladder geometry")
        row = 0
        for rung_index in range(rungs):
            rung_tables = []
            for li in range(per_rung):
                base, n_buckets, n_blocks, bucket_bytes = (int(v) for v in records[row])
                table = OnStorageHashTable(store, codec.table_bits, base)
                name = f"present_{rung_index}_{li}"
                present = payload[name] if name in payload.files else None
                if present is None or present.dtype != np.uint32:
                    raise ValueError(f"{name} is missing or not a uint32 array")
                rung_tables.append(
                    TableHandle(
                        table=table,
                        present_values=present,
                        n_buckets=n_buckets,
                        n_blocks=n_blocks,
                        bucket_bytes=bucket_bytes,
                    )
                )
                row += 1
            built.tables.append(rung_tables)
        built.stats = BuildStats(**meta["stats"])
        if store.size_bytes < (needed := built.stats.index_storage_bytes):
            raise ValueError(f"block store holds {store.size_bytes} bytes, the index {needed}")
    return E2LSHoSIndex(built=built, data=data)
