"""The layer table: which public callables the traced run wraps.

Span names are ``<layer>.<callable>``; every one reports ``.calls`` and
``.self_s``.  A name imported with ``from x import f`` is patched
*where it is looked up* (``decode_block`` lives in ``repro.core.e2lshos``
and ``repro.core.updates`` as well as in ``repro.layout.bucket``);
methods are rebound on their classes.

Known blind spots of measuring from outside (see README):
``_WavePlan.rung`` materialises lazily on first touch, so part of wave
planning lands in ``core.e2lshos.task_resume``; ``TimelineDevice`` and
``StallingDevice`` override ``submit`` and are not wrapped (no workload
here injects faults).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

import repro.baselines.bptree as bptree
import repro.baselines.qalsh as qalsh
import repro.baselines.rtree as rtree
import repro.baselines.srs as srs
import repro.core.collision as collision
import repro.core.e2lsh as e2lsh
import repro.core.e2lshos as e2lshos
import repro.core.lsh as lsh
import repro.core.params as params
import repro.core.updates as updates
import repro.datasets.registry as registry
import repro.eval.ground_truth as ground_truth
import repro.eval.ratio as ratio
import repro.layout.bucket as bucket
import repro.layout.builder as builder
import repro.layout.object_info as object_info
import repro.serving.dispatcher as dispatcher
import repro.serving.ingest as ingest
import repro.serving.scenario as scenario
import repro.serving.service as service
import repro.serving.sharding as sharding
import repro.storage.blockstore as blockstore
import repro.storage.device as device
import repro.storage.engine as engine
import repro.storage.raid as raid
from layeredbench.timer import LayerTimer

__all__ = ["Observed", "build_timer"]


@dataclass
class Observed:
    """Counts taken at the layer boundaries while the spans run."""

    query_rows: int = 0
    projected_rows: int = 0
    build_blocks: int = 0
    build_storage_bytes: int = 0
    #: Every ``EngineResult`` a session produced (one per session per run).
    engine_results: list[tuple[Any, float]] = field(default_factory=list)
    #: Every ``IndexUpdater`` that did maintenance work, by identity.
    updaters: dict[int, Any] = field(default_factory=dict)


def _rows(matrix: Any) -> int:
    array = np.asarray(matrix)
    return 1 if array.ndim == 1 else int(array.shape[0])


def build_timer() -> tuple[LayerTimer, Observed]:
    """A timer with every layer's targets registered (not yet installed)."""
    timer = LayerTimer()
    seen = Observed()

    def on_query_tasks(args: tuple, kwargs: dict, _: Any) -> None:
        seen.query_rows += _rows(kwargs["queries"] if "queries" in kwargs else args[1])

    def on_project_rows(args: tuple, kwargs: dict, _: Any) -> None:
        seen.projected_rows += _rows(kwargs["points"] if "points" in kwargs else args[1])

    def on_build(_: tuple, __: dict, built: Any) -> None:
        seen.build_blocks += built.stats.n_blocks
        seen.build_storage_bytes += built.stats.index_storage_bytes

    def on_session_result(args: tuple, _: dict, result: Any) -> None:
        seen.engine_results.append((result, args[0].engine.volume.max_iops))

    def on_update(args: tuple, _: dict, __: Any) -> None:
        seen.updaters[id(args[0])] = args[0]

    # datasets, eval
    for module in (registry, scenario):
        timer.call_span(module, "load_dataset", "datasets.load_dataset")
    timer.call_span(ground_truth, "exact_knn", "eval.exact_knn")
    timer.call_span(ratio, "overall_ratio", "eval.overall_ratio")
    # layout
    timer.call_span(builder.IndexBuilder, "build", "layout.IndexBuilder.build", tap=on_build)
    for module in (bucket, e2lshos, updates):
        timer.call_span(module, "decode_block", "layout.bucket.decode_block")
    timer.call_span(object_info.ObjectInfoCodec, "pack", "layout.object_info.pack")
    timer.call_span(object_info.ObjectInfoCodec, "unpack", "layout.object_info.unpack")
    # core.lsh, core.params
    timer.call_span(
        lsh.CompoundHashBank, "project_rows", "core.lsh.project_rows", tap=on_project_rows
    )
    timer.call_span(lsh.CompoundHashBank, "project", "core.lsh.project")
    for module in (collision, params):
        timer.call_span(module, "collision_probability", "core.collision.collision_probability")
    # core.e2lshos: planning, and the time inside the task bodies
    timer.task_span(
        e2lshos.E2LSHoSIndex,
        "query_tasks",
        "core.e2lshos.query_tasks",
        "core.e2lshos.task_resume",
        tap=on_query_tasks,
    )
    timer.call_span(
        updates.IndexUpdater, "insert_batch", "core.updates.insert_batch", tap=on_update
    )
    timer.call_span(updates.IndexUpdater, "delete", "core.updates.delete", tap=on_update)
    # storage
    timer.call_span(engine.EngineSession, "step", "storage.engine.step")
    timer.call_span(engine.EngineSession, "submit_batch", "storage.engine.submit_batch")
    timer.call_span(engine.EngineSession, "result", "storage.engine.result", tap=on_session_result)
    timer.call_span(raid.StripedVolume, "submit", "storage.raid.submit")
    timer.call_span(device.StorageDevice, "submit", "storage.device.submit")
    timer.call_span(blockstore.BlockStore, "read", "storage.blockstore.read")
    timer.call_span(blockstore.BlockStore, "write", "storage.blockstore.write")
    # serving
    timer.call_span(service.QueryService, "run_arrivals", "serving.service.run_arrivals")
    timer.call_span(scenario, "workload_arrivals", "serving.scenario.workload_arrivals")
    timer.call_span(scenario, "workload_updates", "serving.scenario.workload_updates")
    for attr in ("admit", "flush_due", "subquery_done", "admit_update"):
        timer.call_span(dispatcher.Dispatcher, attr, f"serving.dispatcher.{attr}")
    timer.call_span(sharding.ShardedIndex, "build", "serving.ShardedIndex.build")
    for attr in ("admit", "merge_task_done", "finish_answer"):
        timer.call_span(ingest.IngestCoordinator, attr, f"serving.ingest.{attr}")
    # in-memory E2LSH and the small-index baselines
    timer.call_span(e2lsh.E2LSHIndex, "__init__", "core.e2lsh.build")
    timer.call_span(e2lsh.E2LSHIndex, "query_batch", "core.e2lsh.query_batch")
    timer.call_span(srs.SRSIndex, "__init__", "baselines.srs.build")
    timer.call_span(srs.SRSIndex, "query_batch", "baselines.srs.query_batch")
    timer.call_span(qalsh.QALSHIndex, "__init__", "baselines.qalsh.build")
    timer.call_span(qalsh.QALSHIndex, "query_batch", "baselines.qalsh.query_batch")
    timer.generator_span(rtree.RTree, "incremental_nn", "baselines.rtree.incremental_nn")
    timer.call_span(bptree.BPlusTree, "window", "baselines.bptree.window")
    return timer, seen
