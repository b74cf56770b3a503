"""The curated public surfaces of ``repro.core`` and ``repro.serving``.

Every name in ``__all__`` must resolve (including the PEP 562 lazy
loads), and the batch-first query API introduced with the vectorized
hot path must be reachable from the package roots.
"""

import importlib

import pytest


@pytest.mark.parametrize("package", ["repro.core", "repro.serving"])
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    assert sorted(set(module.__all__)) == sorted(module.__all__)
    for name in module.__all__:
        assert getattr(module, name) is not None


def test_unknown_attribute_raises():
    core = importlib.import_module("repro.core")
    with pytest.raises(AttributeError, match="no attribute"):
        core.not_a_thing


def test_batch_api_is_public():
    core = importlib.import_module("repro.core")
    assert "BatchResult" in core.__all__
    index_cls = core.E2LSHoSIndex
    assert callable(index_cls.query_tasks)
    assert callable(index_cls.run)
    serving = importlib.import_module("repro.serving")
    assert callable(serving.Shard.query_tasks)


# -- names the layered benchmark patches from outside -------------------------
#
# ``benchmarks/layered/layeredbench/layers.py`` wraps its spans by rebinding
# attributes *by name* and raises ``KeyError`` when one is gone.  A PR that
# claims a gain may not edit the benchmark, so a rename there is found in the
# benchmark run, minutes in.  These find it here, in a second.


def _patched_by_the_layered_benchmark():
    """``[(kind, owner, attribute)]`` for everything ``build_timer`` registers."""
    import sys
    from pathlib import Path

    layered = str(Path(__file__).resolve().parent.parent / "benchmarks" / "layered")
    if layered not in sys.path:
        sys.path.insert(0, layered)
    from layeredbench import layers
    from layeredbench.timer import LayerTimer

    seen = []

    class Recording(LayerTimer):
        def call_span(self, owner, attr, name, tap=None):
            seen.append(("call", owner, attr))
            super().call_span(owner, attr, name, tap)

        def generator_span(self, owner, attr, name):
            seen.append(("generator", owner, attr))
            super().generator_span(owner, attr, name)

        def task_span(self, owner, attr, name, resume_name, tap=None):
            seen.append(("tasks", owner, attr))
            super().task_span(owner, attr, name, resume_name, tap)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(layers, "LayerTimer", Recording)
        layers.build_timer()  # KeyError here: a patched name no longer exists
    return seen


def test_every_name_the_layered_benchmark_patches_exists_and_is_of_its_kind():
    import inspect
    import types

    import numpy as np

    from repro.core.e2lshos import E2LSHoSIndex
    from repro.core.params import E2LSHParams

    patched = _patched_by_the_layered_benchmark()
    assert len(patched) >= 40
    for kind, owner, attr in patched:
        raw = vars(owner)[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            raw = raw.__func__
        # A plain function or method: the timer calls ``make(raw)`` and rebinds.
        assert isinstance(raw, types.FunctionType), (owner, attr, raw)
        # Where the span covers a generator's resumptions, one must come back.
        assert inspect.isgeneratorfunction(raw) == (kind == "generator"), (owner, attr)
    assert [owner for kind, owner, _ in patched if kind == "tasks"] == [E2LSHoSIndex]
    data = np.random.default_rng(0).normal(size=(64, 4)).astype(np.float32)
    tasks = E2LSHoSIndex.build(data, E2LSHParams(n=64)).query_tasks(data[:3])
    assert len(tasks) == 3 and all(inspect.isgenerator(task) for task in tasks)


def test_the_one_request_forms_the_benchmark_spans_stay_public():
    """On engine-driven paths these spans now legitimately read 0 calls (a
    batch is booked, read and decoded in one call each), but the names are
    the benchmark's, and other callers still use them."""
    import repro.core.e2lshos as e2lshos
    import repro.layout.bucket as bucket
    from repro.storage.blockstore import BlockStore
    from repro.storage.device import StorageDevice
    from repro.storage.raid import StripedVolume

    assert vars(e2lshos)["decode_block"] is bucket.decode_block
    for owner, names in (
        (StripedVolume, ("submit", "submit_batch", "device_for")),
        (StorageDevice, ("submit", "submit_run")),
        (BlockStore, ("read", "read_many")),
        (bucket, ("decode_block", "decode_blocks")),
    ):
        assert all(callable(vars(owner)[name]) for name in names), owner


# -- every action has an interpreter ---------------------------------------------
#
# Tasks talk to two interpreters: ``EngineSession.step`` and the blocking
# page-cache walk of ``E2LSHoSIndex.run(mode="mmap_sync")``.  An action one of
# them does not know is a ``TypeError`` in the middle of a run.


def _actions():
    """``{exported action class: an instance that fits a 4 KiB store}``."""
    import typing

    import repro.storage.engine as engine

    examples = {
        engine.Compute: engine.Compute(120.0),
        engine.Read: engine.Read(512, 8),
        engine.ReadBatch: engine.ReadBatch([(0, 512), (1024, 8)]),
        engine.Write: engine.Write(512, 512),
        engine.WriteBatch: engine.WriteBatch([(0, 512), (2048, 512)]),
        engine.Segment: engine.Segment((120.0, 30.0), ((0, 512), (1024, 8))),
    }
    not_actions = {"Completion", "EngineResult", "EngineSession", "AsyncIOEngine", "TaskProfile"}
    exported = {
        vars(engine)[name]
        for name in engine.__all__
        if isinstance(vars(engine)[name], type) and name not in not_actions
    }
    # A class added to ``__all__`` is an action until it is listed above,
    # and the ``Task`` alias names exactly the actions.
    assert exported == set(examples)
    (yields, _, _) = typing.get_args(engine.Task)
    union = eval(getattr(yields, "__forward_arg__", yields), vars(engine))
    assert set(typing.get_args(union)) == exported
    return examples


def test_every_exported_action_is_accepted_by_both_interpreters():
    import numpy as np

    import repro.storage as storage
    from repro.core.e2lshos import E2LSHoSIndex
    from repro.core.params import E2LSHParams
    from repro.storage.engine import Write, WriteBatch
    from repro.storage.profiles import INTERFACE_PROFILES, make_engine, make_volume

    def task(action):
        sent = yield action
        return sent

    store = storage.MemoryBlockStore()
    store.allocate(4096)
    data = np.random.default_rng(0).normal(size=(64, 4)).astype(np.float32)
    index = E2LSHoSIndex.build(data, E2LSHParams(n=64), store=storage.MemoryBlockStore())
    for kind, action in _actions().items():
        assert getattr(storage, kind.__name__, kind) is kind
        for interface in ("io_uring", "mmap_sync"):
            result = make_engine(store, interface=interface).run([task(action)])
            assert result.makespan_ns > 0, kind
        # The page-cache walk drives whatever ``query_tasks`` plans.
        cache = storage.PageCache(
            volume=make_volume("cssd", 1),
            store=store,
            interface=INTERFACE_PROFILES["mmap_sync"],
            capacity_bytes=1 << 16,
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(index, "query_tasks", lambda queries, k, action=action: [task(action)])
            if kind in (Write, WriteBatch):  # query tasks only read; the cache models no writes
                with pytest.raises(TypeError, match="unsupported action"):
                    index.run(data[:1], mode="mmap_sync", cache=cache)
                continue
            walked = index.run(data[:1], mode="mmap_sync", cache=cache).engine
        assert walked.makespan_ns > 0, kind
        # Timing only or not, the cache sees every request.
        requests = 1 if kind is storage.Read else len(getattr(action, "requests", ()))
        assert walked.io_count == requests, kind
