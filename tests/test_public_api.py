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
