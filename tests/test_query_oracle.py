"""Differential oracle: a batch as one operation against a batch taken apart.

Under the task body a ``ReadBatch`` / ``WriteBatch`` is one call per layer:
``StripedVolume.submit_batch`` books it (each device one ``submit_run`` over
its FIFO ring of channel free times), ``BlockStore.read_many`` reads it,
``decode_blocks`` parses a chain batch and ``_run_query`` filters it by
fingerprint and budget as array arithmetic.  The production tree has no
switch back.  What it replaced lives in ``tests/reference_query.py``,
verbatim: the channel heap, the per-request engine loop, the per-block chain
loop.  Everything compared here must be *equal* — ids, distance bytes, every
``QueryStats`` / ``OpCounts`` field and its type, every yielded action and
the payload sent back, ``EngineResult``, every completion time and every
``DeviceStats`` field.

The production tree has two bodies for a query's data plane: ``_run_query``
row by row, and from ``_TRACE_MIN_WAVE`` fresh rows on ``_trace_rows`` for a
batch of rows in lockstep at plan time, its tasks yielding ``Segment``s.
Every comparison of (a) runs under both (``BODIES``); the reference never
traces.  The spy notes a segment as the plain actions it stands for and
reads their payloads from the store, as the engine would have.

(a) chain batches: twin indices on 31-byte blocks (three entries each, so
    chains run several rounds) over exact duplicates, every budget from 1 to
    past the last match, with the named budget cases witnessed;
(b) booking: the ring against the heap and against the linear scan of
    ``tests/test_storage_device.py``, singles and runs, healthy and faulted,
    one device and a striped volume;
(c) the engine: mixed action kinds, 1 and 3 workers, both interface kinds,
    profiling on and off — and a bad batch books nothing.
"""

import copy
import dataclasses
import functools
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_query import (
    HeapDevice,
    HeapTimelineDevice,
    ReferenceEngine,
    ReferenceIndex,
)
from test_storage_device import TINY, _OracleDevice, _OracleTimelineDevice, _submission_stream
from test_updates_oracle import chains

import repro.core.e2lshos as e2lshos
from repro.core.e2lshos import E2LSHoSIndex
from repro.core.lsh import CompoundHashBank
from repro.core.params import E2LSHParams
from repro.core.updates import IndexUpdater
from repro.layout.bucket import BLOCK_HEADER_SIZE, NULL_ADDRESS, decode_block
from repro.layout.object_info import OBJECT_INFO_SIZE
from repro.serving.replication import TimelineDevice
from repro.storage.blockstore import MemoryBlockStore
from repro.storage.device import StorageDevice
from repro.storage.engine import (
    AsyncIOEngine,
    Compute,
    Read,
    ReadBatch,
    Segment,
    Write,
    WriteBatch,
)
from repro.storage.interface import StorageInterface
from repro.storage.profiles import DEVICE_PROFILES, INTERFACE_PROFILES
from repro.storage.raid import StripedVolume

D, BLOCK = 8, 31
CSSD = DEVICE_PROFILES["cssd"]
#: No multiple of this is a round number, so ``overhead * n`` and n additions
#: of it part ways within a few requests.
ODD = StorageInterface(name="odd", cpu_overhead_ns=333.3)
ODD_SYNC = StorageInterface(name="odd-sync", cpu_overhead_ns=1234.5, synchronous=True)


# -- (a) chain batches ---------------------------------------------------------------


def build(seed, copies, m, n_tables, table_bits):
    """An index over exact duplicates on an integer grid, tables 0 and 1 the
    same hash function.  Duplicates share every bucket and every fingerprint,
    so chains are long and full of matches; few slots per table put several
    grid points in one chain, so blocks with no match sit between them; and
    the projection matrix is rounded to 1/64, so every projection is exact in
    float32 and tables 0 and 1 agree whatever order BLAS sums in."""
    rng = np.random.default_rng(seed)
    grid = rng.integers(-6, 7, size=(len(copies), D)).astype(np.float32)
    data = np.repeat(grid, copies, axis=0)
    data = data[rng.permutation(data.shape[0])]
    params = E2LSHParams(n=data.shape[0], m_explicit=m, L_explicit=n_tables, S_explicit=8)
    bank = CompoundHashBank.create(D, m, n_tables, params.w, seed=seed)
    a, b, mixers = np.round(bank.a * 64) / 64, bank.b.copy(), bank.mixers.copy()
    a[:, m : 2 * m], b[m : 2 * m], mixers[1] = a[:, :m], b[:m], mixers[0]
    bank = CompoundHashBank(a=a.astype(np.float32), b=b, mixers=mixers, m=m, L=n_tables, w=bank.w)
    index = E2LSHoSIndex.build(
        data, params, store=MemoryBlockStore(), block_size=BLOCK, table_bits=table_bits,
        seed=seed, bank=bank,
    )
    return grid, index


@functools.cache
def crafted():
    """(grid, pristine index, the same index after deletes).  The deletes take
    one whole block out of the middle of a long chain (it stays linked, count
    0) and single entries out of others (the shrunken record is written over
    the old one, so the last entry's bytes stay behind past the count)."""
    grid, index = build(20, (14, 9, 7, 5, 4, 3, 3, 2, 1, 1, 1, 1), m=3, n_tables=4, table_bits=2)
    longest = max(chains(index).values(), key=len)
    assert len(longest) >= 5
    doomed = longest[len(longest) // 2][0] + [longest[1][0][0], longest[-2][0][1]]
    cut = copy.deepcopy(index)
    IndexUpdater(cut).delete(sorted(set(doomed)))
    return grid, index, cut


def twins(index, budget=None):
    """Production and reference query paths over one built index."""
    built = index.built
    if budget is not None:
        built = dataclasses.replace(
            built, params=dataclasses.replace(built.params, S_explicit=budget)
        )
    return (
        E2LSHoSIndex(built, index.data, index.machine),
        ReferenceIndex(built, index.data, index.machine),
    )


def engines(store, count=1, interface=INTERFACE_PROFILES["io_uring"], profile=CSSD):
    """A production engine over ring devices, a reference engine over heap devices."""
    return (
        AsyncIOEngine(StripedVolume.of(profile, count, BLOCK), interface, store),
        ReferenceEngine(
            StripedVolume([HeapDevice(profile) for _ in range(count)], BLOCK), interface, store
        ),
    )


#: ``_TRACE_MIN_WAVE`` under which every wave is traced / none is.
BODIES = {"traced": 1, "live": sys.maxsize}


def spy(task, log, store):
    """Pass ``task`` through, noting each yielded action and the payload sent
    back — a ``Segment`` as its plain actions, payloads read from ``store``."""
    value = None
    while True:
        try:
            action = task.send(value)
        except StopIteration as stop:
            return stop.value
        value = yield action
        if isinstance(action, Segment):
            assert value is None
            for plain in action.expand():
                reads = type(plain) is ReadBatch
                log.append((plain, store.read_many(plain.requests) if reads else None))
        else:
            log.append((action, value))


def drive(index, engine, queries, workers=1, **kwargs):
    logs = [[] for _ in range(len(queries))]
    tasks = index.query_tasks(queries, **kwargs)
    tasks = [spy(task, log, index.built.store) for task, log in zip(tasks, logs)]
    result = engine.run(tasks, workers=workers)
    return result, logs, [device.stats for device in engine.volume.devices]


def assert_same(got, want):
    (result, logs, devices), (ref_result, ref_logs, ref_devices) = got, want
    assert logs == ref_logs  # every action, every payload, in order
    for answer, ref in zip(result.results, ref_result.results, strict=True):
        assert answer.ids.dtype == ref.ids.dtype == np.int64
        assert answer.ids.tolist() == ref.ids.tolist()
        # Bytes: one ``einsum`` over many rows' candidates is one per row.
        assert answer.distances.dtype == ref.distances.dtype == np.float64
        assert answer.distances.tobytes() == ref.distances.tobytes()
        # json: equal values in equal order, and plain ints (a NumPy scalar raises).
        assert json.dumps(dataclasses.asdict(answer.stats)) == json.dumps(
            dataclasses.asdict(ref.stats)
        )
    # ``results`` hold arrays (compared above); the rest is makespan, finish
    # times, every counter and the merged device statistics.
    assert dataclasses.replace(result, results=[]) == dataclasses.replace(ref_result, results=[])
    assert devices == ref_devices


def compare(index, queries, budget=None, count=1, workers=1, cells=None, **kwargs):
    """Both production bodies against the reference; ``cells`` is the traced
    body's bitmap budget (rows per batch times objects).  Returns the traced run."""
    _, old = twins(index, budget)
    want = drive(old, engines(index.built.store, count)[1], queries, workers, **kwargs)
    distinct = len({row.tobytes() for row in np.asarray(queries, dtype=np.float32)})
    for body in ("live", "traced"):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(e2lshos, "_TRACE_MIN_WAVE", BODIES[body])
            if cells is not None:
                patch.setattr(e2lshos, "_TRACE_BITMAP_CELLS", cells)
            new, _ = twins(index, budget)
            got = drive(new, engines(index.built.store, count)[0], queries, workers, **kwargs)
        assert_same(got, want)
        info = new.query_cache_info()
        assert info["traced"] == (distinct if body == "traced" else 0)
        assert sum(info[how] for how in ("live", "recorded", "traced", "replayed")) == len(queries)
    return got


def first_round(index, query, log):
    """(fingerprint matches, has_next) per block of the query's first chain batch."""
    built = index.built
    (slots, raw_heads), (_, raws) = [entry for entry in log if type(entry[0]) is ReadBatch][:2]
    radius = next(iter(built.ladder))
    hashes = built.bank.hash_projections(built.bank.project_rows(query[None, :]), radius)
    fingerprints = built.codec.split_hash(hashes)[1][0]
    probed = [
        next(
            li
            for li, handle in enumerate(built.tables[0])
            if 0 <= address - handle.table.base_address < handle.table.size_bytes
        )
        for address, _ in slots.requests
    ]
    chained = [
        li for li, raw in zip(probed, raw_heads) if int.from_bytes(raw, "little") != NULL_ADDRESS
    ]
    blocks = [decode_block(built.codec, raw) for raw in raws]
    matches = [int((b.fingerprints == fingerprints[li]).sum()) for b, li in zip(blocks, chained)]
    return matches, [block.has_next for block in blocks], fingerprints, chained


def test_tables_0_and_1_share_every_fingerprint_and_deletes_left_their_marks():
    grid, index, cut = crafted()
    _, _, fingerprints, chained = first_round(index, grid[0], compare(index, grid[:1])[1][0])
    assert {0, 1} <= set(chained) and fingerprints[0] == fingerprints[1]
    blocks = [block for chain in chains(cut).values() for block in chain[:-1]]
    assert any(not ids for ids, _ in blocks), "no emptied block is still linked"
    before = sum(len(ids) for chain in chains(index).values() for ids, _ in chain)
    after = sum(len(ids) for chain in chains(cut).values() for ids, _ in chain)
    assert after < before


@pytest.mark.parametrize("which", ["pristine", "cut"])
def test_every_budget_from_one_to_past_the_last_match(which):
    """Budgets 1, 2, ... hit every way a budget can run out in every round:
    inside a block, at a block's end, at the batch's end, never."""
    grid, index, cut = crafted()
    index = cut if which == "cut" else index
    queries = np.vstack([grid, grid[:4] + np.float32(0.25)])
    _, logs, _ = compare(index, queries, budget=10_000)
    rounds = max(sum(type(action) is ReadBatch for action, _ in log) for log in logs)
    assert rounds >= 8, "chains are too short to run several rounds"
    for budget in range(1, index.data.shape[0] * index.built.params.L + 2):
        compare(index, queries, budget=budget)


def test_the_named_budget_cases_are_met():
    grid, index, _ = crafted()
    _, logs, _ = compare(index, grid, budget=10_000)
    rounds = [first_round(index, query, log)[:2] for query, log in zip(grid, logs)]
    # Somewhere a block without a match is examined before one with matches...
    assert any(0 in matches[: np.flatnonzero(matches)[-1]] for matches, _ in rounds if any(matches))
    # ...and one query's first batch can run out of budget in every named way.
    row = next(
        row for row, (matches, _) in enumerate(rounds) if matches[-1] and max(matches[1:]) >= 2
    )
    query, (matches, has_next) = grid[row : row + 1], rounds[row]
    cum = np.cumsum(matches).tolist()
    assert len(matches) >= 3
    inside = next(j for j in range(1, len(matches)) if matches[j] >= 2)
    at_end = next(j for j in range(len(matches) - 1) if matches[j] and has_next[j])
    cases = {
        "inside block": cum[inside] - 1,
        "at a block's end, chain goes on": cum[at_end],
        "at the batch's end": cum[-1],
        "never": 10_000,
    }
    assert matches[-1] and len(set(cases.values())) == 4
    examined = {}
    for case, budget in cases.items():
        (answer,) = compare(index, query, budget=budget)[0].results
        examined[case] = answer.stats.bucket_blocks_read
    # An exhausted budget stops the walk where it ran out; a larger one reads on.
    assert examined["inside block"] == inside + 1
    assert examined["at a block's end, chain goes on"] == at_end + 1
    assert examined["at the batch's end"] == len(matches)
    assert examined["never"] > len(matches)


@pytest.mark.parametrize("which", ["pristine", "cut"])
def test_k_past_n_an_id_map_a_stop_k_and_three_workers_on_four_devices(which):
    grid, index, cut = crafted()
    index = cut if which == "cut" else index
    n = index.data.shape[0]
    id_map = 5000 - np.arange(n, dtype=np.int64)
    result, _, _ = compare(index, grid, budget=9, count=4, workers=3, k=n + 5, id_map=id_map)
    assert max(answer.ids.size for answer in result.results) > 3
    assert min(answer.ids.min() for answer in result.results) > 5000 - n
    compare(index, grid, budget=7, k=6, stop_k=2, id_map=id_map)
    compare(index, grid, budget=7, k=2, stop_k=5, workers=2)


def both_bodies_raise(index, queries, message):
    for min_wave in BODIES.values():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(e2lshos, "_TRACE_MIN_WAVE", min_wave)
            new, _ = twins(index)
            with pytest.raises(ValueError, match=message):
                drive(new, engines(index.built.store)[0], queries)


def test_a_corrupt_count_is_a_named_value_error():
    grid, index, _ = crafted()
    index = copy.deepcopy(index)
    log = compare(index, grid[:1], budget=10_000)[1][0]
    batch = [action for action, _ in log if type(action) is ReadBatch][1]
    address, _ = batch.requests[1]
    index.built.store.write(address + 8, (99).to_bytes(2, "little"))
    both_bodies_raise(index, grid[:1], "block 1 of the batch claims 99 entries but is only 31")
    _, old = twins(index)
    with pytest.raises(ValueError, match="block claims 99 entries but is only 31 bytes"):
        drive(old, engines(index.built.store)[1], grid[:1])


def test_a_stored_id_past_the_data_is_a_named_value_error():
    """An id the codec can hold but the data cannot (corrupt block, store and
    data out of step): refused before anything is scored, not an
    ``IndexError`` from the seen-bitmap, nor a mark in the next row's."""
    grid, index, _ = crafted()
    index = copy.deepcopy(index)
    store, codec, n = index.built.store, index.built.codec, index.data.shape[0]
    assert n + 3 < 1 << codec.id_bits
    log = compare(index, grid[:1], budget=10_000)[1][0]
    matches, _, fingerprints, chained = first_round(index, grid[0], log)
    batch = [action for action, _ in log if type(action) is ReadBatch][1]
    at = next(j for j, count in enumerate(matches) if count)
    address, _ = batch.requests[at]
    block = decode_block(codec, store.read(address, BLOCK))
    entry = int(np.flatnonzero(block.fingerprints == fingerprints[chained[at]])[-1])
    stray = codec.pack(np.array([n + 3]), block.fingerprints[entry : entry + 1])
    store.write(address + BLOCK_HEADER_SIZE + entry * OBJECT_INFO_SIZE, stray)
    message = f"block at {address} holds object id {n + 3}; the index has {n} objects"
    both_bodies_raise(index, grid[:1], message)
    both_bodies_raise(index, np.vstack([grid[3:6], grid[:1]]), message)
    _, old = twins(index)
    with pytest.raises(IndexError):
        drive(old, engines(store)[1], grid[:1])


@functools.cache
def drawn(seed):
    """A random duplicate-heavy index, a third of its objects deleted."""
    rng = np.random.default_rng(seed)
    copies = tuple(int(c) for c in rng.geometric(0.25, size=int(rng.integers(6, 14))))
    grid, index = build(
        seed, copies, m=int(rng.integers(2, 5)), n_tables=int(rng.integers(2, 6)),
        table_bits=int(rng.integers(1, 4)),
    )
    n = index.data.shape[0]
    IndexUpdater(index).delete(rng.choice(n, size=n // 3, replace=False))
    return grid, index


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 5),
    budget=st.integers(1, 40),
    k=st.integers(1, 12),
    stop_k=st.none() | st.integers(1, 12),
    mapped=st.booleans(),
    workers=st.integers(1, 3),
    count=st.sampled_from([1, 3]),
    jitter=st.sampled_from([0.0, 0.25, 1.0]),
)
def test_drawn_indices_budgets_and_task_shapes(
    seed, budget, k, stop_k, mapped, workers, count, jitter
):
    grid, index = drawn(seed)
    id_map = 9000 + np.arange(index.data.shape[0], dtype=np.int64)[::-1] if mapped else None
    queries = grid + np.float32(jitter)
    compare(index, queries, budget, count, workers, k=k, stop_k=stop_k, id_map=id_map)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 5),
    picks=st.lists(st.integers(0, 40), min_size=1, max_size=14),
    tiles=st.integers(1, 3),
    min_wave=st.integers(1, 8),
    rows_per_batch=st.integers(1, 5),
    budget=st.integers(1, 40),
    k=st.integers(1, 6),
    workers=st.integers(1, 2),
)
def test_drawn_wave_shapes_around_the_trace_threshold_and_the_row_batch_boundary(
    seed, picks, tiles, min_wave, rows_per_batch, budget, k, workers
):
    """Waves of 1-14 distinct-or-not rows, tiled as ``run_e2lshos(repeat>1)``
    tiles them, against thresholds 1-8 and row batches of 1-5: below, at and
    above the threshold, a last batch of one row, duplicates across batches."""
    grid, index = drawn(seed)
    pool = np.vstack([grid, grid + np.float32(0.25), grid + np.float32(1.0)])
    queries = np.tile(pool[[pick % len(pool) for pick in picks]], (tiles, 1))
    distinct = len({row.tobytes() for row in queries})
    _, old = twins(index, budget)
    want = drive(old, engines(index.built.store)[1], queries, workers, k=k)
    batches, real = [], E2LSHoSIndex._trace_rows

    def trace_rows(index, plan, entries):
        batches.append([entry.row for entry in entries])
        real(index, plan, entries)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(e2lshos, "_TRACE_MIN_WAVE", min_wave)
        patch.setattr(e2lshos, "_TRACE_BITMAP_CELLS", rows_per_batch * index.data.shape[0])
        patch.setattr(E2LSHoSIndex, "_trace_rows", trace_rows)
        new, _ = twins(index, budget)
        got = drive(new, engines(index.built.store)[0], queries, workers, k=k)
    assert_same(got, want)
    info = new.query_cache_info()
    if distinct >= min_wave:  # every first sight traced, every duplicate a replay of it
        assert (info["traced"], info["replayed"]) == (distinct, len(queries) - distinct)
        assert info["live"] == info["recorded"] == 0
        # Each distinct row once, in batches the bitmap's cell budget holds.
        assert sum(batches, []) == list(range(distinct))
        assert max(map(len, batches)) <= rows_per_batch
    else:
        assert info["traced"] == info["replayed"] == 0 and not batches
        assert info["live"] + info["recorded"] == len(queries)


def test_one_traced_wave_holds_rows_that_part_ways():
    """What lockstep must keep apart, witnessed in single waves: rows that
    stop at different rungs, a row whose budget runs out inside a block
    beside one whose budget outlasts the round, and a row with no candidate."""
    grid, index, _ = crafted()
    far = np.full((1, D), 1e6, dtype=np.float32)
    queries = np.vstack([grid, far, grid[:4] + np.float32(0.25)])
    mid_block_beside_ample = 0
    for budget in range(1, 31):
        cells = 5 * index.data.shape[0]  # rows traced five at a time
        result, logs, _ = compare(index, queries, budget=budget, cells=cells, k=3)
        nobody = result.results[len(grid)]
        assert nobody.ids.size == nobody.distances.size == nobody.stats.candidates_checked == 0
        assert (nobody.ids.dtype, nobody.distances.dtype) == (np.int64, np.float64)
        assert len({answer.stats.rungs_searched for answer in result.results}) >= 3
        fates = []
        for query, log in zip(grid, logs):
            cum = np.cumsum(first_round(index, query, log)[0]).tolist()
            inside = any(before < budget < after for before, after in zip([0] + cum, cum))
            fates.append("inside" if inside else "ample" if cum[-1] < budget else "other")
        pairs = set(zip(fates, fates[1:]))
        mid_block_beside_ample += ("inside", "ample") in pairs and ("ample", "inside") in pairs
    assert mid_block_beside_ample >= 3


# -- (b) booking -----------------------------------------------------------------------


def chunked(rng, stream):
    """The stream cut into single submissions and runs of 2-16."""
    at, out = 0, []
    while at < len(stream):
        size = 1 if rng.random() < 0.4 else int(rng.integers(2, 17))
        out.append(stream[at : at + size])
        at += size
    return out


def book(device, chunk, single):
    if single:
        return [device.submit(*chunk[0])]
    return device.submit_run(chunk)


@pytest.mark.parametrize("profile", [CSSD, TINY], ids=lambda p: p.name)
def test_ring_booking_equals_heap_and_linear_scan_booking(profile):
    rng = np.random.default_rng(7)
    stream = _submission_stream(np.random.default_rng(41), 60_000, profile)
    ring, heap, scan = StorageDevice(profile), HeapDevice(profile), _OracleDevice(profile)
    assert len(ring._ring) == profile.channels == (3 if profile is TINY else len(heap._channels))
    two_lengths = 0
    for _ in range(2):  # the second round starts from reset(): every channel ties again
        for chunk in chunked(rng, stream):
            want = [heap.submit(submit_ns, length) for submit_ns, length in chunk]
            assert want == [scan.submit(submit_ns, length) for submit_ns, length in chunk]
            assert book(ring, chunk, len(chunk) == 1 and rng.random() < 0.5) == want
            two_lengths += len({length for _, length in chunk}) > 1
        assert ring.stats == heap.stats == scan.stats and ring.stats.completed == len(stream)
        assert sorted(ring._ring) == sorted(free_ns for free_ns, _ in heap._channels)
        for device in (ring, heap, scan):
            device.reset()
    assert two_lengths > 1000


def test_ring_booking_equals_heap_and_linear_scan_booking_under_fault_windows():
    unit = CSSD.latency_ns
    events = [
        (2 * unit, 40 * unit, 3.0, 0.0, 0.0),  # latency window only
        (20 * unit, 90 * unit, 1.0, 5 * unit, 2 * unit),  # stall storm, overlapping
        (60 * unit, 70 * unit, 2.0, 3 * unit, 1 * unit),  # both, nested
        (150 * unit, math.inf, 1.5, 11 * unit, 4 * unit),  # open-ended
    ]
    rng = np.random.default_rng(9)
    stream = _submission_stream(np.random.default_rng(43), 100_000, CSSD)
    ring, heap = TimelineDevice(CSSD, events), HeapTimelineDevice(CSSD, events)
    scan = _OracleTimelineDevice(CSSD, events)
    deferred_in_a_run = backwards_in_a_run = 0
    for chunk in chunked(rng, stream):
        want = [heap.submit(submit_ns, length) for submit_ns, length in chunk]
        assert want == [scan.submit(submit_ns, length) for submit_ns, length in chunk]
        assert book(ring, chunk, False) == want
        arrivals = [ring._deferred(submit_ns) for submit_ns, _ in chunk]
        deferred_in_a_run += len(chunk) > 1 and arrivals != [t for t, _ in chunk]
        backwards_in_a_run += any(b < a for a, b in zip(arrivals, arrivals[1:]))
    assert ring.stats == heap.stats == scan.stats
    # Runs met the stall windows, and runs whose arrival times go backwards
    # in the caller's order (several workers submit out of order) were booked.
    assert deferred_in_a_run > 100 and backwards_in_a_run > 100


def test_a_run_with_a_bad_length_books_nothing_and_an_empty_run_is_a_no_op():
    device = StorageDevice(TINY)
    def state():
        return dataclasses.asdict(device.stats), list(device._ring), device._last_departure_ns

    device.submit_run([(0.0, 512), (5.0, 8)])
    before = state()
    with pytest.raises(ValueError, match="length must be positive, got 0"):
        device.submit_run([(10.0, 512), (11.0, 4096), (12.0, 0)])
    assert device.submit_run([]) == []
    assert state() == before


class LoggedDevice(StorageDevice):
    """A device that keeps every completion it returned."""

    def reset(self):
        super().reset()
        self.log = []

    def submit_run(self, run):
        self.log += (out := super().submit_run(run))
        return out


def test_per_device_runs_equal_request_order_booking_on_a_striped_volume():
    """Four devices hit unevenly: grouping a batch by device books what
    booking request by request does, and the clock is n additions."""
    rng = np.random.default_rng(11)
    volume = StripedVolume([LoggedDevice(TINY) for _ in range(4)], stripe_unit=512)
    ref = StripedVolume([HeapDevice(TINY) for _ in range(4)], stripe_unit=512)
    ref_logs = [[] for _ in ref.devices]
    overhead = ODD.cpu_overhead_ns
    now, io_cpu_ns, booked = 0.1, 0.7, 0
    while booked < 120_000:
        # Stripes 0, 1, 2, 4, 8, ... of a batch: device 0 gets most, device 3 few.
        stripes = rng.choice([0, 1, 2, 4, 4, 8, 8, 8, 12, 16, 20, 7], size=int(rng.integers(1, 20)))
        requests = [
            (int(s) * 512 + int(rng.integers(0, 512)), int(rng.choice([8, 512, 512, 4096])))
            for s in stripes
        ]
        ref_now, ref_cpu_ns, completions = now, io_cpu_ns, []
        for address, length in requests:
            ref_now += overhead
            ref_cpu_ns += overhead
            completions.append(ref.submit(ref_now, address, length))
            ref_logs[ref.devices.index(ref.device_for(address))].append(completions[-1])
        assert volume.submit_batch(now, io_cpu_ns, overhead, requests) == (
            ref_now, ref_cpu_ns, max(completions)
        )
        booked += len(requests)
        # Sometimes the next batch is issued before this one's clock (another worker).
        now, io_cpu_ns = ref_now + float(rng.uniform(-2.0, 6.0)) * overhead, ref_cpu_ns
    assert [device.log for device in volume.devices] == ref_logs
    assert [device.stats for device in volume.devices] == [device.stats for device in ref.devices]
    assert volume.combined_stats() == ref.combined_stats()
    shares = [device.stats.completed for device in volume.devices]
    assert shares[0] > 3 * shares[3] > 0
    assert volume.submit_batch(5.0, 1.0, overhead, []) == (5.0, 1.0, 5.0)


# -- (c) the engine --------------------------------------------------------------------

STORE_BYTES = 64 * 512


def mixed_task(rng, plain=False, store_bytes=STORE_BYTES):
    """A task of every action kind, returning a digest of what it was sent;
    ``plain`` yields a ``Segment`` as the actions it stands for (the
    reference engine predates it) and drops their payloads."""
    steps = []
    for _ in range(int(rng.integers(1, 12))):
        kind = int(rng.integers(0, 9))
        spans = [
            (int(rng.integers(0, store_bytes - 600)), int(rng.choice([8, 512, 100])))
            for _ in range(int(rng.integers(1, 9)))
        ]
        if kind == 0:
            steps.append(Compute(float(rng.uniform(10.0, 5000.0))))
        elif kind == 1:
            steps.append(Read(*spans[0]))
        elif kind == 2:
            steps.append(Write(*spans[0]))
        elif kind in (3, 4):
            steps.append(ReadBatch(spans))
        elif kind == 5:
            steps.append(WriteBatch(spans))
        elif kind in (7, 8):
            durations = tuple(rng.uniform(10.0, 5000.0, int(rng.integers(0, 5))).tolist())
            steps.append(Segment(durations, tuple(spans) if kind == 7 or not durations else ()))
        else:
            steps.append(rng.choice([ReadBatch([]), WriteBatch([])]))

    def task():
        seen = []
        for step in steps:
            if plain and isinstance(step, Segment):
                for action in step.expand():
                    yield action
                seen.append(None)
            else:
                seen.append((yield step))
        return seen

    return task()


@pytest.mark.parametrize("profile_tasks", [False, True], ids=["plain", "profiled"])
@pytest.mark.parametrize("interface", [ODD, ODD_SYNC], ids=lambda i: i.name)
@pytest.mark.parametrize("workers", [1, 3])
def test_mixed_actions_step_for_step(workers, interface, profile_tasks):
    store = MemoryBlockStore()
    store.allocate(STORE_BYTES)
    store.write(0, np.random.default_rng(1).bytes(STORE_BYTES))
    outcomes = []
    for plain, engine in enumerate(engines(store, count=3, interface=interface, profile=TINY)):
        rng = np.random.default_rng(17)
        session = engine.session(workers=workers, profile_tasks=profile_tasks)
        for wave in range(30):
            ready_ns = wave * 40_000.0
            session.submit(mixed_task(rng, plain), ready_ns, tag=("one", wave))
            tasks = [mixed_task(rng, plain) for _ in range(int(rng.integers(1, 6)))]
            session.submit_batch(tasks, ready_ns + 1000.0, tags=list(range(len(tasks))))
        completions = []
        while session.has_work:
            completions.append((session.next_ready_ns, session.step()))
        stats = [device.stats for device in engine.volume.devices]
        outcomes.append((completions, session.result(), stats))
    assert outcomes[0] == outcomes[1]
    result = outcomes[0][1]
    assert result.io_count > 500 and result.write_count > 200 and result.compute_ns > 0
    assert (result.stall_ns > 0) == interface.synchronous
    done = [completion for _, completion in outcomes[0][0] if completion is not None]
    assert len(done) >= 60 and all((c.profile is not None) == profile_tasks for c in done)


def engine_state(session):
    volume = session.engine.volume
    return (
        [dataclasses.asdict(device.stats) for device in volume.devices],
        [list(device._ring) for device in volume.devices],
        [device._last_departure_ns for device in volume.devices],
        (session.io_count, session.write_count, session.write_bytes),
        (session.io_cpu_ns, session.compute_ns, session.stall_ns),
    )


def one_action(action):
    yield Compute(100.0)
    yield action


@pytest.mark.parametrize(
    "action, message",
    [
        (
            WriteBatch([(0, 512), (512, 512), (1024, 0), (1536, 512)]),
            "request 2 of the batch: length must be positive, got 0",
        ),
        (ReadBatch([(0, 512), (8192, 512)]), r"request 1 of the batch: span \[8192, 8704\) out"),
        (ReadBatch([(0, 512), (512, 0), (1024, 512)]), "request 1 of the batch: length must be"),
        (Write(512, -8), "request 0 of the batch: length must be positive, got -8"),
        (Read(4000, 512), r"request 0 of the batch: span \[4000, 4512\) outside"),
    ],
    ids=["zero-length write", "read past the store", "zero-length read", "write", "read"],
)
def test_a_bad_batch_books_nothing(action, message):
    store = MemoryBlockStore()
    store.allocate(4096)
    engine, _ = engines(store, count=2)
    session = engine.session()
    session.submit(one_action(ReadBatch([(0, 512), (512, 512), (1024, 512)])))
    session.drain()
    before = engine_state(session)
    session.submit(one_action(action), ready_ns=session.result().makespan_ns)
    with pytest.raises(ValueError, match=message):
        session.drain()
    after = engine_state(session)
    assert after[:4] == before[:4]
    assert after[4] == (before[4][0], before[4][1] + 100.0, before[4][2])  # its Compute ran
    # The store is as usable as before (no view of its buffer is left exported).
    assert store.allocate(512) == 4096
    # ...and so is the session.
    session.submit(one_action(WriteBatch([(0, 512), (2048, 512)])))
    session.drain()
    assert session.write_count == 2 and session.io_count == 3
