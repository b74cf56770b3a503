"""Wave execution against a B=1 oracle: batching must be invisible end to end.

The dispatcher always flushes a lane as one planned wave
(``Shard.query_tasks`` + ``EngineSession.submit_batch``); the production
tree carries no scalar path and no switch.  The reference lives here
instead: the oracle run plans every row on its own through
``E2LSHoSIndex.query_task`` and submits every task on its own through
``EngineSession.submit``.  Both runs must produce byte-identical service
reports, traces *and* answers for every catalog scenario — wave planning
only changes how fast the simulator's own loop runs.
"""

import functools
import json
from dataclasses import asdict

import pytest

from repro.obs.trace import SpanTracer
from repro.serving.catalog import CATALOG_NAMES, build_scenario
from repro.serving.scenario import run_scenario
from repro.serving.sharding import Shard
from repro.storage.engine import EngineSession


def plan_rows_one_by_one(shard, queries, k):
    return [
        shard.index.query_task(
            row, k=k, id_map=shard.global_ids, stop_k=shard.stop_k(k)
        )
        for row in queries
    ]


def submit_tasks_one_by_one(session, tasks, ready_ns=0.0, tags=None):
    tags = tags if tags is not None else [None] * len(tasks)
    return [
        session.submit(task, ready_ns=ready_ns, tag=tag)
        for task, tag in zip(tasks, tags)
    ]


def plan_and_submit_one_by_one(patch):
    """Turn every flush into B waves of one: the oracle's two patches."""
    patch.setattr(Shard, "query_tasks", plan_rows_one_by_one)
    patch.setattr(EngineSession, "submit_batch", submit_tasks_one_by_one)


def run_traced(name):
    tracer = SpanTracer()
    return run_scenario(build_scenario(name, quick=True), tracer=tracer), tracer


@functools.cache
def wave_and_oracle(name):
    """The production (wave) run and the B=1 oracle run of one scenario."""
    wave = run_traced(name)
    with pytest.MonkeyPatch.context() as patch:
        plan_and_submit_one_by_one(patch)
        oracle = run_traced(name)
    return wave, oracle


def trace_dump(tracer):
    spans = [asdict(span) for _, span in sorted(tracer.spans.items())]
    return json.dumps({"spans": spans, "rejected": tracer.rejected}, sort_keys=True)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_catalog_reports_and_traces_identical(name):
    (wave, wave_tracer), (oracle, oracle_tracer) = wave_and_oracle(name)
    wave_report = json.dumps(asdict(wave.report), sort_keys=True)
    oracle_report = json.dumps(asdict(oracle.report), sort_keys=True)
    assert wave_report == oracle_report
    assert trace_dump(wave_tracer) == trace_dump(oracle_tracer)
    assert wave.loop_profile.event_counts() == oracle.loop_profile.event_counts()


def test_vectorized_answers_match_scalar():
    for name in CATALOG_NAMES:
        (wave, _), (oracle, _) = wave_and_oracle(name)
        assert wave.answers.keys() == oracle.answers.keys(), name
        for qid, answer in wave.answers.items():
            other = oracle.answers[qid]
            assert list(answer.ids) == list(other.ids), (name, qid)
            assert list(answer.distances) == list(other.distances), (name, qid)


def test_oracle_really_bypasses_wave_planning(monkeypatch):
    """Guard the oracle itself: under the patches no wave is ever planned."""
    from repro.core.e2lshos import E2LSHoSIndex

    planned = []
    real = E2LSHoSIndex.query_tasks

    def counting(index, queries, **kwargs):
        planned.append(len(queries))
        return real(index, queries, **kwargs)

    monkeypatch.setattr(E2LSHoSIndex, "query_tasks", counting)
    plan_and_submit_one_by_one(monkeypatch)
    run_scenario(build_scenario("steady-state", quick=True))
    assert planned and set(planned) == {1}


def test_profile_timeline_is_wall_only():
    """The sampler hook never leaks wall figures into the simulated report."""
    spec = build_scenario("steady-state", quick=True)
    plain = run_scenario(spec)
    profiled = run_scenario(spec, profile_interval_ns=200_000.0)
    assert json.dumps(asdict(plain.report), sort_keys=True) == json.dumps(
        asdict(profiled.report), sort_keys=True
    )
    timeline = profiled.service.profile_timeline
    assert timeline is not None
    assert timeline.samples, "profile sampler produced no samples"
    assert all("events_per_sec" in row for row in timeline.samples)
