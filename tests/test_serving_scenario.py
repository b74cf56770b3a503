"""Tests for repro.serving.scenario: round-trips and replayability."""

import json
from dataclasses import asdict, replace

import pytest

from repro.serving.config import (
    DataConfig,
    FaultTimeline,
    ServingConfig,
    WorkloadSpec,
)
from repro.serving.loadgen import OpenLoopWorkload, open_loop_arrivals
from repro.serving.replication import FaultSpec
from repro.serving.scenario import (
    ScenarioSpec,
    build_scenario_index,
    run_scenario,
    workload_arrivals,
)


def small_spec(**overrides):
    defaults = dict(
        name="test",
        data=DataConfig(n=900, pool_queries=8),
        workload=WorkloadSpec(requests=16, qps=4_000.0),
        seed=3,
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


def report_bytes(result):
    return json.dumps(asdict(result.report), sort_keys=True)


# -- spec round-trip and validation -------------------------------------------


def test_spec_round_trips_through_json():
    spec = small_spec(
        serving=ServingConfig(n_shards=2, scheme="table", replicas=2, routing="hedged"),
        faults=FaultTimeline(
            events=(FaultSpec(shard=0, replica=1, latency_multiplier=3.0),)
        ),
        description="round-trip probe",
    )
    payload = json.loads(json.dumps(spec.to_dict()))
    assert payload["schema"] == "repro-scenario/1"
    assert ScenarioSpec.from_dict(payload) == spec


def test_spec_rejects_unknown_keys_and_bad_schema():
    payload = small_spec().to_dict()
    payload["extra"] = 1
    with pytest.raises(ValueError, match="unknown key"):
        ScenarioSpec.from_dict(payload)
    payload = small_spec().to_dict()
    payload["schema"] = "repro-scenario/999"
    with pytest.raises(ValueError, match="schema"):
        ScenarioSpec.from_dict(payload)


def test_spec_validates_faults_against_deployment():
    with pytest.raises(ValueError, match="deployment"):
        small_spec(
            faults=FaultTimeline(events=(FaultSpec(shard=3, replica=0),))
        )


def test_spec_validation():
    with pytest.raises(ValueError, match="name"):
        small_spec(name="")
    with pytest.raises(ValueError, match="k"):
        small_spec(k=0)
    with pytest.raises(ValueError, match="target_p99_ms"):
        small_spec(target_p99_ms=0.0)


# -- arrival generation -------------------------------------------------------


def test_constant_shapes_match_legacy_open_loop_arrivals():
    for shape in ("poisson", "uniform"):
        workload = WorkloadSpec(requests=40, qps=3_000.0, shape=shape, zipf_s=0.7)
        legacy = open_loop_arrivals(
            OpenLoopWorkload(
                qps=3_000.0, n_queries=40, arrivals=shape, zipf_s=0.7, seed=11
            ),
            pool_size=8,
        )
        assert workload_arrivals(workload, pool_size=8, seed=11) == legacy


def test_shaped_arrivals_are_deterministic():
    workload = WorkloadSpec(
        requests=64,
        qps=2_000.0,
        shape="flash_crowd",
        flash_at_us=2_000.0,
        flash_duration_us=4_000.0,
        flash_multiplier=4.0,
    )
    a = workload_arrivals(workload, pool_size=8, seed=5)
    b = workload_arrivals(workload, pool_size=8, seed=5)
    assert a == b
    assert workload_arrivals(workload, pool_size=8, seed=6) != a


def test_workload_arrivals_rejects_closed_mode():
    with pytest.raises(ValueError, match="open-loop"):
        workload_arrivals(WorkloadSpec(mode="closed"), pool_size=8, seed=1)


# -- replayability ------------------------------------------------------------


def test_same_seed_yields_byte_identical_report():
    spec = small_spec()
    assert report_bytes(run_scenario(spec)) == report_bytes(run_scenario(spec))


def test_replay_from_serialized_spec_is_identical():
    spec = small_spec(
        serving=ServingConfig(n_shards=2, scheme="table", replicas=2, routing="hedged")
    )
    reloaded = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert report_bytes(run_scenario(spec)) == report_bytes(run_scenario(reloaded))


def test_different_seed_changes_the_run():
    spec = small_spec(seed=3)
    other = small_spec(seed=4)
    assert report_bytes(run_scenario(spec)) != report_bytes(run_scenario(other))


def test_index_reuse_matches_fresh_build():
    spec = small_spec()
    index = build_scenario_index(spec)
    assert report_bytes(run_scenario(spec, index=index)) == report_bytes(
        run_scenario(spec)
    )


def test_index_built_for_another_deployment_is_refused():
    # At the parent this ran and reported 4 shards x 2 replicas over a
    # one-shard, 1,200-row index.
    built = ScenarioSpec(name="a", data=DataConfig(n=1200), seed=3)
    index = build_scenario_index(built)
    asked = ScenarioSpec(
        name="b",
        data=DataConfig(n=2400),
        serving=ServingConfig(n_shards=4, scheme="table", replicas=2),
        seed=3,
    )
    message = r"^index was built with data\.n=1200, the spec says 2400$"
    with pytest.raises(ValueError, match=message):
        run_scenario(asked, index=index)
    same_data = dict(name="c", data=DataConfig(n=1200))
    for overrides, field in [
        (dict(seed=4), "seed"),
        (dict(seed=3, serving=ServingConfig(n_shards=2)), r"serving\.n_shards"),
        (dict(seed=3, serving=ServingConfig(replicas=2)), r"serving\.replicas"),
        (
            dict(
                seed=3,
                faults=FaultTimeline(
                    events=(FaultSpec(shard=0, replica=0, latency_multiplier=2.0),)
                ),
            ),
            "faults",
        ),
    ]:
        with pytest.raises(ValueError, match=f"index was built with {field}="):
            run_scenario(ScenarioSpec(**same_data, **overrides), index=index)


def test_index_reuse_across_routing_batching_ingest_and_workload():
    # What the experiments rely on: a closed-loop probe's index serves
    # open-loop runs, and one replicated index serves a routing sweep.
    fleet = ServingConfig(n_shards=2, scheme="table", replicas=2)
    probe = run_scenario(
        small_spec(
            serving=fleet, workload=WorkloadSpec(mode="closed", requests=8, concurrency=4)
        )
    )
    for routing in ("round_robin", "least_outstanding", "hedged"):
        serving = replace(fleet, routing=routing, max_batch=4, merge_threshold=4)
        spec = small_spec(serving=serving, target_p99_ms=9.0)
        assert report_bytes(run_scenario(spec, index=probe.index)) == report_bytes(
            run_scenario(spec)
        )


def test_closed_loop_scenario_runs():
    spec = small_spec(
        workload=WorkloadSpec(mode="closed", requests=16, concurrency=4)
    )
    result = run_scenario(spec)
    assert result.report.completed == 16
    assert result.spec is spec
    assert len(result.records) == 16
    assert set(result.answers) == {r.query_id for r in result.records}


# -- windowed faults change behaviour -----------------------------------------


def test_windowed_fault_hurts_only_with_an_active_window():
    healthy = small_spec(
        serving=ServingConfig(n_shards=1, replicas=2, routing="round_robin"),
        workload=WorkloadSpec(requests=32, qps=6_000.0),
    )
    run_ns = 32 / 6_000.0 * 1e9
    stormy = small_spec(
        serving=ServingConfig(n_shards=1, replicas=2, routing="round_robin"),
        workload=WorkloadSpec(requests=32, qps=6_000.0),
        faults=FaultTimeline(
            events=(
                FaultSpec(
                    shard=0,
                    replica=1,
                    latency_multiplier=20.0,
                    start_ns=run_ns * 0.25,
                    stop_ns=run_ns * 0.75,
                ),
            )
        ),
    )
    p99_healthy = run_scenario(healthy).report.p99_ns
    p99_stormy = run_scenario(stormy).report.p99_ns
    assert p99_stormy > p99_healthy


def test_slo_dict_carries_spec_and_verdict():
    result = run_scenario(small_spec(target_p99_ms=1e6))
    payload = json.loads(json.dumps(result.slo_dict()))
    assert payload["schema"] == "repro-scenario-report/1"
    assert payload["slo"]["met"] is True
    # The embedded spec replays the run.
    respawned = ScenarioSpec.from_dict(payload["spec"])
    assert report_bytes(run_scenario(respawned)) == json.dumps(
        payload["report"], sort_keys=True
    )
