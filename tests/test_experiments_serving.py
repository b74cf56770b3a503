"""The serving experiments at a tiny fixed scale.

``benchmarks/test_serving_*.py`` assert what the experiments *find* at
the benchmark scales; these pin their interface — row shapes, labels,
table rendering, the hold-don't-copy rule — in seconds, so a refactor is
caught by ``pytest tests/`` alone.
"""

from dataclasses import fields

import pytest

from repro.experiments import serving
from repro.experiments.config import ExperimentScale
from repro.serving import (
    DataConfig,
    ScenarioSpec,
    ServiceReport,
    ServingConfig,
    WorkloadSpec,
)

TINY = ExperimentScale(name="tiny", n=1200, n_bigann=1200, n_queries=8)


@pytest.fixture(scope="module")
def shard_rows():
    return serving.run_shards(TINY, "sift")


@pytest.fixture(scope="module")
def replica_rows():
    return serving.run_replicas(TINY, "sift")


@pytest.fixture(scope="module")
def ingest_rows():
    return serving.run_ingest(TINY, "sift")


def test_serving_row_holds_and_does_not_copy():
    held = {field.name for field in fields(serving.ServingRow)}
    for cls in (ServiceReport, ScenarioSpec, DataConfig, ServingConfig, WorkloadSpec):
        copied = held & {field.name for field in fields(cls)}
        assert not copied, f"ServingRow copies {sorted(copied)} from {cls.__name__}"
    assert {"spec", "report"} <= held


def test_run_shards_rows(shard_rows):
    assert [row.label for row in shard_rows] == ["1 x hash", "4 x hash", "4 x table"]
    assert [
        (row.spec.serving.n_shards, row.spec.serving.scheme) for row in shard_rows
    ] == list(serving.CONFIGS)
    for row in shard_rows:
        assert row.spec.workload.mode == "closed"
        assert row.report.completed == serving.REQUESTS
        assert len(row.report.shard_io_counts) == row.spec.serving.n_shards
        assert 1.0 <= row.ratio < 1.5
        assert row.answers_match and row.p99_penalty == 1.0


def test_run_replicas_rows(replica_rows):
    assert [row.label for row in replica_rows] == [
        "1-copy", *(f"2-copy {policy}" for policy in serving.POLICIES)
    ]
    single, *replicated = replica_rows
    assert single.spec.serving.replicas == 1 and not single.spec.faults
    assert [row.spec.serving.routing for row in replicated] == list(serving.POLICIES)
    for row in replicated:
        assert row.spec.serving.replicas == serving.REPLICAS
        assert len(row.spec.faults) == 1
        assert row.spec.workload.qps == single.spec.workload.qps
    for row in replica_rows:
        assert row.report.completed + row.report.rejected == serving.REQUESTS
        assert row.answers_match
        assert row.ratio == single.ratio
    assert replicated[-1].report.hedges_armed > 0


def test_run_ingest_rows(ingest_rows):
    control, ingest = ingest_rows
    assert (control.label, ingest.label) == ("no-ingest", "steady-ingest")
    assert control.spec.serving == ingest.spec.serving == serving.INGEST_FLEET
    assert control.spec.workload.ingest_requests == 0
    assert control.report.merges_completed == 0 and control.p99_penalty == 1.0
    offered = ingest.spec.workload
    assert offered.qps == control.spec.workload.qps
    assert offered.ingest_qps == serving.INGEST_FRACTION * offered.qps
    assert offered.ingest_requests == serving.REQUESTS // 4
    assert ingest.report.updates_completed + ingest.report.updates_rejected > 0
    assert ingest.p99_penalty == ingest.report.p99_ns / control.report.p99_ns
    assert control.answers_match and ingest.answers_match


@pytest.mark.parametrize(
    "rows_fixture, columns",
    [
        ("shard_rows", serving.SHARD_COLUMNS),
        ("replica_rows", serving.REPLICA_COLUMNS),
        ("ingest_rows", serving.INGEST_COLUMNS),
    ],
)
def test_format_table_renders_one_line_per_row(request, rows_fixture, columns):
    rows = request.getfixturevalue(rows_fixture)
    lines = serving.format_table(rows, columns).splitlines()
    assert len(lines) == 1 + len(rows)
    assert lines[0].split()[0] in ("deployment", "traffic")
    width = sum(width for _, width, _ in columns) + len(columns) - 1
    for line, row in zip(lines[1:], rows):
        assert len(line) == width == len(lines[0])
        assert line.split()[: len(row.label.split())] == row.label.split()
