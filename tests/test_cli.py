"""Tests for repro.cli."""

import io

import pytest

from repro.cli import build_parser, main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_info_lists_catalogs():
    code, text = run_cli("info")
    assert code == 0
    for token in ("sift", "bigann", "cssd", "xlfdd", "io_uring", "spdk"):
        assert token in text


def test_build_query_roundtrip(tmp_path):
    prefix = str(tmp_path / "idx")
    code, text = run_cli(
        "build", "--dataset", "sift", "--n", "1500", "--queries", "6",
        "--gamma", "0.6", "--out", prefix,
    )
    assert code == 0
    assert "built" in text
    assert (tmp_path / "idx.blocks").exists()
    assert (tmp_path / "idx.npz").exists()

    code, text = run_cli(
        "query", "--dataset", "sift", "--n", "1500", "--queries", "6",
        "--gamma", "0.6", "--index", prefix, "-k", "3",
        "--device", "cssd", "--count", "1", "--interface", "io_uring",
    )
    assert code == 0
    assert "overall ratio" in text
    ratio = float(text.rsplit("overall ratio", 1)[1].strip())
    assert ratio < 2.0


def test_query_missing_index(tmp_path):
    code, text = run_cli(
        "query", "--dataset", "sift", "--n", "500", "--index", str(tmp_path / "nope")
    )
    assert code == 1
    assert "error" in text


def test_analyze_reports_requirements():
    code, text = run_cli(
        "analyze", "--dataset", "rand", "--n", "1500", "--queries", "6",
        "--target-ms", "0.5",
    )
    assert code == 0
    assert "I/Os per query" in text
    assert "qualifying devices" in text


def test_loadtest_open_loop_reports_slo_figures():
    code, text = run_cli(
        "loadtest", "--dataset", "sift", "--n", "1200", "--queries", "8",
        "--shards", "2", "--qps", "2000", "--arrivals", "poisson",
        "--requests", "24",
    )
    assert code == 0
    for token in ("p50", "p95", "p99", "q/s", "capacity plan", "shard"):
        assert token in text


def test_loadtest_closed_loop_table_scheme():
    code, text = run_cli(
        "loadtest", "--dataset", "sift", "--n", "1200", "--queries", "8",
        "--shards", "2", "--scheme", "table", "--mode", "closed",
        "--concurrency", "4", "--requests", "16",
    )
    assert code == 0
    assert "closed loop" in text
    assert "rejected 0" in text


def test_loadtest_replicated_hedged_with_fault():
    code, text = run_cli(
        "loadtest", "--dataset", "sift", "--n", "1200", "--queries", "8",
        "--shards", "2", "--replicas", "2", "--routing", "hedged",
        "--fault", "0:1:5", "--qps", "4000", "--requests", "48",
    )
    assert code == 0
    assert "2 replica(s)" in text
    assert "hedged" in text
    assert "1 fault(s)" in text
    assert "replicas" in text  # per-replica IOPS lines
    assert "hedges" in text  # hedge ledger
    assert "replica(s)" in text.rsplit("capacity plan", 1)[1]


def test_loadtest_fault_with_stall_window_parses():
    code, text = run_cli(
        "loadtest", "--dataset", "sift", "--n", "1200", "--queries", "8",
        "--shards", "2", "--replicas", "2", "--routing", "least_outstanding",
        "--fault", "0:0:2:1000:50", "--qps", "2000", "--requests", "16",
    )
    assert code == 0
    assert "least_outstanding" in text


def test_loadtest_rejects_malformed_fault():
    with pytest.raises(SystemExit):
        run_cli(
            "loadtest", "--dataset", "sift", "--n", "1200", "--queries", "8",
            "--fault", "nonsense",
        )
    with pytest.raises(SystemExit):
        run_cli(
            "loadtest", "--dataset", "sift", "--n", "1200", "--queries", "8",
            "--fault", "0:zero:5",
        )


def test_loadtest_rejects_hedge_delay_without_hedged_routing():
    with pytest.raises(SystemExit, match="hedged"):
        run_cli(
            "loadtest", "--dataset", "sift", "--n", "1200", "--queries", "8",
            "--replicas", "2", "--hedge-delay-us", "200",
        )


def test_loadtest_rejects_fault_outside_deployment():
    with pytest.raises(SystemExit, match="deployment"):
        run_cli(
            "loadtest", "--dataset", "sift", "--n", "1200", "--queries", "8",
            "--shards", "2", "--replicas", "2", "--fault", "0:5:2",
        )


def test_loadtest_rejects_unknown_scheme():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["loadtest", "--scheme", "bogus"])


def test_loadtest_rejects_unknown_routing():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["loadtest", "--routing", "bogus"])


def test_parser_rejects_unknown_dataset():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["build", "--dataset", "imaginary", "--out", "x"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_loadtest_trace_and_metrics_exports(tmp_path):
    trace_path = tmp_path / "trace.json"
    metrics_path = tmp_path / "metrics.json"
    code, text = run_cli(
        "loadtest", "--dataset", "sift", "--n", "1200", "--queries", "8",
        "--shards", "2", "--replicas", "2", "--routing", "hedged",
        "--requests", "24", "--qps", "5000",
        "--trace", str(trace_path),
        "--metrics-out", str(metrics_path), "--metrics-interval-us", "200",
    )
    assert code == 0
    assert "simulator:" in text
    assert "query spans" in text

    import json

    trace = json.loads(trace_path.read_text())
    assert trace["spans"]["schema"] == "repro-trace/1"
    assert any(e["ph"] == "X" for e in trace["traceEvents"])
    metrics = json.loads(metrics_path.read_text())
    assert metrics["schema"] == "repro-metrics/1"
    assert metrics["metrics"]["queries_completed"]["value"] == 24.0
    assert metrics["timeline"]["samples"]
    assert metrics["wall"]["events_total"] > 0


SMALL_LOADTEST = (
    "loadtest", "--dataset", "sift", "--n", "1200", "--queries", "8", "--requests", "16",
)


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--metrics-interval-us", "0"), "error: interval_ns must be positive"),
        (("--profile-interval-us", "-1"), "error: interval_ns must be positive"),
    ],
)
def test_loadtest_bad_sampling_interval_is_a_one_line_error(tmp_path, flags, message):
    with pytest.raises(SystemExit, match=message):
        run_cli(*SMALL_LOADTEST, "--metrics-out", str(tmp_path / "m.json"), *flags)


def test_loadtest_closed_loop_takes_no_arrival_process():
    # The spec layer's rule, not a CLI one: the parent swallowed
    # ``--arrivals`` in closed mode while a spec file saying the same
    # thing was refused.
    with pytest.raises(SystemExit, match="^error: closed-loop workloads have no arrival process"):
        run_cli(*SMALL_LOADTEST, "--mode", "closed", "--arrivals", "uniform")
    code, text = run_cli(*SMALL_LOADTEST, "--mode", "closed")
    assert code == 0
    assert "closed loop" in text


def test_zero_size_database_is_a_one_line_error(tmp_path):
    prefix = str(tmp_path / "idx")
    with pytest.raises(SystemExit, match="error: n must be >= 1"):
        run_cli("build", "--dataset", "sift", "--n", "0", "--out", prefix)
    with pytest.raises(SystemExit, match="error: n must be >= 1"):
        run_cli("analyze", "--dataset", "sift", "--n", "0")
    run_cli("build", "--dataset", "sift", "--n", "1200", "--queries", "4", "--out", prefix)
    with pytest.raises(SystemExit, match="error: data has n=0"):
        run_cli("query", "--dataset", "sift", "--n", "0", "--index", prefix)


def test_scenarios_list_names_the_catalog():
    from repro.serving.catalog import CATALOG_NAMES

    code, text = run_cli("scenarios", "--list")
    assert code == 0
    for name in CATALOG_NAMES:
        assert name in text


def test_scenarios_quick_run_writes_slo_report(tmp_path):
    code, text = run_cli(
        "scenarios", "--quick", "--name", "steady-state", "--out", str(tmp_path)
    )
    assert code == 0
    assert "=== steady-state ===" in text
    assert "SLO: p99" in text

    import json

    payload = json.loads((tmp_path / "steady-state.json").read_text())
    assert payload["schema"] == "repro-scenario-report/1"
    assert payload["scenario"] == "steady-state"
    assert payload["spec"]["name"] == "steady-state"
    assert "met" in payload["slo"]


def test_scenarios_rejects_unknown_name():
    with pytest.raises(SystemExit, match="unknown scenario"):
        run_cli("scenarios", "--quick", "--name", "steady-stat")


def test_scenarios_runs_a_spec_file(tmp_path):
    import json

    from repro.serving.catalog import build_scenario

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps(build_scenario("steady-state", quick=True).to_dict())
    )
    code, text = run_cli("scenarios", "--spec", str(spec_path))
    assert code == 0
    assert "=== steady-state ===" in text


def test_scenarios_rejects_bad_spec_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": "repro-scenario/1", "no_such_knob": 1}')
    with pytest.raises(SystemExit, match="bad scenario spec"):
        run_cli("scenarios", "--spec", str(bad))
    with pytest.raises(SystemExit, match="bad scenario spec"):
        run_cli("scenarios", "--spec", str(tmp_path / "missing.json"))


def test_loadtest_flags_equal_scenario_spec():
    # The loadtest command is a thin adapter over ScenarioSpec: the same
    # deployment expressed as flags and as a spec must report identically.
    from repro.serving import (
        DataConfig,
        ScenarioSpec,
        ServingConfig,
        WorkloadSpec,
        run_scenario,
    )

    code, text = run_cli(
        "loadtest", "--dataset", "sift", "--n", "1200", "--queries", "8",
        "--shards", "2", "--scheme", "table", "--qps", "2500",
        "--requests", "24", "--zipf", "0.8", "--seed", "5",
    )
    assert code == 0
    spec = ScenarioSpec(
        name="loadtest",
        data=DataConfig(dataset="sift", n=1200, pool_queries=8),
        serving=ServingConfig(n_shards=2, scheme="table"),
        workload=WorkloadSpec(requests=24, qps=2500.0, zipf_s=0.8),
        seed=5,
    )
    assert run_scenario(spec).report.describe() in text


#: Config fields ``loadtest`` has no flag for: set them in a spec file
#: (``repro scenarios --spec``).  A new config field goes here or into
#: ``cli.LOADTEST_FLAGS`` — the test below fails until it is in one.
SPEC_FILE_ONLY = {
    "delta_capacity", "merge_threshold", "ingest_queue_capacity", "merge_io_batch",
    "period_us", "amplitude", "flash_at_us", "flash_duration_us", "flash_multiplier",
    "ramp_to_qps", "ramp_duration_us", "hot_drift_period_us", "hot_drift_stride",
    "think_time_us", "ingest_shape",
}

#: The ``loadtest`` option strings of PR 20, which the generated parser
#: must reproduce exactly.
LOADTEST_OPTIONS = {
    "-h", "--help", "--dataset", "--n", "--queries", "--seed", "--rho", "--gamma",
    "--s-factor", "-k", "--shards", "--scheme", "--device", "--devices-per-shard",
    "--interface", "--workers", "--replicas", "--routing", "--hedge-delay-us", "--fault",
    "--mode", "--qps", "--arrivals", "--concurrency", "--requests", "--zipf",
    "--ingest-requests", "--ingest-qps", "--delete-fraction", "--batch",
    "--batch-delay-us", "--queue-capacity", "--target-p99-ms", "--trace", "--metrics-out",
    "--metrics-interval-us", "--profile-interval-us",
}


def test_every_config_field_has_a_flag_or_is_spec_file_only():
    from dataclasses import fields

    from repro.cli import LOADTEST_FLAGS
    from repro.serving import DataConfig, ServingConfig, WorkloadSpec

    flagged = {(cls, name) for _, cls, name, _ in LOADTEST_FLAGS}
    assert len(flagged) == len(LOADTEST_FLAGS)
    for cls in (DataConfig, ServingConfig, WorkloadSpec):
        for field in fields(cls):
            assert ((cls, field.name) in flagged) != (field.name in SPEC_FILE_ONLY), (
                f"{cls.__name__}.{field.name}: give it a loadtest flag or list it "
                "in SPEC_FILE_ONLY (exactly one of the two)"
            )


def test_loadtest_option_strings_are_the_committed_set():
    subparsers = build_parser()._subparsers._group_actions[0]
    options = set(subparsers.choices["loadtest"]._option_string_actions)
    assert options == LOADTEST_OPTIONS
    assert len(LOADTEST_OPTIONS - {"-h", "--help"}) == 35


def test_report_renders_waterfall_and_tail_table(tmp_path):
    trace_path = tmp_path / "trace.json"
    code, _ = run_cli(
        "loadtest", "--dataset", "sift", "--n", "1200", "--queries", "8",
        "--requests", "16", "--qps", "5000", "--trace", str(trace_path),
    )
    assert code == 0
    code, text = run_cli("report", str(trace_path), "--pct", "50", "--top", "3")
    assert code == 0
    assert "traced queries" in text
    assert "tail attribution" in text
    assert "legend" in text


def test_report_rejects_non_trace_file(tmp_path):
    bogus = tmp_path / "bogus.json"
    bogus.write_text('{"not": "a trace"}')
    code, text = run_cli("report", str(bogus))
    assert code == 1
    assert "error" in text
    code, text = run_cli("report", str(tmp_path / "missing.json"))
    assert code == 1


def _poisoned_loader(module, monkeypatch, row):
    """Make ``module.load_dataset`` hand back a dataset whose query
    ``row`` holds a NaN — what a corrupt query file would look like."""
    genuine = module.load_dataset

    def load(*args, **kwargs):
        dataset = genuine(*args, **kwargs)
        queries = dataset.queries.copy()
        queries[row, 0] = float("nan")
        return dataset.with_queries(queries)

    monkeypatch.setattr(module, "load_dataset", load)


def test_non_finite_queries_are_a_one_line_error(tmp_path, monkeypatch):
    import repro.cli
    import repro.serving.scenario

    prefix = str(tmp_path / "idx")
    run_cli("build", "--dataset", "sift", "--n", "1200", "--queries", "4", "--out", prefix)
    _poisoned_loader(repro.cli, monkeypatch, row=2)
    with pytest.raises(SystemExit, match="^error: queries row 2 has a NaN"):
        run_cli("query", "--dataset", "sift", "--n", "1200", "--queries", "4", "--index", prefix)
    # The service plans pool queries one wave at a time; the first wave
    # that carries the bad vector is refused.
    _poisoned_loader(repro.serving.scenario, monkeypatch, row=0)
    with pytest.raises(SystemExit, match="^error: queries row [0-9]+ has a NaN"):
        run_cli(*SMALL_LOADTEST, "--zipf", "3.0")
