"""Tests for benchmarks/append_trajectory.py (the committed perf trajectory)."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "append_trajectory.py"
METRICS = (
    "setup_s",
    "host_ops_per_s",
    "host_peak_rss_mb",
    "sim_qps",
    "sim_ios_per_query",
    "overall_ratio",
)


@pytest.fixture(scope="module")
def trajectory():
    spec = importlib.util.spec_from_file_location("append_trajectory", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def layered_result(dirty=False):
    """The shape ``benchmarks/layered/run.py --seed N`` writes, cut down
    to what a trajectory line keeps (plus fields it must ignore)."""
    workload = {
        "end_to_end": {
            name: {"value": float(i + 1), "unit": "x", "rep_q1": 0.0}
            for i, name in enumerate(METRICS)
        },
        "per_layer": {"storage.device.submit.calls": {"value": 3.0, "unit": "count"}},
        "sim_digest": "a4716657a151173fe25ae2a75ec59afeed0c47a2f196208e56af3dc5bdd45ed6",
        "failed": 0,
    }
    return {
        "schema": "layered-bench/1",
        "meta": {"git_commit": "11f81a6", "git_dirty": dirty, "seed": 7, "scale": "full"},
        "workloads": {"node-query": workload, "paper-sweep": workload},
        "claim": None,
    }


def test_layered_result_becomes_one_row_per_workload(trajectory, tmp_path):
    artifact = tmp_path / "layered.json"
    artifact.write_text(json.dumps(layered_result()))
    out = tmp_path / "trajectory.jsonl"
    out.write_text('{"label": "earlier"}\n')
    stamp = "2026-09-28T00:00:00Z"
    code = trajectory.main(
        [str(artifact), "--out", str(out), "--label", "pr15-parent", "--timestamp", stamp]
    )
    assert code == 0
    earlier, entry = (json.loads(line) for line in out.read_text().splitlines())
    assert earlier == {"label": "earlier"}  # append-only
    assert entry["schema"] == trajectory.TRAJECTORY_SCHEMA
    assert entry["source"] == "layered-bench/1"
    assert (entry["label"], entry["commit"], entry["seed"]) == ("pr15-parent", "11f81a6", 7)
    assert entry["recorded_at"] == stamp
    assert sorted(entry["rows"]) == ["node-query", "paper-sweep"]
    row = entry["rows"]["node-query"]
    assert {name: row[name] for name in METRICS} == {
        name: float(i + 1) for i, name in enumerate(METRICS)
    }
    assert row["failed"] == 0 and row["sim_digest"] == "a4716657a151"


def test_dirty_tree_is_marked_and_unknown_schema_refused(trajectory):
    entry = trajectory.summarize(layered_result(dirty=True), "x", "t")
    assert entry["commit"] == "11f81a6+dirty"
    with pytest.raises(SystemExit, match="is not layered-bench/1"):
        trajectory.summarize({"schema": "something-else/9"}, "x")

