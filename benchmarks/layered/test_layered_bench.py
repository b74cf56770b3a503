"""Tier-1 smoke test of the layered benchmark.

Runs all four workloads at ``--scale smoke`` (tiny n, one repetition,
untraced and traced) and checks the harness against ``BENCHMARK.json``:
names, counts, that every listed metric is produced and every produced
metric is listed, that tracing is observation-free, and that the
``LayerTimer`` puts every patched callable back.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layeredbench import hostclock  # noqa: E402
from layeredbench.cli import load_contract  # noqa: E402
from layeredbench.layers import build_timer  # noqa: E402
from layeredbench.runner import run_traced, run_untraced  # noqa: E402

CONTRACT = load_contract()
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
END_TO_END = {m["name"] for m in CONTRACT["end_to_end"]}
PER_LAYER = {m["name"] for m in CONTRACT["per_layer"]}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def runs() -> dict[str, tuple[dict, dict]]:
    return {
        name: (
            run_untraced(name, seed=7, seconds=0.0, reps=1, smoke=True),
            run_traced(name, seed=7, smoke=True),
        )
        for name in WORKLOADS
    }


def test_benchmark_json_is_within_the_contract_limits() -> None:
    assert CONTRACT["paths"] == ["benchmarks/layered"]
    assert CONTRACT["command"] == ["python3", "benchmarks/layered/run.py"]
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(END_TO_END) <= 16
    assert 1 <= len(PER_LAYER) <= 128
    names = WORKLOADS + [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.fullmatch(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in CONTRACT["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_verifies_and_tracing_is_observation_free(name: str, runs: dict) -> None:
    untraced, traced = runs[name]
    assert untraced["correct"] and untraced["failed"] == 0, untraced["failures"]
    assert traced["correct"] and traced["failed"] == 0, traced["failures"]
    assert untraced["sim_digest"] == traced["sim_digest"] == traced["traced_sim_digest"]
    # Every end-to-end metric is reported on every workload, and is never 0.
    assert all(untraced["metrics"][metric] > 0 for metric in END_TO_END)
    # Every span's self time is part of a phase wall the timer measured.
    assert 0.9 <= traced["span_coverage"] <= 1.0


def test_every_listed_metric_is_produced_and_vice_versa(runs: dict) -> None:
    produced: set[str] = set()
    for _, traced in runs.values():
        produced |= set(traced["metrics"])
        # Nothing the traced run reports is missing from BENCHMARK.json.
        assert set(traced["metrics"]) <= PER_LAYER | END_TO_END
    # ...and nothing listed is a name the harness never reports.
    assert PER_LAYER <= produced, sorted(PER_LAYER - produced)


def test_workloads_separate_the_layers(runs: dict) -> None:
    def calls(name: str, prefix: str) -> float:
        metrics = runs[name][1]["metrics"]
        return sum(v for k, v in metrics.items() if k.startswith(prefix) and k.endswith(".calls"))

    for name in ("node-query", "paper-sweep"):
        assert calls(name, "serving.") == 0
    assert calls("paper-sweep", "storage.") == 0
    for name in WORKLOADS:
        writes = runs[name][1]["metrics"]["storage.engine.write_count"]
        assert (writes > 0) == (name == "serve-ingest")
        assert (calls(name, "core.updates.") > 0) == (name == "serve-ingest")
    assert runs["node-query"][1]["metrics"]["core.e2lshos.plan_memo_hit_ratio"] == 0.0


def test_layer_timer_restores_every_patched_callable() -> None:
    timer, _ = build_timer()
    assert timer.restored()
    with timer.installed():
        assert not timer.restored()
    assert timer.restored()


def test_host_clock_probes_a_block_and_leaves_no_timer_behind() -> None:
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    took, result = hostclock.timed(lambda: time.sleep(0.05) or "done")
    assert result == "done"
    assert took.probes >= 2 and took.host_speed > 0
    assert 0 < took.busy_s < took.wall_s and took.reference_s > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_command_line_prints_the_result_object_last() -> None:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "node-query", "--seed", "11",
         "--scale", "smoke", "--reps", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == END_TO_END
    assert all(set(value) == {"value", "unit"} for value in result["metrics"].values())
