"""Shared configuration for the benchmark suite.

Every benchmark regenerates one of the paper's tables or figures at the
``DEFAULT_SCALE`` (scaled-down analogs; see the README's "Tests and
benchmarks"), prints the reproduction next to the paper's reference
numbers, and asserts the qualitative shape checks.  ``--benchmark-only`` works because each file
also times a representative kernel with pytest-benchmark.

Set REPRO_BENCH_SCALE=small to run the whole suite quickly (CI smoke).

Set REPRO_BENCH_ARTIFACT=<path> to write a JSON perf-trajectory
artifact at session end: serving benchmarks deposit their result rows
into the ``bench_artifact`` fixture, and the scheduled CI job uploads
the file so tail-latency and throughput trends are comparable across
runs.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.experiments.config import DEFAULT_SCALE, SMALL_SCALE, ExperimentScale

#: Session-wide registry behind the ``bench_artifact`` fixture.
_ARTIFACT_ROWS: dict[str, object] = {}


def _selected_scale() -> ExperimentScale:
    if os.environ.get("REPRO_BENCH_SCALE", "").lower() == "small":
        return SMALL_SCALE
    return DEFAULT_SCALE


@pytest.fixture(scope="session")
def scale() -> ExperimentScale:
    """The experiment scale shared by every benchmark in the session."""
    return _selected_scale()


@pytest.fixture(scope="session")
def bench_dataset(scale: ExperimentScale) -> str:
    """The dataset used by single-dataset figures (SIFT, as in the paper)."""
    return "sift"


@pytest.fixture(scope="session")
def bench_artifact() -> dict[str, object]:
    """Mutable mapping merged into the ``REPRO_BENCH_ARTIFACT`` JSON."""
    return _ARTIFACT_ROWS


def pytest_sessionfinish(session: pytest.Session, exitstatus: int) -> None:
    path = os.environ.get("REPRO_BENCH_ARTIFACT")
    if not path or not _ARTIFACT_ROWS:
        return
    payload = {
        "schema": "repro-serving-bench/1",
        "scale": _selected_scale().name,
        "exit_status": int(exitstatus),
        "results": _ARTIFACT_ROWS,
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
