"""Shared configuration for the benchmark suite.

Every benchmark regenerates one of the paper's tables or figures at the
``DEFAULT_SCALE`` (scaled-down analogs; see the README's "Tests and
benchmarks"), prints the reproduction next to the paper's reference
numbers, and asserts the qualitative shape checks.  ``--benchmark-only`` works because each file
also times a representative kernel with pytest-benchmark.

Set REPRO_BENCH_SCALE=small to run the whole suite quickly (CI smoke).
Host speed is tracked by the layered benchmark (``benchmarks/layered``,
``BENCH_trajectory.jsonl``), not here.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.config import DEFAULT_SCALE, SMALL_SCALE, ExperimentScale


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
