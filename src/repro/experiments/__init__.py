"""Experiment drivers: one module per paper table/figure.

Each driver exposes a ``run(scale)`` function returning structured rows
plus a ``format_table`` helper; the ``benchmarks/`` suite calls these,
prints the reproduction next to the paper's reference values, and
asserts the qualitative shape checks (README, "Tests and benchmarks").

Heavy intermediates (ground truth, tuned methods, built indices) are
cached per (dataset, scale) in :mod:`repro.experiments.common` so one
pytest session never builds the same index twice.
"""

from repro.experiments.config import ExperimentScale, SMALL_SCALE, DEFAULT_SCALE

__all__ = ["ExperimentScale", "SMALL_SCALE", "DEFAULT_SCALE"]
