"""Accuracy-target tuning harness (paper Sec. 3.3).

Every method has one accuracy knob: E2LSH tunes ``gamma`` (and through
it m), SRS tunes the candidate budget T', QALSH tunes its approximation
ratio c.  Experiments sweep the knob from cheap/inaccurate to
expensive/accurate, record a :class:`MethodRun` per setting, and select
the cheapest run meeting the overall-ratio target (default 1.05).  The
full sweep is kept because the requirement curves of Figures 3-8 are
functions of the accuracy level.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.eval.ground_truth import GroundTruth
from repro.eval.ratio import overall_ratio
from repro.stats import OpCounts, QueryStats

__all__ = ["MethodRun", "TunedMethod", "method_run", "tune_to_ratio", "DEFAULT_TARGET_RATIO"]

#: The paper's default accuracy target.
DEFAULT_TARGET_RATIO = 1.05


@dataclass
class MethodRun:
    """Outcome of running one method at one knob setting."""

    knob: float
    overall_ratio: float
    #: Modeled mean query time (nanoseconds).
    mean_time_ns: float
    #: Per-query statistics (None for methods that do not report them).
    stats: list[QueryStats] | None = None
    #: Per-query answers (IDs/distances), method-specific payload.
    answers: list[Any] = field(default_factory=list)

    def meets(self, target_ratio: float) -> bool:
        """True when this run hits the accuracy target."""
        return self.overall_ratio <= target_ratio


def method_run(
    knob: float,
    answers: list[Any],
    truth: GroundTruth,
    k: int,
    time_ns: Callable[[OpCounts], float],
) -> MethodRun:
    """Score one knob setting's answers: overall ratio and modeled time.

    ``time_ns`` is the machine model's cost of one query's operation
    counts; the run's time is its mean over the query set.
    """
    return MethodRun(
        knob=knob,
        overall_ratio=overall_ratio([a.distances for a in answers], truth, k=k),
        mean_time_ns=float(np.mean([time_ns(a.stats.ops) for a in answers])),
        stats=[a.stats for a in answers],
        answers=answers,
    )


@dataclass
class TunedMethod:
    """A full knob sweep plus the selected run."""

    name: str
    runs: list[MethodRun]
    selected: MethodRun
    target_ratio: float

    @property
    def achieved(self) -> bool:
        """True when the selected run actually met the target."""
        return self.selected.meets(self.target_ratio)


def tune_to_ratio(
    name: str,
    run_fn: Callable[[float], MethodRun],
    knobs: Sequence[float],
    target_ratio: float = DEFAULT_TARGET_RATIO,
    stop_early: bool = False,
) -> TunedMethod:
    """Sweep ``knobs`` (ordered cheap -> accurate) and select a run.

    The selected run is the first (cheapest) one meeting the target; if
    none does, the most accurate run is selected and ``achieved`` is
    False.  With ``stop_early`` the sweep stops at the first run that
    meets the target (used when only the operating point is needed);
    otherwise all knobs are evaluated so accuracy-vs-cost curves can be
    plotted.
    """
    if not knobs:
        raise ValueError("need at least one knob setting")
    runs: list[MethodRun] = []
    for knob in knobs:
        run = run_fn(float(knob))
        runs.append(run)
        if stop_early and run.meets(target_ratio):
            break
    meeting = [run for run in runs if run.meets(target_ratio)]
    if meeting:
        selected = min(meeting, key=lambda run: run.mean_time_ns)
    else:
        selected = min(runs, key=lambda run: run.overall_ratio)
    return TunedMethod(name=name, runs=runs, selected=selected, target_ratio=target_ratio)
