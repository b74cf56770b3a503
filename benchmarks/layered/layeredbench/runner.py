"""Run one workload in this process: untraced (end-to-end metrics) or
traced (per-layer metrics).

Untraced: timed set-up(s), then repetitions of the measured phase until
``seconds`` have passed (or exactly ``reps``); host metrics are medians
over repetitions, in reference seconds (``hostclock``: wall seconds
corrected for the host's speed while they passed); simulated metrics
must be identical across repetitions.

Traced: one set-up and one repetition under the :class:`LayerTimer`,
plus one untraced reference repetition in between — the reference gives
the tracing overhead, the host-side loop cost per event, and the digest
the traced run must reproduce bit for bit (tracing is observation-free).
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from typing import Any

from layeredbench.hostclock import Timed, timed
from layeredbench.layers import Observed, build_timer
from layeredbench.workloads import RepOutput, make_workload

__all__ = ["run_untraced", "run_traced"]

SETUP_PHASE = "bench.setup"
MEASURED_PHASE = "bench.measured"


def _measure(workload: Any) -> tuple[Timed, RepOutput]:
    """One repetition: (timing of the measured phase, checked output)."""
    elapsed, raw = timed(workload.run)
    return elapsed, workload.check(raw)


def _failure_summary(outputs: list[RepOutput], extra: list[str]) -> dict[str, Any]:
    attempted = sum(out.ops for out in outputs)
    failed = min(attempted, sum(out.failed for out in outputs) + len(extra))
    failures = [line for out in outputs for line in out.failures] + extra
    return {
        "attempted": attempted,
        "failed": failed,
        "failed_fraction": failed / attempted,
        "failures": failures,
        "correct": failed == 0,
    }


def run_untraced(
    name: str, seed: int, seconds: float, reps: int | None = None, smoke: bool = False
) -> dict[str, Any]:
    """End-to-end metrics of one workload (tracing off)."""
    workload = make_workload(name, seed, smoke)
    setups = [timed(workload.setup)[0] for _ in range(workload.timed_setups)]
    reps_timed: list[Timed] = []
    outputs: list[RepOutput] = []
    started = time.perf_counter()
    while True:
        if workload.fresh_setup_per_rep and reps_timed:
            setups.append(timed(workload.setup)[0])
        elapsed, output = _measure(workload)
        reps_timed.append(elapsed)
        outputs.append(output)
        if reps is not None:
            done = len(reps_timed) >= reps
        else:
            done = time.perf_counter() - started >= seconds
        if done:
            break
    first = outputs[0]
    extra: list[str] = []
    if any(out.digest != first.digest or out.sim != first.sim for out in outputs[1:]):
        extra.append("simulated outputs differ between repetitions")
    rep_s = [rep.reference_s for rep in reps_timed]
    setup_s = [setup.reference_s for setup in setups]
    ops_per_s = [first.ops / elapsed for elapsed in rep_s]
    metrics = {
        "setup_s": statistics.median(setup_s),
        "host_ops_per_s": statistics.median(ops_per_s),
        "host_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **first.sim,
    }
    return {
        "workload": name,
        "trace": 0,
        "seed": seed,
        "metrics": metrics,
        "sim_digest": first.digest,
        "reps": len(reps_timed),
        # Reference seconds (what the metrics use), then what they were
        # derived from: wall seconds and the host's mean probe speed
        # meanwhile.
        "rep_host_s": rep_s,
        "setup_host_s": setup_s,
        "rep_ops_per_s": ops_per_s,
        "rep_wall_s": [rep.wall_s for rep in reps_timed],
        "setup_wall_s": [setup.wall_s for setup in setups],
        "rep_host_speed": [rep.host_speed for rep in reps_timed],
        "setup_host_speed": [setup.host_speed for setup in setups],
        "notes": first.notes,
        **_failure_summary(outputs, extra),
    }


def run_traced(name: str, seed: int, smoke: bool = False) -> dict[str, Any]:
    """Per-layer metrics of one workload (one traced repetition)."""
    workload = make_workload(name, seed, smoke)
    timer, seen = build_timer()
    with timer.installed(), timer.phase(SETUP_PHASE):
        workload.setup()
    reference_timed, reference = _measure(workload)
    reference_s = reference_timed.busy_s
    if workload.fresh_setup_per_rep:
        workload.setup()
    gc.collect()
    with timer.installed(), timer.phase(MEASURED_PHASE):
        raw = workload.run()
    traced = workload.check(raw)
    del raw
    measured_s = timer.phase_wall_s[MEASURED_PHASE]

    extra: list[str] = []
    if traced.digest != reference.digest:
        extra.append("traced sim_digest differs from untraced (tracing changed the simulation)")
    if not timer.restored():
        extra.append("LayerTimer left a patched callable behind")

    metrics: dict[str, float] = dict(traced.sim)
    for span, self_s in timer.self_s.items():
        metrics[f"{span}.self_s"] = self_s
        if span in timer.calls:  # phases have no call count
            metrics[f"{span}.calls"] = float(timer.calls[span])
    metrics.update(_observed_metrics(seen))
    metrics["trace_overhead_ratio"] = measured_s / reference_s
    if reference.loop_events:
        metrics["serving.service.us_per_event"] = (
            reference.loop_wall_s / reference.loop_events * 1e6
        )
    return {
        "workload": name,
        "trace": 1,
        "seed": seed,
        "metrics": metrics,
        "sim_digest": reference.digest,
        "traced_sim_digest": traced.digest,
        "reference_host_s": reference_s,
        "traced_host_s": measured_s,
        # Share of the traced measured wall that some layer span covers.
        "span_coverage": 1.0 - timer.self_s[MEASURED_PHASE] / measured_s,
        "edges": timer.edge_counts(),
        "notes": traced.notes,
        **_failure_summary([reference, traced], extra),
    }


def _observed_metrics(seen: Observed) -> dict[str, float]:
    """Counters taken at the layer boundaries during the traced run."""
    metrics = {
        "layout.build.n_blocks": float(seen.build_blocks),
        "layout.build.index_storage_bytes": float(seen.build_storage_bytes),
        # 1 - rows actually hashed / rows planned: the share of query
        # rows whose hash plan came from the memo.
        "core.e2lshos.plan_memo_hit_ratio": (
            1.0 - seen.projected_rows / seen.query_rows if seen.query_rows else 0.0
        ),
    }
    for counter in ("blocks_read", "blocks_rewritten", "blocks_allocated"):
        metrics[f"core.updates.{counter}"] = float(
            sum(getattr(updater.stats, counter) for updater in seen.updaters.values())
        )
    results = [result for result, _ in seen.engine_results]
    for counter in ("io_count", "write_count", "write_bytes", "compute_ns", "io_cpu_ns"):
        metrics[f"storage.engine.{counter}"] = float(sum(getattr(r, counter) for r in results))
    completed = sum(r.device_stats.completed for r in results)
    latency = sum(r.device_stats.total_latency_ns for r in results)
    metrics["storage.device.completed"] = float(completed)
    metrics["storage.device.mean_latency_ns"] = latency / completed if completed else 0.0
    # Peak over the run's device volumes (one per replica session): on
    # serve-steady that is the overload rung, which is device-bound.
    iops = [(r.device_stats.observed_iops(), max_iops) for r, max_iops in seen.engine_results]
    metrics["storage.device.observed_iops"] = max((i for i, _ in iops), default=0.0)
    metrics["storage.device.utilization"] = max((i / m for i, m in iops), default=0.0)
    return metrics
