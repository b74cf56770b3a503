"""Observability for the serving stack: tracing, metrics, self-profiling.

A load-test run used to end in one aggregate :class:`ServiceReport`;
this package makes the run inspectable *per query* and *over time*:

- :mod:`repro.obs.trace` — a per-query span tracer threaded through the
  service event loop.  Each admitted query grows a span tree (admit ->
  per-shard sub-query -> per-replica attempt -> hedge duplicate ->
  completion) with simulated-clock timestamps and an attributed latency
  breakdown (batch wait, queue wait, hash compute, device I/O, hedge
  wait).  Exports Chrome ``trace_event`` JSON that opens directly in
  Perfetto / ``chrome://tracing``.
- :mod:`repro.obs.metrics` — a small metrics registry (counters,
  gauges, fixed-bucket histograms) plus a simulated-time timeline
  sampler, so mid-run degradation (fault storms, flash crowds) is
  visible instead of averaged away.
- :mod:`repro.obs.selfprof` — wall-clock self-profiling of the event
  loop itself (events/sec, per-event-type counts): at production QPS
  the *simulator* is the bottleneck (the layered benchmark tracks it).
- :mod:`repro.obs.report` — renders a trace as an ASCII span waterfall
  and a tail-attribution table (the ``repro report`` subcommand).

Tracing is zero-cost when off: the default :data:`NULL_TRACER` no-ops
every hook and keeps per-task engine profiling disabled.  Everything a
tracer records is driven by the *simulated* clock, so a given seed
produces a byte-identical exported trace (regression-tested).
"""

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry, Timeline
from repro.obs.report import render_report, tail_attribution, waterfall
from repro.obs.selfprof import LoopProfile
from repro.obs.trace import NULL_TRACER, Attribution, SpanTracer, Tracer

__all__ = [
    "Attribution",
    "Counter",
    "Gauge",
    "Histogram",
    "LoopProfile",
    "MetricsRegistry",
    "NULL_TRACER",
    "SpanTracer",
    "Timeline",
    "Tracer",
    "render_report",
    "tail_attribution",
    "waterfall",
]
