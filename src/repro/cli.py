"""Command-line interface: build, persist, query, and analyze indices.

Usage (after ``pip install -e .``)::

    python -m repro.cli info
    python -m repro.cli build  --dataset sift --n 10000 --out /tmp/sift_idx
    python -m repro.cli query  --dataset sift --n 10000 --index /tmp/sift_idx \
                               --device cssd --count 1 --interface io_uring -k 10
    python -m repro.cli analyze --dataset sift --n 10000 --target-ms 0.5

``build``/``query`` regenerate the dataset deterministically from its
name/size/seed, so the database vectors never need to be shipped next
to the index (they are cheap to re-synthesize; a real deployment would
store them).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, get_args, get_type_hints

import numpy as np

from repro.analysis.cost_model import required_iops, required_request_rate
from repro.analysis.lint import describe_rules, run_lint, to_json, to_text
from repro.analysis.machine_model import DEFAULT_MACHINE
from repro.analysis.requirements import average_n_io, plan_capacity_for_scenario
from repro.core.e2lsh import E2LSHIndex
from repro.core.e2lshos import E2LSHoSIndex
from repro.core.params import E2LSHParams
from repro.datasets.registry import DATASET_NAMES, DATASET_SPECS, load_dataset
from repro.eval.ground_truth import exact_knn
from repro.eval.ratio import overall_ratio
from repro.io.persistence import load_index, save_index
from repro.obs.report import load_trace, render_report
from repro.obs.trace import SpanTracer
from repro.serving.catalog import CATALOG_NAMES, build_scenario, catalog
from repro.serving.config import (
    INGEST_SHAPES,
    WORKLOAD_MODES,
    DataConfig,
    FaultTimeline,
    ServingConfig,
    WorkloadSpec,
)
from repro.serving.replication import ROUTING_POLICIES, FaultSpec
from repro.serving.scenario import ScenarioResult, ScenarioSpec, run_scenario
from repro.serving.sharding import PARTITION_SCHEMES
from repro.storage.blockstore import FileBlockStore
from repro.storage.profiles import DEVICE_PROFILES, INTERFACE_PROFILES, make_engine
from repro.utils.units import NS_PER_MS, NS_PER_US, format_bytes, format_iops, format_time

__all__ = ["main", "build_parser", "LOADTEST_FLAGS"]

_ASYNC_INTERFACES = [n for n, p in INTERFACE_PROFILES.items() if not p.synchronous]

#: Every ``loadtest`` flag that sets a :class:`ScenarioSpec` value, as
#: (flag, config class, field, help).  Type, default and optionality are
#: the dataclass field's, accepted values come from ``_CHOICES``, and
#: validation is the configs' own.  A config field without a row here
#: (``delta_capacity``, the diurnal / flash / ramp / drift shapes, ...)
#: is set through ``repro scenarios --spec``.
LOADTEST_FLAGS: tuple[tuple[str, type, str, str | None], ...] = (
    ("--dataset", DataConfig, "dataset", None),
    ("--n", DataConfig, "n", "database size"),
    ("--queries", DataConfig, "pool_queries", "query count"),
    ("--seed", ScenarioSpec, "seed", None),
    ("--rho", DataConfig, "rho", "index exponent"),
    ("--gamma", DataConfig, "gamma", "accuracy knob"),
    ("--s-factor", DataConfig, "s_factor", None),
    ("-k", ScenarioSpec, "k", None),
    ("--shards", ServingConfig, "n_shards", None),
    ("--scheme", ServingConfig, "scheme", None),
    ("--device", ServingConfig, "device", None),
    ("--devices-per-shard", ServingConfig, "devices_per_shard", None),
    ("--interface", ServingConfig, "interface", None),
    ("--workers", ServingConfig, "workers_per_shard", "CPU workers per shard"),
    ("--replicas", ServingConfig, "replicas", "copies of each shard (R)"),
    ("--routing", ServingConfig, "routing", None),
    ("--hedge-delay-us", ServingConfig, "hedge_delay_us",
     "explicit hedge delay; default adapts to the observed sub-query p50"),
    ("--mode", WorkloadSpec, "mode", None),
    ("--qps", WorkloadSpec, "qps", "open-loop rate"),
    ("--arrivals", WorkloadSpec, "shape", None),
    ("--concurrency", WorkloadSpec, "concurrency", "closed-loop client count"),
    ("--requests", WorkloadSpec, "requests", "total queries"),
    ("--zipf", WorkloadSpec, "zipf_s", "query reuse skew"),
    ("--ingest-requests", WorkloadSpec, "ingest_requests",
     "total ingest updates offered alongside the queries (0 disables the ingest traffic class)"),
    ("--ingest-qps", WorkloadSpec, "ingest_qps",
     "offered update rate (updates/s; requires --ingest-requests)"),
    ("--delete-fraction", WorkloadSpec, "delete_fraction",
     "fraction of ingest updates that are deletes"),
    ("--batch", ServingConfig, "max_batch", "micro-batch size"),
    ("--batch-delay-us", ServingConfig, "batch_delay_us", None),
    ("--queue-capacity", ServingConfig, "queue_capacity", None),
    ("--target-p99-ms", ScenarioSpec, "target_p99_ms", "SLO for the capacity plan"),
)

#: Accepted values of the string-valued fields above: the tuples the
#: configs validate against.  ``shape`` takes the constant-rate shapes
#: only; the others need fields that have no flag.
_CHOICES = {
    "dataset": DATASET_NAMES,
    "scheme": PARTITION_SCHEMES,
    "device": sorted(DEVICE_PROFILES),
    "interface": _ASYNC_INTERFACES,
    "routing": ROUTING_POLICIES,
    "mode": WORKLOAD_MODES,
    "shape": INGEST_SHAPES,
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="E2LSH-on-Storage reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="list datasets, devices, and interfaces")

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dataset", choices=DATASET_NAMES, required=True)
        p.add_argument("--n", type=int, default=10_000, help="database size")
        p.add_argument("--queries", type=int, default=20, help="query count")
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--rho", type=float, default=None, help="index exponent")
        p.add_argument("--gamma", type=float, default=0.5, help="accuracy knob")
        p.add_argument("--s-factor", type=float, default=32.0)

    build = sub.add_parser("build", help="build and persist an on-storage index")
    common(build)
    build.add_argument("--out", required=True, help="output path prefix")

    query = sub.add_parser("query", help="query a persisted index")
    common(query)
    query.add_argument("--index", required=True, help="path prefix from 'build'")
    query.add_argument("-k", type=int, default=10)
    query.add_argument("--device", choices=sorted(DEVICE_PROFILES), default="cssd")
    query.add_argument("--count", type=int, default=1)
    query.add_argument("--interface", choices=_ASYNC_INTERFACES, default="io_uring")

    analyze = sub.add_parser("analyze", help="Sec. 4 storage requirements")
    common(analyze)
    analyze.add_argument("--target-ms", type=float, default=0.5)
    analyze.add_argument("-k", type=int, default=1)

    loadtest = sub.add_parser(
        "loadtest", help="drive a sharded query service and report latency SLOs"
    )
    for flag, cls, name, help_text in LOADTEST_FLAGS:
        hint = get_type_hints(cls)[name]
        loadtest.add_argument(
            flag,
            # ``float | None``: an optional value, absent unless the flag is given.
            type=hint if isinstance(hint, type) else get_args(hint)[0],
            default=getattr(cls, name),
            choices=_CHOICES.get(name),
            help=help_text,
        )
    loadtest.add_argument(
        "--fault",
        action="append",
        default=[],
        metavar="SHARD:REPLICA:MULT[:PERIOD_US:STALL_US]",
        help="degrade a replica by a latency multiplier, optionally with "
        "intermittent stalls; repeatable",
    )
    loadtest.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="record per-query spans and write a Chrome trace_event JSON "
        "(open in Perfetto, or feed to 'repro report')",
    )
    loadtest.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write the metrics registry, sampled timeline, and simulator "
        "self-profile as JSON",
    )
    loadtest.add_argument(
        "--metrics-interval-us",
        type=float,
        default=100.0,
        help="simulated-time sampling period of the metrics timeline",
    )
    loadtest.add_argument(
        "--profile-interval-us",
        type=float,
        default=None,
        metavar="US",
        help="also sample the simulator's wall-clock events/sec into a "
        "per-phase timeline (exported with --metrics-out)",
    )

    scenarios = sub.add_parser(
        "scenarios",
        help="run the committed scenario catalog (or named/JSON scenarios) "
        "and emit one SLO report per scenario",
    )
    scenarios.add_argument(
        "--list", action="store_true", help="list catalog scenarios and exit"
    )
    scenarios.add_argument(
        "--name",
        action="append",
        default=[],
        metavar="SCENARIO",
        help="run one catalog scenario by name; repeatable "
        f"(catalog: {', '.join(CATALOG_NAMES)})",
    )
    scenarios.add_argument(
        "--spec",
        action="append",
        default=[],
        metavar="FILE",
        help="run a scenario from a JSON spec file "
        "(the format ScenarioSpec.to_dict() writes); repeatable",
    )
    scenarios.add_argument(
        "--quick",
        action="store_true",
        help="catalog scenarios at the small CI-smoke scale",
    )
    scenarios.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="write one <scenario>.json SLO report per scenario into DIR",
    )

    lint = sub.add_parser(
        "lint",
        help="AST determinism & simulation-contract checker "
        "(wall clock, global RNG, unordered iteration, __all__ hygiene, "
        "heap tie-order tags)",
    )
    lint.add_argument(
        "--root",
        default=None,
        metavar="DIR",
        help="package tree to check (default: the installed repro package)",
    )
    lint.add_argument("--format", choices=("text", "json"), default="text")
    lint.add_argument(
        "--select",
        action="append",
        default=[],
        metavar="RULE",
        help="run only this rule id; repeatable (default: all rules)",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule id, title, and rationale, then exit",
    )

    report = sub.add_parser(
        "report", help="render a recorded trace: span waterfall + tail attribution"
    )
    report.add_argument("trace", help="trace file from 'loadtest --trace'")
    report.add_argument(
        "--pct", type=float, default=99.0, help="tail percentile threshold"
    )
    report.add_argument("--top", type=int, default=5, help="tail queries to list")
    report.add_argument("--width", type=int, default=64, help="waterfall width (chars)")
    return parser


def _params(args: argparse.Namespace, n: int) -> E2LSHParams:
    rho = args.rho if args.rho is not None else DATASET_SPECS[args.dataset].rho
    return E2LSHParams(n=n, rho=rho, gamma=args.gamma, s_factor=args.s_factor)


def _cmd_info(out) -> int:
    out.write("datasets:\n")
    for name, spec in DATASET_SPECS.items():
        out.write(
            f"  {name:7s} d={spec.paper_d:4d} ({spec.paper_type}), "
            f"paper RC={spec.paper_rc}, LID={spec.paper_lid}\n"
        )
    out.write("devices:\n")
    for name, profile in DEVICE_PROFILES.items():
        out.write(
            f"  {name:6s} {format_iops(profile.qd1_iops)} @QD1, "
            f"{format_iops(profile.max_iops)} saturated, "
            f"{format_bytes(profile.capacity_bytes)}\n"
        )
    out.write("interfaces:\n")
    for name, interface in INTERFACE_PROFILES.items():
        kind = "sync" if interface.synchronous else "async"
        out.write(f"  {name:9s} {interface.cpu_overhead_ns:.0f} ns/IO ({kind})\n")
    return 0


def _cmd_build(args: argparse.Namespace, out) -> int:
    dataset = load_dataset(args.dataset, n=args.n, n_queries=args.queries, seed=args.seed)
    params = _params(args, dataset.n)
    prefix = Path(args.out)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    with FileBlockStore(prefix.with_suffix(".blocks")) as store:
        index = E2LSHoSIndex.build(dataset.data, params, store=store, seed=args.seed)
        save_index(index, prefix.with_suffix(".npz"))
        out.write(
            f"built {format_bytes(index.storage_bytes)} index "
            f"({index.built.ladder.rungs} radii x {params.L} tables) "
            f"-> {prefix.with_suffix('.blocks')} + {prefix.with_suffix('.npz')}\n"
        )
    return 0


def _cmd_query(args: argparse.Namespace, out) -> int:
    dataset = load_dataset(args.dataset, n=args.n, n_queries=args.queries, seed=args.seed)
    prefix = Path(args.index)
    if not prefix.with_suffix(".blocks").exists():
        out.write(f"error: no index at {prefix}\n")
        return 1
    with FileBlockStore(prefix.with_suffix(".blocks")) as store:
        index = load_index(prefix.with_suffix(".npz"), store, dataset.data)
        engine = make_engine(
            store, device=args.device, count=args.count, interface=args.interface
        )
        result = index.run(dataset.queries, engine, k=args.k)
        truth = exact_knn(dataset.data, dataset.queries, k=args.k)
        ratio = overall_ratio([a.distances for a in result.answers], truth, k=args.k)
        out.write(
            f"{len(result.answers)} queries on {args.device} x{args.count} "
            f"({args.interface}): {format_time(result.mean_query_time_ns)}/query, "
            f"{result.queries_per_second:,.0f} q/s, overall ratio {ratio:.4f}\n"
        )
    return 0


def _cmd_analyze(args: argparse.Namespace, out) -> int:
    dataset = load_dataset(args.dataset, n=args.n, n_queries=args.queries, seed=args.seed)
    params = _params(args, dataset.n)
    index = E2LSHIndex(dataset.data, params, seed=args.seed)
    answers = index.query_batch(dataset.queries, k=args.k)
    stats = [a.stats for a in answers]
    compute_ns = float(np.mean([DEFAULT_MACHINE.compute_ns(a.stats.ops) for a in answers]))
    n_io = average_n_io(stats, 512)
    target_ns = args.target_ms * 1e6
    iops = required_iops(n_io, target_ns)
    rate = required_request_rate(n_io, target_ns, compute_ns)
    out.write(
        f"workload: {n_io:.1f} I/Os per query at B=512, "
        f"compute {format_time(compute_ns)}/query\n"
        f"to reach {args.target_ms} ms/query: storage >= {format_iops(iops)}, "
    )
    out.write(
        "no interface is fast enough (compute exceeds the target)\n"
        if rate == float("inf")
        else f"interface >= {format_iops(rate)} per core\n"
    )
    qualifying = [n for n, p in DEVICE_PROFILES.items() if p.max_iops >= iops]
    out.write(f"qualifying devices: {', '.join(qualifying) or 'none'}\n")
    return 0


def _parse_fault(spec: str) -> FaultSpec:
    """``SHARD:REPLICA:MULT[:PERIOD_US:STALL_US]`` -> :class:`FaultSpec`."""
    fields = spec.split(":")
    if len(fields) not in (3, 5):
        raise SystemExit(
            f"error: --fault wants SHARD:REPLICA:MULT[:PERIOD_US:STALL_US], got {spec!r}"
        )
    try:
        shard, replica = int(fields[0]), int(fields[1])
        multiplier = float(fields[2])
        period_us = float(fields[3]) if len(fields) == 5 else 0.0
        stall_us = float(fields[4]) if len(fields) == 5 else 0.0
        return FaultSpec(
            shard=shard,
            replica=replica,
            latency_multiplier=multiplier,
            stall_period_ns=period_us * NS_PER_US,
            stall_duration_ns=stall_us * NS_PER_US,
        )
    except ValueError as error:
        raise SystemExit(f"error: bad --fault {spec!r}: {error}") from error


def _scenario_from_loadtest(args: argparse.Namespace) -> ScenarioSpec:
    """The :class:`ScenarioSpec` a ``loadtest`` flag set describes.

    Validation lives in the config dataclasses, whose ``ValueError``
    :func:`main` turns into the CLI's usual one-line ``error: ...`` exit.
    """
    values: dict[type, dict[str, Any]] = {}
    for flag, cls, name, _ in LOADTEST_FLAGS:
        values.setdefault(cls, {})[name] = getattr(args, flag.lstrip("-").replace("-", "_"))
    return ScenarioSpec(
        name="loadtest",
        data=DataConfig(**values[DataConfig]),
        serving=ServingConfig(**values[ServingConfig]),
        workload=WorkloadSpec(**values[WorkloadSpec]),
        faults=FaultTimeline(events=tuple(_parse_fault(spec) for spec in args.fault)),
        **values[ScenarioSpec],
    )


def _describe_deployment(spec: ScenarioSpec) -> str:
    serving = spec.serving
    workload = spec.workload
    if workload.mode == "open":
        offered = f"offered {workload.qps:,.0f} q/s ({workload.shape})"
    else:
        offered = f"closed loop, {workload.concurrency} clients"
    faulty = f", {len(spec.faults)} fault(s)" if spec.faults else ""
    return (
        f"{serving.n_shards} shard(s) x {serving.replicas} replica(s) "
        f"({serving.scheme}, {serving.routing}) on {serving.device} "
        f"x{serving.devices_per_shard} ({serving.interface}), {offered}{faulty}"
    )


def _write_run(result: ScenarioResult, out) -> None:
    """The per-run body shared by ``loadtest`` and ``scenarios``."""
    out.write(result.report.describe() + "\n")
    profile = result.loop_profile
    out.write(
        f"simulator: {profile.events_total:,} loop events in "
        f"{profile.wall_seconds:.2f} s wall "
        f"({profile.events_per_sec:,.0f} events/s)\n"
    )


def _cmd_loadtest(args: argparse.Namespace, out) -> int:
    spec = _scenario_from_loadtest(args)
    tracer = SpanTracer() if args.trace else None
    result = run_scenario(
        spec,
        tracer=tracer,
        metrics_interval_ns=(
            args.metrics_interval_us * NS_PER_US if args.metrics_out else None
        ),
        profile_interval_ns=(
            args.profile_interval_us * NS_PER_US
            if args.profile_interval_us is not None
            else None
        ),
    )
    report = result.report
    out.write(_describe_deployment(spec) + "\n")
    _write_run(result, out)
    if tracer is not None:
        tracer.write(args.trace)
        out.write(
            f"trace: {len(tracer.completed_spans())} query spans -> {args.trace}\n"
        )
    if args.metrics_out:
        with open(args.metrics_out, "w") as handle:
            json.dump(result.service.metrics_snapshot(), handle, indent=1, sort_keys=True)
            handle.write("\n")
        out.write(f"metrics -> {args.metrics_out}\n")
    if report.completed == 0:
        out.write("capacity plan: skipped (no completed queries)\n")
        return 0
    # Plan for the workload's peak offered rate (open loop) or the rate
    # the fleet proved it can sustain (closed loop).  The fastest
    # observed query is the closest available proxy for the light-load
    # latency floor — unlike this run's p50/p99 it excludes queueing and
    # batching delay.
    plan = plan_capacity_for_scenario(
        spec,
        report,
        latency_floor_ns=float(result.service.stats.latencies_ns().min()),
    )
    out.write(f"capacity plan: {plan.describe()}\n")
    return 0


def _cmd_scenarios(args: argparse.Namespace, out) -> int:
    if args.list:
        for name in CATALOG_NAMES:
            spec = build_scenario(name, quick=True)
            out.write(f"{name:22s} {spec.description}\n")
        return 0
    specs = [build_scenario(name, quick=args.quick) for name in args.name]
    for path in args.spec:
        try:
            with open(path) as handle:
                payload = json.load(handle)
            specs.append(ScenarioSpec.from_dict(payload))
        except (OSError, ValueError, json.JSONDecodeError) as error:
            raise SystemExit(f"error: bad scenario spec {path}: {error}") from error
    if not specs:
        specs = catalog(quick=args.quick)
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    missed = 0
    for spec in specs:
        result = run_scenario(spec)
        report = result.report
        out.write(f"=== {spec.name} ===\n")
        if spec.description:
            out.write(f"{spec.description}\n")
        out.write(_describe_deployment(spec) + "\n")
        _write_run(result, out)
        verdict = "met" if result.slo_met else "MISSED"
        missed += 0 if result.slo_met else 1
        out.write(
            f"SLO: p99 {report.p99_ns / NS_PER_MS:.3f} ms vs target "
            f"{spec.target_p99_ms:.3f} ms -> {verdict}\n"
        )
        if out_dir is not None:
            path = out_dir / f"{spec.name}.json"
            with open(path, "w") as handle:
                json.dump(result.slo_dict(), handle, indent=1, sort_keys=True)
                handle.write("\n")
            out.write(f"report -> {path}\n")
    if missed:
        out.write(f"{missed}/{len(specs)} scenario(s) missed their SLO\n")
    # SLO misses are findings, not failures: chaos entries are expected
    # to hurt.  The exit code only signals broken runs.
    return 0


def _cmd_lint(args: argparse.Namespace, out) -> int:
    if args.list_rules:
        out.write(describe_rules() + "\n")
        return 0
    root = Path(args.root) if args.root is not None else Path(__file__).resolve().parent
    result = run_lint(root, rule_ids=args.select or None)
    if args.format == "json":
        json.dump(to_json(result), out, indent=1, sort_keys=True)
        out.write("\n")
    else:
        out.write(to_text(result) + "\n")
    return 0 if result.ok else 1


def _cmd_report(args: argparse.Namespace, out) -> int:
    try:
        spans = load_trace(args.trace)
    except (OSError, ValueError, json.JSONDecodeError) as error:
        out.write(f"error: {error}\n")
        return 1
    out.write(render_report(spans, pct=args.pct, top=args.top, width=args.width) + "\n")
    return 0


def main(argv: list[str] | None = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    try:
        if args.command == "info":
            return _cmd_info(out)
        if args.command == "build":
            return _cmd_build(args, out)
        if args.command == "query":
            return _cmd_query(args, out)
        if args.command == "analyze":
            return _cmd_analyze(args, out)
        if args.command == "loadtest":
            return _cmd_loadtest(args, out)
        if args.command == "scenarios":
            return _cmd_scenarios(args, out)
        if args.command == "lint":
            return _cmd_lint(args, out)
        if args.command == "report":
            return _cmd_report(args, out)
    except ValueError as error:
        # Out-of-range numerics and unknown names are rejected by the
        # library's own validation; the CLI reports them in one line.
        raise SystemExit(f"error: {error}") from error
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
