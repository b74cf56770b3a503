"""Replayable serving scenarios: one spec object -> one SLO report.

A :class:`ScenarioSpec` composes the four config layers of
:mod:`repro.serving.config` — data, deployment, workload, fault
timeline — with a single ``seed``.  The seed drives dataset synthesis,
index build, arrival sampling, and query selection, so running the same
spec twice yields a byte-identical :class:`~repro.serving.stats.ServiceReport`;
serializing via :meth:`ScenarioSpec.to_dict` and loading the JSON back
replays the exact run.  This is the contract the chaos catalog
(:mod:`repro.serving.catalog`) and the ``repro scenarios`` CLI build on:
a production claim like "hedging beats round-robin under a windowed 5x
slow replica" is pinned to a spec file, not to a flag incantation.

:func:`run_scenario` is the one entry point: it wires
``ShardedIndex.build``, the :class:`~repro.serving.dispatcher.Dispatcher`
config, :class:`~repro.serving.replication.RoutingConfig`, the PR-6
tracer/metrics hooks, and the arrival stream from the spec, and returns
a :class:`ScenarioResult` carrying the report plus everything the CLI
and experiments need (answers, records, loop profile, the service for
trace/metrics export).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, Mapping

import numpy as np

from repro.core.params import E2LSHParams
from repro.datasets.registry import DATASET_SPECS, load_dataset
from repro.obs.selfprof import LoopProfile
from repro.obs.trace import Tracer
from repro.serving.config import (
    DataConfig,
    FaultTimeline,
    ServingConfig,
    WorkloadSpec,
)
from repro.serving.loadgen import (
    Arrival,
    ClosedLoopWorkload,
    DriftingSelector,
    QuerySelector,
    thinned_arrival_times,
)
from repro.serving.ingest import UpdateArrival
from repro.serving.service import QueryService
from repro.serving.sharding import ShardedIndex
from repro.serving.stats import QueryRecord, ServiceReport
from repro.utils.units import NS_PER_MS, NS_PER_S, NS_PER_US

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.e2lsh import QueryAnswer
    from repro.datasets.registry import Dataset

__all__ = [
    "SCENARIO_SCHEMA",
    "REPORT_SCHEMA",
    "ScenarioSpec",
    "ScenarioIndex",
    "ScenarioResult",
    "workload_arrivals",
    "workload_updates",
    "build_scenario_index",
    "run_scenario",
]

SCENARIO_SCHEMA = "repro-scenario/1"
REPORT_SCHEMA = "repro-scenario-report/1"


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, replayable serving situation."""

    name: str
    data: DataConfig = field(default_factory=DataConfig)
    serving: ServingConfig = field(default_factory=ServingConfig)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    faults: FaultTimeline = field(default_factory=FaultTimeline)
    #: The one seed: dataset synthesis, index build, arrivals, selection.
    seed: int = 1
    k: int = 10
    #: SLO the scenario's report is judged against.
    target_p99_ms: float = 2.0
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a scenario needs a name")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.target_p99_ms <= 0:
            raise ValueError(f"target_p99_ms must be positive, got {self.target_p99_ms}")
        self.faults.validate_against(self.serving.n_shards, self.serving.replicas)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form; ``from_dict`` round-trips it exactly."""
        return {
            "schema": SCENARIO_SCHEMA,
            "name": self.name,
            "description": self.description,
            "seed": self.seed,
            "k": self.k,
            "target_p99_ms": self.target_p99_ms,
            "data": self.data.to_dict(),
            "serving": self.serving.to_dict(),
            "workload": self.workload.to_dict(),
            "faults": self.faults.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScenarioSpec":
        if not isinstance(payload, Mapping):
            raise ValueError(f"scenario must be a mapping, got {type(payload).__name__}")
        payload = dict(payload)
        schema = payload.pop("schema", SCENARIO_SCHEMA)
        if schema != SCENARIO_SCHEMA:
            raise ValueError(
                f"unsupported scenario schema {schema!r}; expected {SCENARIO_SCHEMA!r}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"scenario: unknown key(s) {unknown}; known: {sorted(known)}")
        nested = {
            "data": DataConfig.from_dict,
            "serving": ServingConfig.from_dict,
            "workload": WorkloadSpec.from_dict,
            "faults": FaultTimeline.from_dict,
        }
        kwargs: dict[str, Any] = {}
        for key, value in payload.items():
            kwargs[key] = nested[key](value) if key in nested else value
        return cls(**kwargs)


def workload_arrivals(
    workload: WorkloadSpec, pool_size: int, seed: int
) -> list[Arrival]:
    """Materialize an open-loop workload spec's full arrival sequence.

    For the constant-rate shapes this reproduces
    :func:`~repro.serving.loadgen.open_loop_arrivals` draw-for-draw
    (same rng stream, selector seeded ``seed + 1``), so a spec built
    from legacy ``loadtest`` flags replays the legacy run exactly.  The
    time-varying shapes sample their rate function by Lewis thinning at
    the shape's peak rate.
    """
    if workload.mode != "open":
        raise ValueError("workload_arrivals needs an open-loop workload spec")
    rng = np.random.default_rng(seed)
    n = workload.requests
    if workload.shape == "poisson":
        times = np.cumsum(rng.exponential(NS_PER_S / workload.qps, size=n))
    elif workload.shape == "uniform":
        times = np.cumsum(np.full(n, NS_PER_S / workload.qps))
    else:
        times = thinned_arrival_times(
            workload.rate_at, workload.peak_qps, n, seed=seed
        )
    if workload.hot_drift_period_us > 0:
        selector = DriftingSelector(
            pool_size,
            zipf_s=workload.zipf_s,
            drift_period_ns=workload.hot_drift_period_us * NS_PER_US,
            stride=workload.hot_drift_stride,
            seed=seed + 1,
        )
        return [
            Arrival(
                query_id=i,
                time_ns=float(times[i]),
                pool_index=selector.select(i, time_ns=float(times[i])),
            )
            for i in range(n)
        ]
    selector = QuerySelector(pool_size, zipf_s=workload.zipf_s, seed=seed + 1)
    return [
        Arrival(query_id=i, time_ns=float(times[i]), pool_index=selector.select(i))
        for i in range(n)
    ]


def workload_updates(
    workload: WorkloadSpec, data: np.ndarray, seed: int
) -> list[UpdateArrival]:
    """Materialize a workload spec's ingest mix (inserts and deletes).

    Seeded ``seed + 2`` — its own rng stream next to the arrival stream
    (``seed``) and the query selector (``seed + 1``), so turning ingest
    on never perturbs the query side.  Insert vectors are dataset rows
    plus small Gaussian noise (new objects from the same distribution);
    delete targets are drawn from the *scheduled* live population —
    initial objects and earlier scheduled inserts — so deletes can hit
    objects still sitting in a delta table.
    """
    if workload.mode != "open":
        raise ValueError("workload_updates needs an open-loop workload spec")
    if workload.ingest_requests == 0:
        return []
    rng = np.random.default_rng(seed + 2)
    n = workload.ingest_requests
    gap_ns = NS_PER_S / workload.ingest_qps
    if workload.ingest_shape == "poisson":
        times = np.cumsum(rng.exponential(gap_ns, size=n))
    else:
        times = np.cumsum(np.full(n, gap_ns))
    initial_n = int(data.shape[0])
    noise_scale = 0.05 * float(data.std())
    live: list[int] = list(range(initial_n))
    next_scheduled = initial_n
    updates: list[UpdateArrival] = []
    for i in range(n):
        is_delete = bool(live) and float(rng.random()) < workload.delete_fraction
        if is_delete:
            slot = int(rng.integers(len(live)))
            target = live.pop(slot)
            updates.append(
                UpdateArrival(
                    update_id=i,
                    time_ns=float(times[i]),
                    kind="delete",
                    object_id=target,
                )
            )
        else:
            row = int(rng.integers(initial_n))
            vector = data[row] + rng.normal(scale=noise_scale, size=data.shape[1])
            updates.append(
                UpdateArrival(
                    update_id=i,
                    time_ns=float(times[i]),
                    kind="insert",
                    object_id=next_scheduled,
                    vector=np.ascontiguousarray(vector, dtype=np.float32),
                )
            )
            live.append(next_scheduled)
            next_scheduled += 1
    return updates


#: The ServingConfig fields an index is built from (the fleet's shape,
#: under the names ``ShardedIndex.build`` takes them by); routing,
#: batching and ingest knobs only steer the run on top of it.
_FLEET_FIELDS = (
    "n_shards", "scheme", "device", "devices_per_shard", "interface", "replicas",
)


def _built_from(spec: ScenarioSpec) -> tuple[tuple[str, Any], ...]:
    """Everything of ``spec`` that :func:`build_scenario_index` reads."""
    return (
        *((f"data.{name}", value) for name, value in spec.data.to_dict().items()),
        ("seed", spec.seed),
        *((f"serving.{name}", getattr(spec.serving, name)) for name in _FLEET_FIELDS),
        ("faults", spec.faults),
    )


@dataclass(frozen=True)
class ScenarioIndex:
    """A built deployment, reusable across runs of compatible specs."""

    dataset: "Dataset"
    params: E2LSHParams
    sharded: ShardedIndex
    #: What :func:`build_scenario_index` built it from, which
    #: :func:`run_scenario` holds a reusing spec to.
    built_from: tuple[tuple[str, Any], ...] = ()


def build_scenario_index(spec: ScenarioSpec) -> ScenarioIndex:
    """Synthesize the dataset and build the sharded index a spec calls for."""
    data = spec.data
    dataset = load_dataset(
        data.dataset, n=data.n, n_queries=data.pool_queries, seed=spec.seed
    )
    rho = data.rho if data.rho is not None else DATASET_SPECS[data.dataset].rho
    params = E2LSHParams(
        n=dataset.n, rho=rho, gamma=data.gamma, s_factor=data.s_factor
    )
    sharded = ShardedIndex.build(
        dataset.data,
        params,
        seed=spec.seed,
        faults=spec.faults.events,
        **{name: getattr(spec.serving, name) for name in _FLEET_FIELDS},
    )
    return ScenarioIndex(
        dataset=dataset, params=params, sharded=sharded, built_from=_built_from(spec)
    )


@dataclass(frozen=True)
class ScenarioResult:
    """One scenario run: the report plus everything around it."""

    spec: ScenarioSpec
    report: ServiceReport
    index: ScenarioIndex
    #: The service that ran — exposes trace/metrics export and raw stats.
    service: QueryService

    @property
    def answers(self) -> dict[int, "QueryAnswer"]:
        """Merged answers keyed by query id."""
        return self.service.answers

    @property
    def records(self) -> list[QueryRecord]:
        """Per-query completion records in completion order."""
        return list(self.service.stats.records)

    @property
    def loop_profile(self) -> LoopProfile:
        """Wall-clock self-profile of the run's event loop."""
        return self.service.loop_profile

    @property
    def slo_met(self) -> bool:
        """Did the run's p99 stay within the spec's target?"""
        return self.report.p99_ns <= self.spec.target_p99_ms * NS_PER_MS

    def slo_dict(self) -> dict[str, Any]:
        """The per-scenario SLO report the ``scenarios`` CLI emits."""
        from dataclasses import asdict

        return {
            "schema": REPORT_SCHEMA,
            "scenario": self.spec.name,
            "spec": self.spec.to_dict(),
            "report": asdict(self.report),
            "slo": {
                "target_p99_ms": self.spec.target_p99_ms,
                "p99_ms": self.report.p99_ns / NS_PER_MS,
                "met": self.slo_met,
            },
        }


def run_scenario(
    spec: ScenarioSpec,
    *,
    tracer: Tracer | None = None,
    metrics_interval_ns: float | None = None,
    index: ScenarioIndex | None = None,
    profile_interval_ns: float | None = None,
) -> ScenarioResult:
    """Run one scenario end to end and report against its SLO.

    ``index`` lets callers reuse a built deployment across several runs
    (e.g. the routing-policy sweep in ``experiments/serving``).  It must
    have been built from a spec with the same data, seed, fleet shape
    and faults, or this raises ``ValueError``; routing, batching, ingest
    knobs, workload and SLO may differ.

    ``profile_interval_ns`` is an *execution* knob, not part of the
    spec: it changes how the simulator's wall throughput is sampled,
    never the simulated outcome, so it does not participate in the
    spec's JSON round-trip.
    """
    if index is None:
        index = build_scenario_index(spec)
    for (name, built), (_, wanted) in zip(index.built_from, _built_from(spec)):
        if built != wanted:
            raise ValueError(
                f"index was built with {name}={built!r}, the spec says {wanted!r}"
            )
    service = QueryService(
        index.sharded,
        dispatch=spec.serving.dispatch_config(),
        routing=spec.serving.routing_config(),
        workers_per_shard=spec.serving.workers_per_shard,
        tracer=tracer,
        metrics_interval_ns=metrics_interval_ns,
        profile_interval_ns=profile_interval_ns,
    )
    pool = index.dataset.queries
    workload = spec.workload
    if workload.mode == "closed":
        closed = ClosedLoopWorkload(
            concurrency=workload.concurrency,
            n_queries=workload.requests,
            think_time_ns=workload.think_time_us * NS_PER_US,
            zipf_s=workload.zipf_s,
            seed=spec.seed,
        )
        report = service.run_closed_loop(pool, closed, k=spec.k)
    else:
        arrivals = workload_arrivals(workload, pool.shape[0], spec.seed)
        if workload.ingest_requests > 0:
            updates = workload_updates(workload, index.dataset.data, spec.seed)
            report = service.run_arrivals(
                pool,
                arrivals,
                k=spec.k,
                updates=updates,
                ingest=spec.serving.ingest_config(),
            )
        else:
            report = service.run_arrivals(pool, arrivals, k=spec.k)
    return ScenarioResult(spec=spec, report=report, index=index, service=service)
