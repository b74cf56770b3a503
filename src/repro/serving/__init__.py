"""Multi-shard query serving on top of the E2LSHoS simulator.

The paper's async engine (Sec. 5.4, Eq. 7) makes a single disk-resident
index CPU/IOPS-bound; this package puts a *service* in front of it:

- :mod:`repro.serving.sharding` — partition a dataset across shards,
  each with its own device volume and async engine; scatter-gather
  top-k merging.
- :mod:`repro.serving.replication` — R-way replica groups per shard,
  routing policies (round-robin, least-outstanding, hedged requests),
  and fault injection (degraded or stalling replicas).
- :mod:`repro.serving.dispatcher` — bounded admission queues,
  micro-batching, and hedge timers in front of the replica lanes.
- :mod:`repro.serving.loadgen` — open-loop (Poisson / uniform arrivals,
  optional Zipf-skewed query reuse) and closed-loop workloads.
- :mod:`repro.serving.stats` — throughput, latency percentiles, queue
  depth, per-replica IOPS and activity, and hedge win/loss accounting.
- :mod:`repro.serving.events` — the run's one event heap: entry shape
  and the named tie-order tags (``EVENT_COMPLETION`` ...
  ``EVENT_UPDATE``) every entry carries; ``repro lint`` rule SIM001
  enforces the shape.
- :mod:`repro.serving.ingest` — streaming insert/delete traffic as a
  second traffic class: per-shard DRAM delta tables and tombstones
  queried alongside the static index, plus background merge/compaction
  jobs that rewrite deltas into the block store and compete with
  queries for device IOPS.
- :mod:`repro.serving.service` — the discrete-event loop tying
  arrivals, dispatch, hedging, ingest, and replica engines together in
  simulated time (tie order: completions -> flushes -> hedges ->
  arrivals -> updates).
- :mod:`repro.serving.config` — typed, JSON-round-trippable config
  dataclasses for every layer above (deployment, workload, fault
  timeline).
- :mod:`repro.serving.scenario` — :class:`ScenarioSpec` composing the
  configs with one seed; ``run_scenario`` replays a spec into a
  byte-identical :class:`ServiceReport`.
- :mod:`repro.serving.catalog` — the committed library of situations
  (steady state, flash crowd, diurnal, hot-set drift, stall storm,
  correlated fault) the ``repro scenarios`` CLI runs.
"""

from repro.serving.catalog import CATALOG_NAMES, build_scenario, catalog
from repro.serving.config import (
    ARRIVAL_SHAPES,
    INGEST_SHAPES,
    DataConfig,
    FaultTimeline,
    ServingConfig,
    WorkloadSpec,
)
from repro.serving.dispatcher import DispatchConfig, Dispatcher
from repro.serving.ingest import (
    INGEST_KINDS,
    IngestConfig,
    IngestCoordinator,
    MergeTicket,
    UpdateArrival,
)
from repro.serving.loadgen import (
    Arrival,
    ClosedLoopWorkload,
    DriftingSelector,
    OpenLoopWorkload,
    QuerySelector,
    open_loop_arrivals,
    thinned_arrival_times,
)
from repro.serving.replication import (
    ROUTING_POLICIES,
    FaultSpec,
    ReplicaGroup,
    ReplicaRouter,
    RoutingConfig,
    TimelineDevice,
)
from repro.serving.events import (
    EVENT_ARRIVAL,
    EVENT_COMPLETION,
    EVENT_FLUSH,
    EVENT_HEDGE,
    EVENT_UPDATE,
    TIE_ORDER,
)
from repro.serving.scenario import (
    ScenarioIndex,
    ScenarioResult,
    ScenarioSpec,
    build_scenario_index,
    run_scenario,
    workload_arrivals,
    workload_updates,
)
from repro.serving.service import QueryService
from repro.serving.sharding import Shard, ShardedIndex, ShardPlan, merge_answers, plan_shards
from repro.serving.stats import (
    MergeRecord,
    ServiceReport,
    ServiceStats,
    UpdateRecord,
    percentile,
)

__all__ = [
    "ARRIVAL_SHAPES",
    "Arrival",
    "CATALOG_NAMES",
    "ClosedLoopWorkload",
    "DataConfig",
    "DispatchConfig",
    "Dispatcher",
    "DriftingSelector",
    "EVENT_ARRIVAL",
    "EVENT_COMPLETION",
    "EVENT_FLUSH",
    "EVENT_HEDGE",
    "EVENT_UPDATE",
    "FaultSpec",
    "FaultTimeline",
    "INGEST_KINDS",
    "INGEST_SHAPES",
    "IngestConfig",
    "IngestCoordinator",
    "MergeRecord",
    "MergeTicket",
    "OpenLoopWorkload",
    "QueryService",
    "QuerySelector",
    "ROUTING_POLICIES",
    "ReplicaGroup",
    "ReplicaRouter",
    "RoutingConfig",
    "ScenarioIndex",
    "ScenarioResult",
    "ScenarioSpec",
    "ServiceReport",
    "ServiceStats",
    "ServingConfig",
    "Shard",
    "ShardPlan",
    "ShardedIndex",
    "TIE_ORDER",
    "TimelineDevice",
    "UpdateArrival",
    "UpdateRecord",
    "WorkloadSpec",
    "build_scenario",
    "build_scenario_index",
    "catalog",
    "merge_answers",
    "open_loop_arrivals",
    "percentile",
    "plan_shards",
    "run_scenario",
    "thinned_arrival_times",
    "workload_arrivals",
    "workload_updates",
]
