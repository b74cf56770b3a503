"""Serving experiments: scale-out, replication under a fault, ingest.

Not paper figures — these drive the serving subsystem (ROADMAP: heavy
traffic).  Every measured run is a :class:`ScenarioSpec` handed to
:func:`measure`; a :class:`ServingRow` *holds* the spec it ran and the
:class:`ServiceReport` it got instead of copying their fields.

- :func:`run_shards` — a closed-loop client fleet saturates each
  deployment.  One shard is the paper's single-node async E2LSHoS
  (IOPS-bound, Eq. 7) in the service stack; object partitioning
  (``hash``) scales DRAM and storage out but spreads a probed bucket's
  entries over shards, so fleet-wide I/O per query inflates by up to
  ``min(bucket_size, N)``; table partitioning (``table``) keeps the
  single node's I/O per query, so saturation QPS tracks the aggregate
  device IOPS.
- :func:`run_replicas` — tail at scale: 4 shards x 2 replicas, one
  replica degraded 5x, the *same* open-loop load under each routing
  policy.  ``round_robin`` keeps feeding the slow replica its share and
  the tail collapses; ``least_outstanding`` avoids the backed-up
  replica; ``hedged`` re-issues a sub-query still unanswered after a
  delay anchored at the observed sub-query p50, and the duplicate
  usually wins.  Replicas are exact copies, so every policy must answer
  bit-identically to the single-copy deployment.
- :func:`run_ingest` — one fleet serves one query stream twice: without
  ingest (the control) and beside an insert/delete stream at
  ``INGEST_FRACTION`` of the query rate whose background merges rewrite
  delta tables into the block store.  The headline is ``p99_penalty``
  (ingest p99 over control p99), which
  ``benchmarks/test_serving_ingest.py`` holds under ``PENALTY_BOUND``;
  :func:`rebuild_matches` checks that merged data answers exactly like
  a from-scratch rebuild.

Open-loop runs are offered ``LOAD_FRACTION`` of the saturation
throughput a closed-loop probe measures, so the healthy fleet is
comfortably provisioned and damage is attributable to routing or
ingest, not raw capacity.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, replace

import numpy as np

from repro.core.e2lsh import QueryAnswer
from repro.eval.ground_truth import GroundTruth, exact_knn
from repro.eval.ratio import overall_ratio
from repro.experiments.config import ExperimentScale
from repro.serving import (
    DataConfig,
    FaultSpec,
    FaultTimeline,
    ScenarioIndex,
    ScenarioResult,
    ScenarioSpec,
    ServiceReport,
    ServingConfig,
    ShardedIndex,
    WorkloadSpec,
    build_scenario_index,
    run_scenario,
    workload_updates,
)
from repro.utils.units import format_time

__all__ = [
    "ServingRow",
    "Column",
    "measure",
    "saturation_probe",
    "shard_spec",
    "policy_spec",
    "ingest_spec",
    "identity_spec",
    "rebuild_matches",
    "run_shards",
    "run_replicas",
    "run_ingest",
    "format_table",
    "SHARD_COLUMNS",
    "REPLICA_COLUMNS",
    "INGEST_COLUMNS",
    "K",
    "CONCURRENCY",
    "REQUESTS",
    "PROBE_REQUESTS",
    "LOAD_FRACTION",
    "CONFIGS",
    "FLEET",
    "REPLICAS",
    "FAULT_MULTIPLIER",
    "POLICIES",
    "INGEST_FLEET",
    "INGEST_FRACTION",
    "DELETE_FRACTION",
    "PENALTY_BOUND",
]

K = 10
#: Closed-loop clients (saturation runs and probes alike).
CONCURRENCY = 32
#: Queries of a measurement run / of a rate-sizing probe.
REQUESTS = 256
PROBE_REQUESTS = 128
#: Open-loop offered rate as a fraction of probed saturation throughput.
LOAD_FRACTION = 0.5
#: (shard count, partition scheme) deployments :func:`run_shards` compares.
CONFIGS: tuple[tuple[int, str], ...] = ((1, "hash"), (4, "hash"), (4, "table"))
#: The single-copy fleet of the replica and ingest runs.
FLEET = ServingConfig(n_shards=4, scheme="table")
REPLICAS = 2
FAULT_MULTIPLIER = 5.0
POLICIES: tuple[str, ...] = ("round_robin", "least_outstanding", "hedged")
#: The ingest runs' deployment.  The merge threshold is sized so a run
#: completes several merge cycles per shard — the p99 penalty must
#: include merge I/O competing with queries, not just DRAM delta scans.
INGEST_FLEET = replace(
    FLEET,
    replicas=REPLICAS,
    routing="least_outstanding",
    delta_capacity=32,
    merge_threshold=8,
    ingest_queue_capacity=128,
    merge_io_batch=16,
)
#: Ingest rate as a fraction of the offered query rate (the acceptance
#: floor is 20%; we measure at 25%).
INGEST_FRACTION = 0.25
#: Fraction of ingest updates that are deletes.
DELETE_FRACTION = 0.25
#: The pinned bound: sustained ingest at INGEST_FRACTION of the query
#: rate may cost at most this factor in query p99 versus the no-ingest
#: control at the same offered load (measured: 1.46 at the small scale,
#: 1.22 at the default scale).
PENALTY_BOUND = 1.6


@dataclass(frozen=True)
class ServingRow:
    """One measured run: what was asked, what came back, how good it was."""

    label: str
    spec: ScenarioSpec
    report: ServiceReport
    #: Overall ratio of the answers against exact ground truth.
    ratio: float
    #: Query p99 over the no-ingest control's (:func:`run_ingest` only).
    p99_penalty: float = 1.0
    #: Answers bit-identical to the experiment's reference: the
    #: single-copy deployment (:func:`run_replicas`) or a from-scratch
    #: rebuild over the grown dataset (:func:`run_ingest`).
    answers_match: bool = True


def measure(
    spec: ScenarioSpec, index: ScenarioIndex, truth: GroundTruth, label: str
) -> tuple[ServingRow, ScenarioResult]:
    """Run ``spec`` on a built ``index`` and score it against ``truth``.

    ``truth`` covers the index's whole query pool; each completed query
    is scored against the pool entry it asked.
    """
    result = run_scenario(spec, index=index)
    records = sorted(result.records, key=lambda r: r.query_id)
    asked = np.array([r.pool_index for r in records])
    ratio = overall_ratio(
        [result.answers[r.query_id].distances for r in records],
        GroundTruth(ids=truth.ids[asked], distances=truth.distances[asked]),
        k=spec.k,
    )
    return ServingRow(label=label, spec=spec, report=result.report, ratio=ratio), result


def _pool_truth(index: ScenarioIndex) -> GroundTruth:
    return exact_knn(index.dataset.data, index.dataset.queries, k=K)


def _spec(
    name: str,
    scale: ExperimentScale,
    dataset_name: str,
    serving: ServingConfig,
    workload: WorkloadSpec,
    faults: tuple[FaultSpec, ...] = (),
) -> ScenarioSpec:
    return ScenarioSpec(
        name=name,
        data=DataConfig(dataset=dataset_name, n=scale.n, pool_queries=scale.n_queries),
        serving=serving,
        workload=workload,
        faults=FaultTimeline(events=faults),
        seed=scale.seed,
        k=K,
    )


def saturation_probe(
    scale: ExperimentScale, dataset_name: str, serving: ServingConfig
) -> ScenarioResult:
    """Closed-loop run whose throughput sizes an open-loop offered rate."""
    workload = WorkloadSpec(mode="closed", requests=PROBE_REQUESTS, concurrency=CONCURRENCY)
    return run_scenario(_spec("probe", scale, dataset_name, serving, workload))


def shard_spec(
    scale: ExperimentScale, dataset_name: str, n_shards: int, scheme: str
) -> ScenarioSpec:
    """The closed-loop saturation scenario for one deployment."""
    return _spec(
        f"{n_shards}x{scheme}",
        scale,
        dataset_name,
        ServingConfig(n_shards=n_shards, scheme=scheme),
        WorkloadSpec(mode="closed", requests=REQUESTS, concurrency=CONCURRENCY),
    )


def run_shards(
    scale: ExperimentScale,
    dataset_name: str,
    configs: tuple[tuple[int, str], ...] = CONFIGS,
) -> list[ServingRow]:
    """Measure saturation throughput and p99 for each deployment."""
    rows: list[ServingRow] = []
    truth: GroundTruth | None = None
    for n_shards, scheme in configs:
        spec = shard_spec(scale, dataset_name, n_shards, scheme)
        index = build_scenario_index(spec)
        if truth is None:  # every deployment indexes the same data and pool
            truth = _pool_truth(index)
        rows.append(measure(spec, index, truth, f"{n_shards} x {scheme}")[0])
    return rows


def policy_spec(
    scale: ExperimentScale,
    dataset_name: str,
    policy: str,
    offered_qps: float,
    faulty: bool = True,
) -> ScenarioSpec:
    """The open-loop scenario for one routing policy.

    ``faulty`` is the replicated fleet with replica 1 of shard 0 slowed
    ``FAULT_MULTIPLIER``-fold; otherwise the healthy single-copy fleet.
    """
    slow = FaultSpec(shard=0, replica=1, latency_multiplier=FAULT_MULTIPLIER)
    return _spec(
        f"{'2-copy' if faulty else '1-copy'} {policy}",
        scale,
        dataset_name,
        replace(FLEET, replicas=REPLICAS if faulty else 1, routing=policy),
        WorkloadSpec(requests=REQUESTS, qps=offered_qps),
        (slow,) if faulty else (),
    )


def _answers_equal(a: Mapping[int, QueryAnswer], b: Mapping[int, QueryAnswer]) -> bool:
    return a.keys() == b.keys() and all(
        np.array_equal(a[q].ids, b[q].ids)
        and np.array_equal(a[q].distances, b[q].distances)
        for q in a
    )


def run_replicas(scale: ExperimentScale, dataset_name: str) -> list[ServingRow]:
    """Measure each routing policy's tail under a 1-slow-replica fault."""
    probe = saturation_probe(scale, dataset_name, FLEET)
    offered_qps = LOAD_FRACTION * probe.report.throughput_qps
    truth = _pool_truth(probe.index)
    # The probe's deployment IS the single-copy one, so its index is
    # reused; the replicated index is built once for the policy sweep.
    single_row, single = measure(
        policy_spec(scale, dataset_name, "round_robin", offered_qps, faulty=False),
        probe.index,
        truth,
        "1-copy",
    )
    rows = [single_row]
    replicated = build_scenario_index(
        policy_spec(scale, dataset_name, POLICIES[0], offered_qps)
    )
    for policy in POLICIES:
        spec = policy_spec(scale, dataset_name, policy, offered_qps)
        row, result = measure(spec, replicated, truth, f"2-copy {policy}")
        rows.append(
            replace(row, answers_match=_answers_equal(result.answers, single.answers))
        )
    return rows


def ingest_spec(
    scale: ExperimentScale,
    dataset_name: str,
    offered_qps: float,
    ingest_qps: float = 0.0,
) -> ScenarioSpec:
    """The open-loop scenario for one traffic mix.

    ``ingest_qps == 0`` is the no-ingest control.  The ingest run keeps
    the update stream alive for the whole query run: at
    ``INGEST_FRACTION`` of the offered rate, ``REQUESTS / 4`` updates
    span the same simulated window as ``REQUESTS`` queries.
    """
    workload = WorkloadSpec(requests=REQUESTS, qps=offered_qps)
    if ingest_qps > 0:
        workload = replace(
            workload,
            ingest_requests=round(REQUESTS * INGEST_FRACTION),
            ingest_qps=ingest_qps,
            delete_fraction=DELETE_FRACTION,
        )
    name = "steady-ingest" if ingest_qps > 0 else "no-ingest"
    return _spec(name, scale, dataset_name, INGEST_FLEET, workload)


def identity_spec() -> ScenarioSpec:
    """An insert-only ingest run for the rebuild-identity check.

    Identity is a boolean property, so it runs at one small size
    whatever the benchmark scale, and with a scan budget (``s_factor``)
    generous enough that the per-rung candidate truncation never binds:
    it cuts in block-chain order, which an incrementally grown chain
    legitimately permutes.
    """
    return ScenarioSpec(
        name="ingest-rebuild-identity",
        data=DataConfig(n=600, pool_queries=8, s_factor=512.0),
        serving=INGEST_FLEET,
        workload=WorkloadSpec(
            requests=16, qps=4_000.0, ingest_requests=48, ingest_qps=2_000.0
        ),
        seed=7,
        k=K,
    )


def rebuild_matches(spec: ScenarioSpec | None = None) -> bool:
    """Are post-merge answers identical to a from-scratch rebuild's?

    Runs an insert-only ingest scenario, compacts every residual delta
    offline, and queries the mutated fleet batch-style; then builds a
    fresh index over the grown dataset — pinning the serving fleet's
    radius ladder and derived m/L/S so both deployments hash and scan
    identically — and compares ids and distances bit-for-bit.
    """
    if spec is None:
        spec = identity_spec()
    result = run_scenario(spec)
    coordinator = result.service.ingest
    assert coordinator is not None
    coordinator.compact_now()
    sharded = result.index.sharded
    pool = result.index.dataset.queries
    served = sharded.run(pool, k=spec.k).answers

    data = result.index.dataset.data
    updates = workload_updates(spec.workload, data, spec.seed)
    inserted = [u.vector for u in updates if u.vector is not None]
    grown = np.vstack([data, np.stack(inserted)]) if inserted else data
    params = result.index.params
    rebuilt = ShardedIndex.build(
        grown,
        replace(
            params,
            n=grown.shape[0],
            m_explicit=params.m,
            L_explicit=params.L,
            S_explicit=params.S,
        ),
        n_shards=spec.serving.n_shards,
        scheme=spec.serving.scheme,
        device=spec.serving.device,
        devices_per_shard=spec.serving.devices_per_shard,
        interface=spec.serving.interface,
        seed=spec.seed,
        ladder=sharded.shards[0].index.built.ladder,
    )
    fresh = rebuilt.run(pool, k=spec.k).answers
    return all(
        np.array_equal(s.ids, f.ids) and np.array_equal(s.distances, f.distances)
        for s, f in zip(served, fresh)
    )


def run_ingest(scale: ExperimentScale, dataset_name: str) -> list[ServingRow]:
    """Measure what sustained ingest costs the query tail at fixed load.

    The control runs first on the probe's built index; the ingest run
    then reuses the same index (its merges mutate the stores, which is
    fine — nothing reads the fleet after the ingest measurement, and
    the rebuild-identity check runs on its own small deployment).
    """
    probe = saturation_probe(scale, dataset_name, INGEST_FLEET)
    offered_qps = LOAD_FRACTION * probe.report.throughput_qps
    truth = _pool_truth(probe.index)
    control, _ = measure(
        ingest_spec(scale, dataset_name, offered_qps), probe.index, truth, "no-ingest"
    )
    ingest, _ = measure(
        ingest_spec(scale, dataset_name, offered_qps, INGEST_FRACTION * offered_qps),
        probe.index,
        truth,
        "steady-ingest",
    )
    control_p99 = control.report.p99_ns
    penalty = ingest.report.p99_ns / control_p99 if control_p99 > 0 else 1.0
    return [control, replace(ingest, p99_penalty=penalty, answers_match=rebuild_matches())]


#: A right-aligned table column: (header, width, cell renderer).
Column = tuple[str, int, Callable[[ServingRow], str]]


def _hedges(row: ServingRow) -> str:
    hedging = row.spec.serving.routing == "hedged" and row.spec.serving.replicas > 1
    return f"{row.report.hedges_issued}/{row.report.hedge_wins}w" if hedging else "-"


def _updates(row: ServingRow) -> str:
    if row.spec.workload.ingest_qps <= 0:
        return "-"
    return f"{row.report.updates_completed}/{row.report.updates_rejected}r"


def _qps(row: ServingRow) -> str:
    return f"{row.report.throughput_qps:,.0f}"


def _ios(row: ServingRow) -> str:
    return f"{row.report.mean_ios_per_query:.1f}"


_OFFERED: Column = ("offered", 8, lambda row: f"{row.spec.workload.qps:,.0f}")
_QPS: Column = ("q/s", 8, _qps)
_P50: Column = ("p50", 10, lambda row: format_time(row.report.p50_ns))
_P99: Column = ("p99", 10, lambda row: format_time(row.report.p99_ns))
_RATIO: Column = ("ratio", 6, lambda row: f"{row.ratio:.3f}")
_IDENT: Column = ("ident", 5, lambda row: "yes" if row.answers_match else "NO")

SHARD_COLUMNS: tuple[Column, ...] = (
    ("deployment", 16, lambda row: row.label),
    ("sat. q/s", 10, _qps),
    _P50,
    _P99,
    ("IO/query", 9, _ios),
    _RATIO,
)
REPLICA_COLUMNS: tuple[Column, ...] = (
    ("deployment", 24, lambda row: row.label),
    _OFFERED,
    _QPS,
    _P50,
    _P99,
    ("IO/q", 7, _ios),
    ("hedges", 12, _hedges),
    _RATIO,
    _IDENT,
)
INGEST_COLUMNS: tuple[Column, ...] = (
    ("traffic mix", 16, lambda row: row.label),
    _OFFERED,
    ("ingest", 7, lambda row: f"{row.spec.workload.ingest_qps:,.0f}"),
    _QPS,
    _P50,
    _P99,
    ("pen", 5, lambda row: f"{row.p99_penalty:.2f}"),
    ("upd", 9, _updates),
    ("merges", 6, lambda row: f"{row.report.merges_completed:d}"),
    ("wMiB", 6, lambda row: f"{row.report.merge_write_bytes / 2**20:.2f}"),
    _RATIO,
    _IDENT,
)


def format_table(rows: Sequence[ServingRow], columns: Sequence[Column]) -> str:
    """Render rows under ``columns`` the way the paper's tables read."""
    lines = [" ".join(f"{header:>{width}s}" for header, width, _ in columns)]
    lines.extend(
        " ".join(f"{cell(row):>{width}s}" for _, width, cell in columns) for row in rows
    )
    return "\n".join(lines)
