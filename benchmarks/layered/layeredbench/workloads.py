"""The four workloads.  Names and sizes are fixed; later issues cite them.

All use the ``sift`` analog (d=128) and k=10.  The seed drives dataset
synthesis, index build, arrivals and selection; the program only ever
sees generated inputs.  Each workload splits into

- ``setup()``  — dataset + ground truth + index build (``setup_s``),
- ``run()``    — the measured phase: only calls into the program,
- ``check()``  — untimed: verification, simulated metrics, digest.

Why these four (one line each; the README has the full table):

- ``serve-steady``: service loop + dispatcher + engine stepping + task
  bodies do the work; a 32-query Zipf pool makes the hash-plan memo hit
  ~100%, so wave planning does almost none.  Open-loop rate ladder.
- ``serve-ingest``: the same engine/device/layout layers used for
  writes beside reads (read-modify-write merges, pack/unpack).
- ``node-query``: the paper's own experiment (one consumer SSD, async
  interface), no serving stack, 4096 distinct queries: plan memo 0%.
- ``paper-sweep``: the tier-1 hog — SRS/QALSH/in-memory E2LSH accuracy
  sweep; touches no storage and no serving code (the control).
"""

from __future__ import annotations

import dataclasses
import importlib
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

import repro.baselines.qalsh as qalsh
import repro.baselines.srs as srs
import repro.core.e2lsh as e2lsh
import repro.datasets.registry as registry
import repro.eval.ground_truth as ground_truth
import repro.eval.ratio as ratio
import repro.serving.scenario as scenario
from layeredbench.checks import Digest, bad_answers, require
from repro.core.e2lshos import E2LSHoSIndex
from repro.core.lsh import CompoundHashBank
from repro.core.radii import RadiusLadder
from repro.eval.harness import MethodRun, tune_to_ratio
from repro.experiments.common import MACHINE, params_for
from repro.experiments.config import DEFAULT_SCALE
from repro.serving.service import QueryService
from repro.storage.profiles import make_engine

# ``repro.serving`` re-exports a ``catalog()`` function that shadows the
# submodule attribute, so fetch the module itself.
catalog = importlib.import_module("repro.serving.catalog")

__all__ = ["RepOutput", "WORKLOADS", "make_workload"]

K = 10
DATASET = "sift"
#: Hard accuracy failure (paper target 1.05; the margin is for unseen seeds).
RATIO_LIMIT = 1.10
#: Open-loop offered rates of the ``serve-steady`` ladder, sim-qps.
LADDER = (8000, 24000, 40000, 64000)
#: Rung whose latency, I/O and accuracy figures are reported.
REFERENCE_RATE = 24000
#: Overload rung: its achieved throughput is the saturation ``sim_qps``.
SATURATION_RATE = 64000
#: ``serving.ladder.max_rate_qps``: highest rung with p99 within this
#: limit, nothing rejected, and throughput >= 95% of offered.
LADDER_P99_LIMIT_MS = 4.0


@dataclass
class RepOutput:
    """What one measured repetition produced, after checking."""

    #: Operations offered (queries; + updates; query evaluations).
    ops: int
    #: Operations that failed: rejected, unanswered, or failing a check.
    failed: int
    #: One line per violated check (also counted in ``failed``).
    failures: list[str]
    #: Deterministic simulated metrics, end-to-end and per-layer names.
    sim: dict[str, float]
    digest: str
    #: Host seconds / events inside the service loop (serve-* only).
    loop_wall_s: float = 0.0
    loop_events: int = 0
    notes: dict[str, Any] = field(default_factory=dict)


def _stats_ratios(answers: list[Any]) -> dict[str, float]:
    """The three algorithmic ratios of ``core.e2lshos``, from QueryAnswer.stats."""
    n = max(1, len(answers))
    probed = sum(a.stats.buckets_probed for a in answers)
    return {
        "core.e2lshos.rungs_per_query": sum(a.stats.rungs_searched for a in answers) / n,
        "core.e2lshos.candidates_per_query": sum(a.stats.candidates_checked for a in answers) / n,
        "core.e2lshos.nonempty_bucket_ratio": (
            sum(a.stats.nonempty_buckets for a in answers) / probed if probed else 0.0
        ),
    }


#: Arrivals are scheduled on the simulated clock before the run starts,
#: so the open-loop generator is never late.
_OPEN_LOOP_NOTES = {"open_loop_generator_lateness_ms": 0.0}


def _loop_figures(results: list[Any]) -> tuple[dict[str, float], float, int]:
    """Service-loop event counts summed over runs: (metrics, host s, events)."""
    profiles = [result.loop_profile.as_dict() for result in results]
    counts = {
        f"serving.service.{key}": float(sum(profile[key] for profile in profiles))
        for key in ("events_total", "engine_steps", "flushes")
    }
    wall_s = sum(profile["wall_seconds"] for profile in profiles)
    return counts, wall_s, sum(profile["events_total"] for profile in profiles)


def _check_ratio(failures: list[str], value: float) -> None:
    require(failures, value <= RATIO_LIMIT, f"overall_ratio {value:.4f} above {RATIO_LIMIT}")


def _check_service(
    result: Any,
    vectors: np.ndarray,
    failures: list[str],
    digest: Digest,
    label: str,
    updates_offered: int = 0,
) -> tuple[int, list[Any], list[Any]]:
    """Verify one service run (a ``ScenarioResult``) against ``vectors``.

    Returns (failed operations, completion records by query id, their
    answers); violated conservation checks go to ``failures``.
    """
    report = result.report
    workload = result.spec.workload
    pool = result.index.dataset.queries
    records = sorted(result.records, key=lambda r: r.query_id)
    answers = [result.answers[r.query_id] for r in records]
    failed = report.rejected + max(0, workload.requests - report.completed - report.rejected)
    failed += report.updates_rejected
    failed += bad_answers(answers, pool[[r.pool_index for r in records]], vectors, K)
    require(
        failures,
        report.completed + report.rejected == workload.requests,
        f"{label}: completed + rejected != offered",
    )
    require(
        failures,
        report.updates_completed + report.updates_rejected + report.updates_noop
        == updates_offered,
        f"{label}: update conservation violated",
    )
    reads = sum(report.shard_io_counts)
    require(
        failures,
        reads == sum(sum(row) for row in report.replica_io_counts)
        and reads == sum(a.stats.ios_issued for a in answers),
        f"{label}: per-shard reads, per-replica reads and per-query I/Os disagree",
    )
    digest.add(label, dataclasses.asdict(report), result.loop_profile.event_counts())
    digest.add([(r.query_id, r.pool_index, r.arrival_ns, r.finish_ns) for r in records])
    digest.add_answers(answers)
    return failed, records, answers


class ServeSteady:
    name = "serve-steady"
    fresh_setup_per_rep = False
    #: Set-ups timed in an untraced run (median reported); ~0.5 s each,
    #: the first one cold.
    timed_setups = 5

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.n, self.pool, self.requests = (1200, 16, 32) if smoke else (8000, 256, 2048)

    def _spec(self, rate: int) -> Any:
        size = catalog.CatalogScale(
            n=self.n, pool_queries=self.pool, requests=self.requests, qps=float(rate)
        )
        return dataclasses.replace(catalog.steady_state(size), seed=self.seed)

    def setup(self) -> None:
        self.index = scenario.build_scenario_index(self._spec(LADDER[0]))
        dataset = self.index.dataset
        self.truth = ground_truth.exact_knn(dataset.data, dataset.queries, k=K)

    def run(self) -> dict[int, Any]:
        return {rate: scenario.run_scenario(self._spec(rate), index=self.index) for rate in LADDER}

    def check(self, results: dict[int, Any]) -> RepOutput:
        failures: list[str] = []
        digest = Digest()
        failed = 0
        sim, loop_wall_s, loop_events = _loop_figures(list(results.values()))
        max_rate = 0
        for rate in LADDER:
            result = results[rate]
            report = result.report
            bad, records, answers = _check_service(
                result, self.index.dataset.data, failures, digest, f"r{rate}"
            )
            failed += bad
            p99_ms = report.p99_ns / 1e6
            sim[f"serving.ladder.p99_ms.r{rate}"] = p99_ms
            if (
                p99_ms <= LADDER_P99_LIMIT_MS
                and report.rejected == 0
                and report.throughput_qps >= 0.95 * rate
            ):
                max_rate = rate
            if rate == SATURATION_RATE:
                sim["sim_qps"] = report.throughput_qps
            if rate == REFERENCE_RATE:
                pool_rows = [r.pool_index for r in records]
                truth = ground_truth.GroundTruth(
                    ids=self.truth.ids[pool_rows], distances=self.truth.distances[pool_rows]
                )
                sim.update(
                    sim_p50_ms=report.p50_ns / 1e6,
                    sim_p99_ms=p99_ms,
                    sim_ios_per_query=report.mean_ios_per_query,
                    overall_ratio=ratio.overall_ratio([a.distances for a in answers], truth, k=K),
                    **_stats_ratios(answers),
                    **_dispatcher_figures(report),
                )
        sim["serving.ladder.max_rate_qps"] = float(max_rate)
        _check_ratio(failures, sim["overall_ratio"])
        return RepOutput(
            ops=self.requests * len(LADDER),
            failed=failed + len(failures),
            failures=failures,
            sim=sim,
            digest=digest.add(sim).hexdigest(),
            loop_wall_s=loop_wall_s,
            loop_events=loop_events,
            notes=_OPEN_LOOP_NOTES,
        )


def _dispatcher_figures(report: Any) -> dict[str, float]:
    return {
        "serving.dispatcher.mean_batch_size": report.mean_batch_size,
        "serving.dispatcher.mean_queue_depth": report.mean_queue_depth,
        "serving.dispatcher.max_queue_depth": float(report.max_queue_depth),
    }


class ServeIngest:
    name = "serve-ingest"
    #: Merges mutate the block store, so every repetition gets a fresh
    #: index; each of those builds is also one ``setup_s`` sample.
    fresh_setup_per_rep = True
    timed_setups = 1

    def __init__(self, seed: int, smoke: bool) -> None:
        # n=6000, not 8000: the 13-bit id codec caps an n=8000 index at
        # 191 inserts and the rest would be shed.
        n, pool, requests = (1200, 16, 64) if smoke else (6000, 256, 1024)
        size = catalog.CatalogScale(n=n, pool_queries=pool, requests=requests, qps=4000.0)
        self.spec = dataclasses.replace(catalog.steady_ingest(size), seed=seed)

    def setup(self) -> None:
        self.index = scenario.build_scenario_index(self.spec)
        data = self.index.dataset.data
        initial_n = data.shape[0]
        scheduled = scenario.workload_updates(self.spec.workload, data, self.spec.seed)
        # Deletes aimed at a *scheduled insert* are dropped (a handful
        # of the stream).  Such a delete can annihilate an insert that
        # is still in the DRAM delta, after which the table-partitioned
        # ingest path reports later merged inserts under the wrong id
        # (store-local ids drift from global ids) — this benchmark's
        # verification found that: 198 of 1024 answers at seed 7.  See
        # README "Observations for later issues"; delete this filter
        # when that is fixed.
        self.updates = [
            u for u in scheduled if u.kind == "insert" or u.object_id < initial_n
        ]
        # The vector the benchmark holds for every id: initial rows, then
        # the scheduled inserts (ids are assigned in schedule order).
        inserts = [u.vector for u in self.updates if u.kind == "insert"]
        self.vectors = np.vstack([data, *[v[None, :] for v in inserts]])

    def run(self) -> Any:
        # ``run_scenario``'s open-loop branch, spelled out so the update
        # stream above can be passed in (it regenerates its own).
        spec, index = self.spec, self.index
        pool = index.dataset.queries
        service = QueryService(
            index.sharded,
            dispatch=spec.serving.dispatch_config(),
            routing=spec.serving.routing_config(),
            workers_per_shard=spec.serving.workers_per_shard,
        )
        arrivals = scenario.workload_arrivals(spec.workload, pool.shape[0], spec.seed)
        report = service.run_arrivals(
            pool, arrivals, k=spec.k, updates=self.updates, ingest=spec.serving.ingest_config()
        )
        return scenario.ScenarioResult(spec=spec, report=report, index=index, service=service)

    def check(self, result: Any) -> RepOutput:
        failures: list[str] = []
        digest = Digest()
        report = result.report
        workload = self.spec.workload
        failed, records, answers = _check_service(
            result, self.vectors, failures, digest, "ingest", updates_offered=len(self.updates)
        )
        update_records = result.service.stats.update_records
        digest.add([(r.update_id, r.kind, r.arrival_ns, r.finish_ns) for r in update_records])
        loop_counts, loop_wall_s, loop_events = _loop_figures([result])
        sim = {
            **loop_counts,
            "sim_qps": report.throughput_qps,
            "sim_p50_ms": report.p50_ns / 1e6,
            "sim_p99_ms": report.p99_ns / 1e6,
            "sim_ios_per_query": report.mean_ios_per_query,
            "sim_write_ios_per_update": (
                report.merge_write_ios / report.updates_completed
                if report.updates_completed
                else 0.0
            ),
            "overall_ratio": self._ratio_at_completion(answers, records, update_records),
            "serving.ingest.merges_completed": float(report.merges_completed),
            "serving.ingest.merge_write_bytes": float(report.merge_write_bytes),
            "serving.ingest.merge_debt": float(sum(report.shard_merge_debt)),
            **_stats_ratios(answers),
            **_dispatcher_figures(report),
        }
        _check_ratio(failures, sim["overall_ratio"])
        return RepOutput(
            ops=workload.requests + len(self.updates),
            failed=failed + len(failures),
            failures=failures,
            sim=sim,
            digest=digest.add(sim).hexdigest(),
            loop_wall_s=loop_wall_s,
            loop_events=loop_events,
            notes=_OPEN_LOOP_NOTES,
        )

    def _ratio_at_completion(
        self, answers: list[Any], records: list[Any], update_records: list[Any]
    ) -> float:
        """Overall ratio against the exact k-NN of the corpus each query saw.

        An insert is visible from the simulated time it was applied and
        a delete hides its target from then on; a query is judged
        against the objects visible when it completed.
        """
        total = self.vectors.shape[0]
        initial_n = self.index.dataset.data.shape[0]
        born = np.zeros(total)
        born[initial_n:] = math.inf
        dead = np.full(total, math.inf)
        applied = {r.update_id: r.finish_ns for r in update_records}
        for update in self.updates:
            when = applied.get(update.update_id)
            if when is None:
                continue
            (born if update.kind == "insert" else dead)[update.object_id] = when
        pool = self.index.dataset.queries.astype(np.float64)
        vectors = self.vectors.astype(np.float64)
        squared = (
            (pool**2).sum(axis=1)[:, None]
            + (vectors**2).sum(axis=1)[None, :]
            - 2.0 * pool @ vectors.T
        )
        distances = np.sqrt(np.maximum(squared, 0.0))
        exact = np.empty((len(records), K))
        for row, record in enumerate(records):
            visible = (born < record.finish_ns) & (dead >= record.finish_ns)
            seen = distances[record.pool_index][visible]
            exact[row] = np.sort(np.partition(seen, K - 1)[:K])
        truth = ground_truth.GroundTruth(ids=np.zeros_like(exact, dtype=np.int64), distances=exact)
        return ratio.overall_ratio([a.distances for a in answers], truth, k=K)


class NodeQuery:
    name = "node-query"
    fresh_setup_per_rep = False
    #: The one large ``IndexBuilder.build`` (~4 s) is timed once.
    timed_setups = 1
    #: Queries whose accuracy is judged against exact k-NN.
    judged = 256

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.n, self.n_queries = (3000, 96) if smoke else (20000, 4096)

    def setup(self) -> None:
        dataset = registry.load_dataset(DATASET, n=self.n, n_queries=self.n_queries, seed=self.seed)
        self.dataset = dataset
        self.truth = ground_truth.exact_knn(dataset.data, dataset.queries[: self.judged], k=K)
        self.index = E2LSHoSIndex.build(
            dataset.data, params_for(DATASET, self.n, gamma=0.8), seed=self.seed
        )

    def run(self) -> Any:
        # Fresh engine and cold query caches every repetition: all
        # queries are distinct, so every wave is planned from scratch.
        self.index.invalidate_query_caches()
        engine = make_engine(self.index.built.store, "cssd", 1, "io_uring")
        return self.index.run(self.dataset.queries, engine, k=K)

    def check(self, batch: Any) -> RepOutput:
        failures: list[str] = []
        answers = batch.answers
        engine = batch.engine
        failed = max(0, self.n_queries - len(answers))
        failed += bad_answers(answers, self.dataset.queries, self.dataset.data, K)
        require(
            failures,
            engine.io_count == sum(a.stats.ios_issued for a in answers),
            "engine io_count != sum of per-query I/Os",
        )
        judged = answers[: self.truth.ids.shape[0]]
        sim = {
            "sim_qps": batch.queries_per_second,
            "sim_ios_per_query": engine.io_count / self.n_queries,
            "overall_ratio": ratio.overall_ratio([a.distances for a in judged], self.truth, k=K),
            **_stats_ratios(answers),
        }
        _check_ratio(failures, sim["overall_ratio"])
        digest = Digest().add(
            engine.makespan_ns, engine.finish_times_ns, engine.io_count,
            engine.compute_ns, engine.io_cpu_ns, engine.stall_ns,
        )
        digest.add_answers(answers)
        return RepOutput(
            ops=self.n_queries,
            failed=failed + len(failures),
            failures=failures,
            sim=sim,
            digest=digest.add(sim).hexdigest(),
        )


class PaperSweep:
    name = "paper-sweep"
    fresh_setup_per_rep = False
    timed_setups = 1
    gammas = (1.3, 0.8, 0.5)
    fixed_gamma = 0.8
    target_ratio = 1.05

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.n, self.n_queries = (1500, 6) if smoke else (20000, 32)
        self.srs_fractions = (0.004, 0.02, 0.08) if smoke else DEFAULT_SCALE.srs_fractions
        self.qalsh_cs = (2.5, 1.7) if smoke else DEFAULT_SCALE.qalsh_cs

    def setup(self) -> None:
        dataset = registry.load_dataset(DATASET, n=self.n, n_queries=self.n_queries, seed=self.seed)
        self.dataset = dataset
        self.truth = ground_truth.exact_knn(dataset.data, dataset.queries, k=K)
        # One full-width bank and one ladder shared by every gamma, as
        # the paper harness does (experiments.common._e2lsh_indices).
        base = params_for(DATASET, self.n, gamma=max(self.gammas))
        ladder = RadiusLadder.for_data(dataset.data, base.c)
        bank = CompoundHashBank.create(d=dataset.d, m=base.m, L=base.L, w=base.w, seed=self.seed)
        projections = bank.project(dataset.data)
        self.e2lsh = {}
        for gamma in self.gammas:
            params = params_for(DATASET, self.n, gamma=gamma)
            self.e2lsh[gamma] = e2lsh.E2LSHIndex(
                dataset.data,
                params,
                ladder=ladder,
                bank=bank.with_m(params.m),
                projections=bank.select_projection_columns(projections, params.m),
            )
        self.srs = srs.SRSIndex(dataset.data, seed=self.seed)
        self.qalsh = qalsh.QALSHIndex(dataset.data, seed=self.seed)

    def _method_run(self, knob: float, answers: list[Any], time_ns: Any) -> MethodRun:
        return MethodRun(
            knob=knob,
            overall_ratio=ratio.overall_ratio([a.distances for a in answers], self.truth, k=K),
            mean_time_ns=float(np.mean([time_ns(a.stats.ops) for a in answers])),
            stats=[a.stats for a in answers],
            answers=answers,
        )

    def run(self) -> dict[str, Any]:
        queries = self.dataset.queries

        def run_e2lsh(gamma: float) -> MethodRun:
            answers = self.e2lsh[gamma].query_batch(queries, k=K)
            return self._method_run(gamma, answers, MACHINE.inmemory_e2lsh_ns)

        def run_srs(fraction: float) -> MethodRun:
            t_prime = max(K, math.ceil(fraction * self.n))
            answers = self.srs.query_batch(queries, k=K, t_prime=t_prime)
            return self._method_run(fraction, answers, MACHINE.compute_ns)

        def run_qalsh(c: float) -> MethodRun:
            answers = self.qalsh.query_batch(queries, k=K, c=c)
            return self._method_run(c, answers, MACHINE.compute_ns)

        return {
            "e2lsh": tune_to_ratio("e2lsh", run_e2lsh, self.gammas, self.target_ratio),
            "srs": tune_to_ratio("srs", run_srs, self.srs_fractions, self.target_ratio),
            "qalsh": tune_to_ratio("qalsh", run_qalsh, self.qalsh_cs, self.target_ratio),
        }

    def check(self, tuned: dict[str, Any]) -> RepOutput:
        failures: list[str] = []
        digest = Digest()
        failed = 0
        for method, sweep in tuned.items():
            for run in sweep.runs:
                failed += max(0, self.n_queries - len(run.answers))
                failed += bad_answers(run.answers, self.dataset.queries, self.dataset.data, K)
                digest.add(method, run.knob, run.overall_ratio, run.mean_time_ns)
                digest.add_answers(run.answers)
        # Simulated figures at one *fixed* knob (the gamma node-query
        # uses): the selected knob flips between seeds, a fixed one
        # moves only when the algorithm or the machine model does.
        (fixed,) = [run for run in tuned["e2lsh"].runs if run.knob == self.fixed_gamma]
        sim = {
            # The harness's own clock: operation counts through the
            # machine model, in-memory E2LSH.
            "sim_qps": 1e9 / fixed.mean_time_ns,
            # The paper's N_io,inf estimator: 2 x non-empty buckets.
            "sim_ios_per_query": float(
                np.mean([stats.n_io_infinite_block for stats in fixed.stats])
            ),
            "overall_ratio": max(sweep.selected.overall_ratio for sweep in tuned.values()),
        }
        for method, sweep in tuned.items():
            sim[f"paper-sweep.selected_knob.{method}"] = float(sweep.selected.knob)
        _check_ratio(failures, sim["overall_ratio"])
        return RepOutput(
            ops=sum(len(sweep.runs) for sweep in tuned.values()) * self.n_queries,
            failed=failed + len(failures),
            failures=failures,
            sim=sim,
            digest=digest.add(sim).hexdigest(),
        )


WORKLOADS = {w.name: w for w in (ServeSteady, ServeIngest, NodeQuery, PaperSweep)}


def make_workload(name: str, seed: int, smoke: bool = False) -> Any:
    """Instantiate one of the four workloads by its fixed name."""
    return WORKLOADS[name](seed, smoke)
