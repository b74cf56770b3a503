"""Replication under a fault: hedged routing must rescue the tail.

The acceptance claim: with 4 shards x 2 replicas and one replica
degraded 5x, hedged routing achieves strictly lower p99 than
round-robin at the same offered load — and every replicated deployment
returns answers bit-identical to the single-copy one (replication
changes *when* a query completes, never *what* it answers).
"""

from repro.experiments import serving


def test_serving_replicas(scale, bench_dataset, benchmark):
    rows = benchmark.pedantic(
        serving.run_replicas,
        args=(scale, bench_dataset),
        rounds=1,
        iterations=1,
    )
    print("\n" + serving.format_table(rows, serving.REPLICA_COLUMNS))

    by_policy = {row.spec.serving.routing: row for row in rows if row.spec.faults}
    single = next(row for row in rows if not row.spec.faults)
    round_robin = by_policy["round_robin"]
    hedged = by_policy["hedged"]

    # Headline: at the same offered load, hedging a 5x-degraded replica
    # cuts p99 strictly below oblivious round-robin.
    assert hedged.report.p99_ns < round_robin.report.p99_ns

    # The slow replica visibly drags round-robin's tail versus a healthy
    # single-copy fleet; hedging is what claws most of it back.
    assert round_robin.report.p99_ns > 2.0 * single.report.p99_ns

    # Hedges fired and some won the race (a no-fault fleet ties instead).
    assert hedged.report.hedges_issued > 0
    assert hedged.report.hedge_wins > 0

    # Hedging buys the tail with duplicate I/O: bounded, visible overhead.
    assert hedged.report.mean_ios_per_query > round_robin.report.mean_ios_per_query
    assert hedged.report.mean_ios_per_query < 2.0 * round_robin.report.mean_ios_per_query

    # Replicas are exact copies: answers identical to single-copy, and
    # hence identical accuracy.
    for row in rows:
        assert row.report.rejected == 0
        assert row.answers_match
        assert row.ratio == single.ratio
