"""Serving scale-out: 4 shards must beat 1 shard where physics allows.

The acceptance claim: a table-partitioned 4-shard deployment sustains at
least twice the saturation QPS of a single shard at equal-or-better
p99, because fleet-wide I/O per query matches the single node while the
device pool quadruples.  Object partitioning (``hash``) is also
measured; its ``min(bucket_size, N)`` I/O inflation is asserted as the
structural finding it is.
"""

from repro.experiments import serving


def test_serving_shards(scale, bench_dataset, benchmark):
    rows = benchmark.pedantic(
        serving.run_shards,
        args=(scale, bench_dataset),
        rounds=1,
        iterations=1,
    )
    print("\n" + serving.format_table(rows, serving.SHARD_COLUMNS))

    by_config = {(row.spec.serving.n_shards, row.spec.serving.scheme): row for row in rows}
    single = by_config[(1, "hash")]
    hash4 = by_config[(4, "hash")]
    table4 = by_config[(4, "table")]

    # Headline: table partitioning turns 4x devices into >= 2x saturation
    # QPS at equal (or better) p99.
    assert table4.report.throughput_qps >= 2.0 * single.report.throughput_qps
    assert table4.report.p99_ns <= single.report.p99_ns

    # Fleet-wide I/O per query stays near the single node's under table
    # partitioning but inflates under object partitioning.
    assert table4.report.mean_ios_per_query < 2.0 * single.report.mean_ios_per_query
    assert hash4.report.mean_ios_per_query > table4.report.mean_ios_per_query

    # Scale-out never hurts saturation throughput, even object-partitioned.
    assert hash4.report.throughput_qps > 0.9 * single.report.throughput_qps

    # Sharding must not cost answer quality.
    for row in rows:
        assert row.ratio < 1.5
