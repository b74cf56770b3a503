"""Table 6: index size and runtime memory usage."""

from repro.experiments import table6_memory


def test_table6(scale, benchmark):
    rows = benchmark.pedantic(table6_memory.run, args=(scale,), rounds=1, iterations=1)
    print("\n" + table6_memory.format_table(rows))

    for row in rows:
        # The on-storage index dwarfs what E2LSHoS keeps in DRAM.
        assert row.e2lshos_storage_bytes > 5 * row.e2lshos_index_mem_bytes, row.dataset
        # Runtime memory usage stays comparable.  The bound is 3x here
        # rather than the paper's near-parity because our exact
        # occupancy filter costs 4 B/object/table — negligible against
        # the paper's 130 GB database, visible against our scaled-down
        # ones (the filter is described in repro/layout/builder.py).
        assert row.e2lshos_mem_usage_bytes < 3.0 * row.srs_mem_usage_bytes, row.dataset
        assert row.srs_mem_usage_bytes < 3.0 * row.e2lshos_mem_usage_bytes, row.dataset
