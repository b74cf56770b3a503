"""Figure 13: speedups over SRS for all datasets, k = 1 and k = 100."""

from repro.experiments import fig13_speedup_all


def test_fig13(scale, benchmark):
    rows = benchmark.pedantic(
        fig13_speedup_all.run, args=(scale, (1, 100)), rounds=1, iterations=1
    )
    print("\n" + fig13_speedup_all.format_table(rows))

    # The paper's E2LSHoS beats SRS on every dataset at n >= 1M.  At our
    # scaled-down n the *easiest* analogs give SRS so little work
    # (tens of microseconds) that the slowest storage path can tie it;
    # the shape check therefore demands a clear win on the fast
    # interface everywhere and near-parity or better on the slow ones
    # (see the README's "Tests and benchmarks" for the scale discussion).
    floor = 0.75 if scale.name != "small" else 0.6
    for row in rows:
        assert row.io_uring_speedup > floor, f"{row.dataset} k={row.k} io_uring"
        assert row.spdk_speedup > floor, f"{row.dataset} k={row.k} spdk"
        assert row.xlfdd_speedup > 1.0, f"{row.dataset} k={row.k} xlfdd"
        # Faster interfaces are at least as fast as io_uring.
        assert row.xlfdd_speedup >= row.io_uring_speedup * 0.95
        # XLFDD approaches the in-memory speedup.
        assert row.xlfdd_speedup > row.inmemory_speedup * 0.7

    # The benefit grows with dataset size (sublinear vs linear time); at
    # our compressed scale the largest dataset must at least sit in the
    # upper part of the speedup range, not at its bottom.
    k1 = [r for r in rows if r.k == 1]
    if any(r.dataset == "bigann" for r in k1):
        bigann = next(r for r in k1 if r.dataset == "bigann")
        assert bigann.xlfdd_speedup >= max(r.xlfdd_speedup for r in k1) * 0.4
        assert bigann.xlfdd_speedup > min(r.xlfdd_speedup for r in k1)
