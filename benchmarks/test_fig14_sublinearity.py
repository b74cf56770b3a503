"""Figure 14: query time vs database size (sublinearity)."""

from repro.experiments import fig14_sublinearity


def test_fig14(scale, benchmark):
    dataset = "bigann" if "bigann" in scale.datasets else scale.datasets[0]
    rows = benchmark.pedantic(
        fig14_sublinearity.run, args=(scale, dataset), rounds=1, iterations=1
    )
    print("\n" + fig14_sublinearity.format_table(rows))

    sizes = [r.n for r in rows]
    srs_exp = fig14_sublinearity.fitted_exponent(sizes, [r.srs_ms for r in rows])
    os_exp = fig14_sublinearity.fitted_exponent(sizes, [r.e2lshos_ms for r in rows])

    # SRS is a linear-time method (its fitted exponent sits far above
    # E2LSHoS's; log-factors and fixed per-query costs pull it slightly
    # below 1.0 at small n); E2LSH(oS) is clearly sublinear.
    assert srs_exp > 0.5, f"SRS exponent {srs_exp:.2f} should be near 1"
    assert os_exp < srs_exp - 0.2, "E2LSHoS must scale distinctly better than SRS"
    assert os_exp < 0.85, f"E2LSHoS exponent {os_exp:.2f} should be sublinear"

    largest = rows[-1]
    smallest = rows[0]
    # At the largest size, E2LSHoS beats SRS outright.
    assert largest.e2lshos_ms < largest.srs_ms
    # E2LSHoS tracks the in-memory curve with the same parameters.
    assert largest.e2lshos_ms < 3.0 * largest.inmemory_ms

    # The paper's small-rho crossover (its Figure 14 right panel: the
    # rho=0.09 in-memory variant becomes far slower than E2LSHoS at
    # large n) needs databases big enough that an n^0.09-sized table
    # count is starved.  At our largest analog (n <= 60k, L = 3) the
    # clustered data still yields the target accuracy cheaply, so the
    # crossover is NOT reproducible at this scale — we report the
    # curve and its growth rather than asserting the paper's endpoint
    # (see the README's "Tests and benchmarks").
    small_rho_growth = largest.small_rho_ms / smallest.small_rho_ms
    e2lshos_growth = largest.e2lshos_ms / smallest.e2lshos_ms
    print(
        f"small-rho growth {small_rho_growth:.2f}x vs E2LSHoS growth "
        f"{e2lshos_growth:.2f}x over {smallest.n}->{largest.n} "
        f"(paper regime: small-rho grows much faster)"
    )
