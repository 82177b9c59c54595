"""Benchmark regenerating Fig. 14: peak goodput vs. reserved switch memory."""

from _harness import bench_runner, run_registered


def test_fig14_peak_goodput_vs_memory(benchmark):
    rows = run_registered(benchmark, "fig14", runner=bench_runner())
    # Peak goodput must not decrease as more memory is reserved, and the
    # largest reservation must beat the smallest one.
    peaks = [row["peak_goodput_gbps"] for row in rows]
    assert peaks[-1] >= peaks[0]
    # Every reported peak is a healthy, eviction-free operating point.
    assert all(row["premature_evictions"] == 0 for row in rows)
