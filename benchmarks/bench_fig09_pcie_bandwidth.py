"""Benchmark regenerating Fig. 9: PCIe bandwidth vs. fixed packet size."""

from _harness import bench_runner, run_registered


def test_fig09_pcie_bandwidth(benchmark):
    rows = run_registered(benchmark, "fig09", runner=bench_runner())
    savings = {row["packet_size_bytes"]: row["pcie_savings_percent"] for row in rows}
    # Savings shrink as packets grow (paper: ≈58 % at 256 B down to ≈2-10 % at 1492 B).
    assert savings[256] > savings[512] > savings[1492]
    assert savings[256] > 30.0
    assert savings[1492] > 0.0
