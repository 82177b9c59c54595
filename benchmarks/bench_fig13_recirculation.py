"""Benchmark regenerating Fig. 13: packet recirculation (384 parked bytes)."""

from _harness import bench_runner, run_registered


def test_fig13_recirculation(benchmark):
    rows = run_registered(benchmark, "fig13", runner=bench_runner())
    saturated = [row for row in rows if row["send_rate_gbps"] >= 12.0]
    # Past the baseline's saturation, parking 384 bytes beats parking 160.
    assert all(row["pp384_gain_percent"] >= row["pp160_gain_percent"] for row in saturated)
    # Recirculation increases the PCIe savings while the baseline link is not
    # yet saturated (paper: ≈23 % for all send rates before saturation).
    unsaturated = [row for row in rows if row["send_rate_gbps"] <= 10.5]
    assert all(row["pp384_pcie_savings_percent"] > 15.0 for row in unsaturated)
