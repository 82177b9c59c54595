"""Benchmark regenerating Fig. 7 and the §6.2.1 40 GbE result."""

from _harness import bench_runner, run_registered

from repro.experiments import fig07_goodput_latency
from repro.telemetry.report import render_table


def test_fig07_goodput_latency_sweep(benchmark):
    rows = run_registered(benchmark, "fig07", runner=bench_runner())
    below = [row for row in rows if row["send_rate_gbps"] <= 9.5]
    above = [row for row in rows if row["send_rate_gbps"] >= 10.5]
    # Below link saturation the deployments are equivalent and healthy.
    assert all(row["baseline_healthy"] and row["payloadpark_healthy"] for row in below)
    # Past saturation PayloadPark delivers more useful bytes to the NFs.
    assert all(row["goodput_gain_percent"] > 0 for row in above)


def test_fig07_40ge_fw_nat_gain(benchmark):
    row = benchmark.pedantic(
        lambda: fig07_goodput_latency.run_40ge_fw_nat(runner=bench_runner()),
        rounds=1,
        iterations=1,
    )
    print()
    print("§6.2.1 — FW -> NAT on OpenNetVM, 40 GbE NIC")
    print(render_table([row]))
    benchmark.extra_info["rows"] = [row]
    assert row["pcie_savings_percent"] > 5.0
