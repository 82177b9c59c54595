"""Benchmark regenerating Fig. 16: 512-byte packets, FW -> NAT, 40 GbE."""

from _harness import bench_runner, run_registered


def test_fig16_small_packets(benchmark):
    rows = run_registered(benchmark, "fig16", runner=bench_runner())
    top = [row for row in rows if row["send_rate_gbps"] >= 40.0]
    low = [row for row in rows if row["send_rate_gbps"] <= 28.0]
    # Beyond the baseline's NIC/PCIe ceiling PayloadPark keeps processing more packets.
    assert all(
        row["payloadpark_goodput_gbps"] > row["baseline_goodput_gbps"] * 1.05 for row in top
    )
    # Before saturation PayloadPark's latency is no worse than the baseline's.
    assert all(
        row["payloadpark_latency_us"] <= row["baseline_latency_us"] * 1.10 for row in low
    )
