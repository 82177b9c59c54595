"""Benchmark regenerating Fig. 8: goodput vs. fixed packet size."""

from _harness import bench_runner, run_registered


def test_fig08_goodput_vs_packet_size(benchmark):
    rows = run_registered(benchmark, "fig08", runner=bench_runner())
    gains = {
        (row["chain"], row["packet_size_bytes"]): row["goodput_gain_percent"] for row in rows
    }
    # PayloadPark wins for every chain at 384-1492 bytes (paper: 10-36 %)...
    for chain in ("firewall", "nat", "fw_nat"):
        for size in (512, 1024, 1492):
            assert gains[(chain, size)] > 5.0
    # ...and the gain shrinks to (roughly) nothing at 256 bytes.
    for chain in ("firewall", "nat", "fw_nat"):
        assert gains[(chain, 256)] < gains[(chain, 512)]
