"""Benchmark regenerating Fig. 15: NF CPU cost vs. PayloadPark benefit."""

from _harness import bench_runner, run_registered


def test_fig15_nf_cycles(benchmark):
    rows = run_registered(benchmark, "fig15", runner=bench_runner())
    gains = {(row["nf"], row["packet_size_bytes"]): row["goodput_gain_percent"] for row in rows}
    # Large packets benefit for every NF weight (the server is never compute bound).
    for nf_kind in ("light", "medium", "heavy"):
        assert gains[(nf_kind, 1492)] > 3.0
    # For small packets, a heavy NF leaves little or no gain compared to a light one.
    assert gains[("heavy", 256)] <= gains[("light", 1492)]
    assert gains[("heavy", 256)] < 10.0
