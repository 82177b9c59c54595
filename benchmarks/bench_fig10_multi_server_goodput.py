"""Benchmark regenerating Fig. 10: per-server goodput with 8 NF servers."""

from _harness import bench_runner, run_registered


def test_fig10_multi_server_goodput(benchmark):
    rows = run_registered(benchmark, "fig10", runner=bench_runner())
    assert len(rows) == 8
    # Every server sees PayloadPark goodput at least on par with the baseline,
    # and the gains are consistent across servers (performance isolation).
    gains = [row["goodput_gain_percent"] for row in rows]
    assert all(gain > -2.0 for gain in gains)
    assert max(gains) - min(gains) < 30.0
