"""Benchmark regenerating Fig. 11: per-server latency with 8 NF servers."""

from _harness import bench_runner, run_registered


def test_fig11_multi_server_latency(benchmark):
    rows = run_registered(benchmark, "fig11", runner=bench_runner())
    assert len(rows) == 8
    # PayloadPark must not add latency; the paper reports a ~9 % win.
    average_win = sum(row["latency_win_percent"] for row in rows) / len(rows)
    assert average_win > -5.0
