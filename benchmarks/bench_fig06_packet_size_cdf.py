"""Benchmark regenerating Fig. 6: the enterprise packet-size CDF."""

from _harness import run_registered


def test_fig06_packet_size_cdf(benchmark):
    result = run_registered(benchmark, "fig06", sample_count=20_000)
    assert abs(result["analytic_mean_bytes"] - 882) < 30
    assert abs(result["fraction_below_160B_payload"] - 0.30) < 0.05
