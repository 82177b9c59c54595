"""Benchmark regenerating Fig. 12: eviction policies vs. Explicit Drops."""

from _harness import bench_runner, run_registered


def test_fig12_explicit_drops(benchmark):
    rows = run_registered(benchmark, "fig12", runner=bench_runner())

    def goodput(fraction, policy):
        for row in rows:
            if row["firewall_drop_fraction"] == fraction and row["policy"] == policy:
                return row["goodput_gbps"]
        raise KeyError((fraction, policy))

    heavy_drop = 0.10
    # With firewall drops, a conservative threshold without Explicit Drops
    # wastes table space; Explicit Drops (or an aggressive threshold) recover it.
    assert goodput(heavy_drop, "No Explicit EXP=2") >= goodput(heavy_drop, "No Explicit EXP=10")
    assert goodput(heavy_drop, "Explicit EXP=10") >= goodput(heavy_drop, "No Explicit EXP=10")
    # PayloadPark beats the baseline at this operating point regardless of policy.
    assert goodput(heavy_drop, "Explicit EXP=10") > goodput(heavy_drop, "baseline")
