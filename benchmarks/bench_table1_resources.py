"""Benchmark regenerating Table 1: switch resource utilization."""

from _harness import run_registered


def test_table1_resource_utilization(benchmark):
    rows = run_registered(benchmark, "table1")
    measured = {row["resource"]: row["measured_percent"] for row in rows}
    # Well under half the chip even in the 8-server configuration (paper: <50 %).
    assert measured["SRAM (8 NF servers) peak"] < 60.0
    # The 8-server configuration uses more memory than the 4-server one.
    assert measured["SRAM (8 NF servers) avg"] > measured["SRAM (4 NF servers) avg"]
    # PHV is not the limiting resource (paper: 37.65 %).
    assert measured["Packet Header Vector"] < 60.0
    # Each measured figure is within 15 percentage points of the paper's value.
    for row in rows:
        assert abs(row["measured_percent"] - row["paper_percent"]) < 15.0
