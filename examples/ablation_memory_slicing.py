#!/usr/bin/env python3
"""Ablation: static memory slicing between NF servers sharing a pipe (§6.2.3).

The prototype slices the reserved lookup-table memory statically between
the NF servers on a pipe, trading peak capacity for performance
isolation.  This ablation compares equal slicing against a deliberately
skewed split (75/25) under identical offered load, showing that the
starved binding falls back to non-PayloadPark mode more often while the
favoured one is unaffected — the isolation property the paper argues for.

Run with:

    python examples/ablation_memory_slicing.py
"""

from dataclasses import replace

from repro.experiments.runner import (
    DeploymentKind,
    ExperimentRunner,
    multi_server_bindings,
)
from repro.experiments.scenarios import multi_server_384b
from repro.telemetry.report import render_table


def run(send_rate_gbps=10.0):
    runner = ExperimentRunner(time_scale=0.4)
    rows = []
    for label, weights in (("equal 50/50", (1.0, 1.0)), ("skewed 75/25", (3.0, 1.0))):
        scenario = replace(
            multi_server_384b(server_count=2, send_rate_gbps=send_rate_gbps),
            name=f"slicing-{label}",
        )
        bindings = [
            replace(b, memory_weight=w) for b, w in zip(multi_server_bindings(2), weights)
        ]
        reports = runner.run_servers(scenario, DeploymentKind.PAYLOADPARK, bindings=bindings)
        for binding, report in zip(bindings, reports):
            rows.append(
                {
                    "slicing": label,
                    "binding": binding.name,
                    "memory_weight": binding.memory_weight,
                    "goodput_gbps": round(report.goodput_to_nf_gbps, 4),
                    "splits": report.splits,
                    "split_disabled": report.split_disabled,
                    "premature_evictions": report.premature_evictions,
                }
            )
    return rows


def main() -> None:
    rows = run()
    print("Ablation — static memory slicing between two NF servers on one pipe")
    print(render_table(rows))
    equal = [row for row in rows if row["slicing"] == "equal 50/50"]
    skewed = {row["binding"]: row for row in rows if row["slicing"] == "skewed 75/25"}
    # Equal slicing treats both servers alike.
    assert abs(equal[0]["goodput_gbps"] - equal[1]["goodput_gbps"]) < 0.2
    # The favoured binding keeps (at least) its goodput; the starved one
    # falls back to non-PayloadPark mode more often than its peer.
    assert skewed["srv1"]["split_disabled"] >= skewed["srv0"]["split_disabled"]


if __name__ == "__main__":
    main()
