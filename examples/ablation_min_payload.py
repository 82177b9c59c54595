#!/usr/bin/env python3
"""Ablation: the minimum-payload split threshold (§6.3.3 discussion).

The prototype refuses to split payloads smaller than the parked size
(160 bytes) so that a table slot is never wasted on a partial payload;
the paper suggests raising the threshold to 384 bytes would use switch
memory even better.  This ablation compares thresholds on the enterprise
mix, reporting how many packets are parked and what goodput results.

Run with:

    python examples/ablation_min_payload.py
"""

from dataclasses import replace

from repro.core.config import PayloadParkConfig
from repro.experiments.runner import DeploymentKind, ExperimentRunner
from repro.experiments.scenarios import fw_nat_40ge_enterprise
from repro.telemetry.report import render_table


def run(thresholds=(0, 160, 384), send_rate_gbps=34.0):
    runner = ExperimentRunner(time_scale=0.4)
    rows = []
    for threshold in thresholds:
        scenario = fw_nat_40ge_enterprise(send_rate_gbps=send_rate_gbps)
        scenario = replace(
            scenario,
            name=f"min-split-{threshold}B",
            payloadpark=PayloadParkConfig(
                sram_fraction=0.26, expiry_threshold=1, min_split_payload=threshold
            ),
        )
        report = runner.run_deployment(scenario, DeploymentKind.PAYLOADPARK)
        total_attempts = report.splits + report.split_disabled
        rows.append(
            {
                "min_split_payload_bytes": threshold,
                "goodput_gbps": round(report.goodput_to_nf_gbps, 4),
                "splits": report.splits,
                "split_disabled": report.split_disabled,
                "split_fraction": round(report.splits / total_attempts, 3)
                if total_attempts
                else 0.0,
                "premature_evictions": report.premature_evictions,
            }
        )
    return rows


def main() -> None:
    rows = run()
    print("Ablation — minimum payload size worth splitting "
          "(enterprise mix, FW -> NAT, 40 GbE)")
    print(render_table(rows))
    by_threshold = {row["min_split_payload_bytes"]: row for row in rows}
    # Raising the threshold parks fewer packets...
    assert by_threshold[384]["splits"] < by_threshold[160]["splits"]
    # ...and lowering it to zero parks (nearly) everything.
    assert by_threshold[0]["split_fraction"] >= by_threshold[160]["split_fraction"]


if __name__ == "__main__":
    main()
