#!/usr/bin/env python3
"""Enterprise datacenter workload: sweep send rates across the FW→NAT→LB chain.

Reproduces the headline experiment of the paper (Fig. 7): the three-NF
chain on NetBricks behind a 10 GbE NIC, driven by the Benson-style
enterprise packet-size mix.  The script also exports the synthetic
workload to a PCAP file, mirroring how the paper replays a PCAP with the
measured packet-size distribution.

Run with:

    python examples/datacenter_traffic.py
"""

import tempfile
from pathlib import Path

from repro.experiments.figures import FIGURES
from repro.experiments.runner import ExperimentRunner
from repro.telemetry.report import render_table
from repro.traffic.workload import Workload


def main() -> None:
    workload = Workload.enterprise()
    with tempfile.TemporaryDirectory() as scratch:
        pcap_path = Path(scratch) / "enterprise_workload.pcap"
        workload.export_pcap(pcap_path, packet_count=2_000)
        print(f"Exported a representative workload to a temporary {pcap_path.name} "
              f"({pcap_path.stat().st_size} bytes, "
              f"mean frame size {workload.mean_frame_bytes():.0f} B, "
              f"{workload.useful_fraction() * 100:.1f}% useful header bytes).")
    print()

    print("Sweeping send rates for FW -> NAT -> LB on NetBricks (10 GbE)...")
    rows = FIGURES["fig07"].run(
        runner=ExperimentRunner(time_scale=0.75),
        send_rate_gbps=(4.0, 8.0, 10.5, 12.0),
    )
    print(render_table(rows))
    print()

    saturated = [row for row in rows if row["send_rate_gbps"] > 10.0]
    best = max(row["goodput_gain_percent"] for row in saturated)
    print(f"Maximum goodput gain past the baseline's link saturation: {best:.1f}% "
          f"(the paper reports ≈13% for this chain, ≈28% with recirculation).")


if __name__ == "__main__":
    main()
