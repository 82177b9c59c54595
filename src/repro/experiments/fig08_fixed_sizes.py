"""Fig. 8: goodput for fixed packet sizes (Firewall, NAT and FW → NAT, 40 GbE).

The goodput improvement grows as packets shrink — a larger fraction of
each packet is parked — until 256-byte packets, where the NF server
becomes compute bound and the gain evaporates.  The paper reports
10–36 % gains over the 384–1492-byte range.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.runner import ExperimentRunner
from repro.experiments.scenarios import fixed_size_40ge

#: Packet sizes (bytes) evaluated in Fig. 8/9.
DEFAULT_SIZES = (256, 384, 512, 1024, 1492)

#: NF chains evaluated in Fig. 8/9.
DEFAULT_CHAINS = ("firewall", "nat", "fw_nat")


def run(
    sizes: Sequence[int] = DEFAULT_SIZES,
    chain_names: Sequence[str] = DEFAULT_CHAINS,
    send_rate_gbps: float = 38.0,
    runner: Optional[ExperimentRunner] = None,
) -> List[Dict[str, object]]:
    """One row per (chain, packet size): baseline vs. PayloadPark goodput."""
    runner = runner or ExperimentRunner()
    rows = []
    for chain_name in chain_names:
        for size in sizes:
            scenario = fixed_size_40ge(chain_name, size, send_rate_gbps=send_rate_gbps)
            comparison = runner.compare(scenario).comparison
            rows.append(
                {
                    "chain": chain_name,
                    "packet_size_bytes": size,
                    **comparison.as_row(
                        "baseline_goodput_gbps",
                        "payloadpark_goodput_gbps",
                        "goodput_gain_percent",
                        "pcie_savings_percent",
                    ),
                }
            )
    return rows
