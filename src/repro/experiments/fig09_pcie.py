"""Fig. 9: PCIe bandwidth utilization for fixed packet sizes.

PayloadPark saves PCIe bandwidth on the NF server because fewer payload
bytes cross the NIC–host boundary per packet; the savings grow as the
parked 160 bytes become a larger fraction of the packet, peaking at
≈ 58 % for 256-byte packets (where goodput gains have already vanished —
PCIe relief is the remaining benefit).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.runner import ExperimentRunner
from repro.experiments.scenarios import fixed_size_40ge
from repro.experiments.fig08_fixed_sizes import DEFAULT_SIZES


def run(
    sizes: Sequence[int] = DEFAULT_SIZES,
    chain_names: Sequence[str] = ("fw_nat",),
    send_rate_gbps: float = 30.0,
    runner: Optional[ExperimentRunner] = None,
) -> List[Dict[str, object]]:
    """One row per (chain, packet size): baseline vs. PayloadPark PCIe bandwidth."""
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
                        "baseline_pcie_gbps", "payloadpark_pcie_gbps", "pcie_savings_percent"
                    ),
                }
            )
    return rows
