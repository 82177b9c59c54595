"""Fig. 7 (and the §6.2.1 40 GbE result): goodput and latency vs. send rate.

The FW → NAT → LB chain runs on NetBricks behind a 10 GbE NIC while the
traffic generator sweeps its offered rate; PayloadPark keeps goodput
climbing past the point where the baseline's switch → NF-server link
saturates, without a latency penalty.  The paper reports a 13 % goodput
gain for this chain at the baseline's saturation point and a 15.6 % gain
(plus 12 % PCIe savings) for FW → NAT on the 40 GbE NIC.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.runner import ExperimentRunner
from repro.experiments.scenarios import fw_nat_40ge_enterprise, fw_nat_lb_10ge

#: Send rates swept in Fig. 7 (Gbps); the baseline link capacity is 10 Gbps.
DEFAULT_RATES_GBPS = (2.0, 4.0, 6.0, 8.0, 9.5, 10.5, 12.0)


def run(rates_gbps: Sequence[float] = DEFAULT_RATES_GBPS,
        runner: Optional[ExperimentRunner] = None) -> List[Dict[str, object]]:
    """Sweep send rates for the Fig. 7 scenario; one row per rate."""
    runner = runner or ExperimentRunner()
    rows = []
    for rate in rates_gbps:
        comparison = runner.compare(fw_nat_lb_10ge(send_rate_gbps=rate)).comparison
        rows.append(
            {
                "send_rate_gbps": rate,
                **comparison.as_row(
                    "baseline_goodput_gbps",
                    "payloadpark_goodput_gbps",
                    "goodput_gain_percent",
                    "baseline_latency_us",
                    "payloadpark_latency_us",
                    "baseline_healthy",
                    "payloadpark_healthy",
                ),
            }
        )
    return rows


def run_40ge_fw_nat(send_rate_gbps: float = 30.0,
                    runner: Optional[ExperimentRunner] = None) -> Dict[str, object]:
    """The §6.2.1 text result: FW → NAT on the 40 GbE NIC with OpenNetVM."""
    runner = runner or ExperimentRunner()
    result = runner.compare(fw_nat_40ge_enterprise(send_rate_gbps=send_rate_gbps))
    return {
        "send_rate_gbps": send_rate_gbps,
        **result.comparison.as_row(
            "goodput_gain_percent", "pcie_savings_percent", "latency_delta_us"
        ),
        "paper_goodput_gain_percent": 15.6,
        "paper_pcie_savings_percent": 12.0,
    }
