"""Fig. 13: the effect of packet recirculation (parking 384 bytes).

Recirculating each packet through the pipeline a second time lets
PayloadPark park 384 instead of 160 bytes, roughly doubling the goodput
gain of the FW → NAT → LB / 10 GbE setup (≈ 28 % vs. ≈ 13 %) and raising
the PCIe savings to ≈ 23 %, at a per-packet recirculation latency cost
of tens of nanoseconds that end-to-end latency does not notice.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.runner import ExperimentRunner
from repro.experiments.scenarios import fw_nat_lb_10ge, fw_nat_lb_10ge_recirculation

#: Send rates swept in Fig. 13 (the x-axis extends past Fig. 7's because
#: recirculation pushes the PayloadPark saturation point further right).
DEFAULT_RATES_GBPS = (4.0, 8.0, 10.5, 12.0, 14.0)


def run(rates_gbps: Sequence[float] = DEFAULT_RATES_GBPS,
        runner: Optional[ExperimentRunner] = None) -> List[Dict[str, object]]:
    """One row per send rate: baseline, 160-byte PayloadPark, 384-byte PayloadPark."""
    runner = runner or ExperimentRunner()
    rows = []
    for rate in rates_gbps:
        plain = runner.compare(fw_nat_lb_10ge(send_rate_gbps=rate)).comparison
        recirculated = runner.compare(
            fw_nat_lb_10ge_recirculation(send_rate_gbps=rate)
        ).comparison
        rows.append(
            {
                "send_rate_gbps": rate,
                "baseline_goodput_gbps": plain.column("baseline_goodput_gbps"),
                "pp160_goodput_gbps": plain.column("payloadpark_goodput_gbps"),
                "pp384_goodput_gbps": recirculated.column("payloadpark_goodput_gbps"),
                "pp160_gain_percent": plain.column("goodput_gain_percent"),
                "pp384_gain_percent": recirculated.column("goodput_gain_percent"),
                "pp384_latency_us": recirculated.column("payloadpark_latency_us"),
                "baseline_latency_us": recirculated.column("baseline_latency_us"),
                "pp384_pcie_savings_percent": recirculated.column("pcie_savings_percent"),
            }
        )
    return rows
