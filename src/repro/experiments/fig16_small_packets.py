"""Fig. 16: goodput and latency with 512-byte packets (FW → NAT, 40 GbE).

With small fixed-size packets the baseline is capped by how many bytes
the NIC/PCIe path can move (≈ 34 Gb/s of 512-byte frames), while
PayloadPark keeps processing packets at higher send rates because each
frame crossing the NIC is 153 bytes lighter.  Before the baseline
saturates, PayloadPark's latency is lower; past saturation both curves'
latencies climb because the NF server itself is the next bottleneck.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.runner import ExperimentRunner
from repro.experiments.scenarios import small_packet_40ge

#: Send rates swept in Fig. 16 (Gbps); the baseline link capacity is 40 Gbps.
DEFAULT_RATES_GBPS = (10.0, 20.0, 28.0, 33.0, 36.0, 40.0, 44.0)


def run(rates_gbps: Sequence[float] = DEFAULT_RATES_GBPS,
        runner: Optional[ExperimentRunner] = None) -> List[Dict[str, object]]:
    """One row per send rate: goodput and latency under both deployments."""
    runner = runner or ExperimentRunner()
    rows = []
    for rate in rates_gbps:
        comparison = runner.compare(small_packet_40ge(send_rate_gbps=rate)).comparison
        rows.append(
            {
                "send_rate_gbps": rate,
                **comparison.as_row(
                    "baseline_goodput_gbps",
                    "payloadpark_goodput_gbps",
                    "baseline_latency_us",
                    "payloadpark_latency_us",
                    "baseline_healthy",
                    "payloadpark_healthy",
                ),
            }
        )
    return rows
