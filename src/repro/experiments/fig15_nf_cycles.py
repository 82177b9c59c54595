"""Fig. 15: how the NF's CPU cost changes PayloadPark's benefit.

Three synthetic NFs (≈ 50 / 300 / 570 cycles per packet) are paired with
four packet sizes.  Large packets always benefit — the server is never
compute bound at their lower packet rates — while for small packets a
heavy NF saturates the CPU before the link does, erasing (or slightly
inverting) PayloadPark's advantage.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.runner import ExperimentRunner
from repro.experiments.scenarios import nf_cycles_scenario

#: Packet sizes evaluated in Fig. 15.
DEFAULT_SIZES = (256, 384, 1024, 1492)

#: Synthetic NF variants evaluated in Fig. 15.
DEFAULT_NF_KINDS = ("light", "medium", "heavy")


def run(
    sizes: Sequence[int] = DEFAULT_SIZES,
    nf_kinds: Sequence[str] = DEFAULT_NF_KINDS,
    send_rate_gbps: float = 40.0,
    runner: Optional[ExperimentRunner] = None,
) -> List[Dict[str, object]]:
    """One row per (NF kind, packet size): baseline vs. PayloadPark goodput."""
    runner = runner or ExperimentRunner()
    rows = []
    for nf_kind in nf_kinds:
        for size in sizes:
            scenario = nf_cycles_scenario(nf_kind, size, send_rate_gbps=send_rate_gbps)
            comparison = runner.compare(scenario).comparison
            rows.append(
                {
                    "nf": nf_kind,
                    "packet_size_bytes": size,
                    **comparison.as_row(
                        "baseline_goodput_gbps",
                        "payloadpark_goodput_gbps",
                        "goodput_gain_percent",
                    ),
                }
            )
    return rows
