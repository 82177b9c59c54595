"""Table 1: resource utilization of the PayloadPark program on the switch.

The paper compiles its P4 program for two deployments — ≈ 26 % of memory
serving 4 NF servers (one per pipe) and ≈ 40 % serving 8 NF servers (two
per pipe, statically sliced) — and reports the per-resource utilization
of the chip.  Here we install the equivalent programs on the simulated
ASIC and read the same report off its resource accounting.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.config import PayloadParkConfig
from repro.core.program import PayloadParkProgram
from repro.experiments.runner import multi_server_bindings

#: Utilization numbers reported in the paper's Table 1 for comparison.
PAPER_TABLE1 = {
    "SRAM (4 NF servers) avg": 25.94,
    "SRAM (4 NF servers) peak": 33.75,
    "SRAM (8 NF servers) avg": 38.23,
    "SRAM (8 NF servers) peak": 48.75,
    "TCAM": 0.69,
    "VLIW": 14.58,
    "Exact Match Crossbar": 16.47,
    "Ternary Match Crossbar": 0.88,
    "Packet Header Vector": 37.65,
}


def build_program(server_count: int, sram_fraction: float) -> PayloadParkProgram:
    """Install PayloadPark for *server_count* NF servers on a fresh ASIC."""
    servers_per_pipe = 1 if server_count <= 4 else 2
    bindings = multi_server_bindings(server_count, servers_per_pipe=servers_per_pipe)
    config = PayloadParkConfig(sram_fraction=sram_fraction, expiry_threshold=1)
    return PayloadParkProgram(config, bindings=bindings)


def run() -> List[Dict[str, object]]:
    """Produce Table 1 rows: measured utilization next to the paper's values."""
    four_server = build_program(server_count=4, sram_fraction=0.26).resource_report(0)
    eight_server = build_program(server_count=8, sram_fraction=0.40).resource_report(0)

    rows = [
        {
            "resource": "SRAM (4 NF servers) avg",
            "measured_percent": round(four_server.sram_avg_percent, 2),
            "paper_percent": PAPER_TABLE1["SRAM (4 NF servers) avg"],
        },
        {
            "resource": "SRAM (4 NF servers) peak",
            "measured_percent": round(four_server.sram_peak_percent, 2),
            "paper_percent": PAPER_TABLE1["SRAM (4 NF servers) peak"],
        },
        {
            "resource": "SRAM (8 NF servers) avg",
            "measured_percent": round(eight_server.sram_avg_percent, 2),
            "paper_percent": PAPER_TABLE1["SRAM (8 NF servers) avg"],
        },
        {
            "resource": "SRAM (8 NF servers) peak",
            "measured_percent": round(eight_server.sram_peak_percent, 2),
            "paper_percent": PAPER_TABLE1["SRAM (8 NF servers) peak"],
        },
        {
            "resource": "TCAM",
            "measured_percent": round(four_server.tcam_percent, 2),
            "paper_percent": PAPER_TABLE1["TCAM"],
        },
        {
            "resource": "VLIW",
            "measured_percent": round(four_server.vliw_percent, 2),
            "paper_percent": PAPER_TABLE1["VLIW"],
        },
        {
            "resource": "Exact Match Crossbar",
            "measured_percent": round(four_server.exact_crossbar_percent, 2),
            "paper_percent": PAPER_TABLE1["Exact Match Crossbar"],
        },
        {
            "resource": "Ternary Match Crossbar",
            "measured_percent": round(four_server.ternary_crossbar_percent, 2),
            "paper_percent": PAPER_TABLE1["Ternary Match Crossbar"],
        },
        {
            "resource": "Packet Header Vector",
            "measured_percent": round(four_server.phv_percent, 2),
            "paper_percent": PAPER_TABLE1["Packet Header Vector"],
        },
    ]
    return rows
