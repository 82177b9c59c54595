"""Fig. 11: per-server latency when 8 NF servers share the switch.

Companion to Fig. 10: the same multi-server run, reported as average
end-to-end latency per server.  The paper sees a 9.4 % latency win for
PayloadPark, attributed to moving fewer bytes over each server's PCIe
bus.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments.fig10_multi_server import run_comparison
from repro.experiments.runner import ExperimentResult, ExperimentRunner


def rows_from_result(result: ExperimentResult) -> List[Dict[str, object]]:
    """Fig. 11 rows: per-server average latency under both deployments."""
    return [
        {
            "server": index,
            **comparison.as_row(
                "baseline_latency_us", "payloadpark_latency_us", "latency_win_percent"
            ),
        }
        for index, comparison in enumerate(result.per_server, start=1)
    ]


def run(server_count: int = 8, send_rate_gbps: float = 9.0,
        runner: Optional[ExperimentRunner] = None) -> List[Dict[str, object]]:
    """Run the multi-server scenario and return the Fig. 11 rows."""
    return rows_from_result(
        run_comparison(server_count=server_count, send_rate_gbps=send_rate_gbps, runner=runner)
    )
