"""Fig. 10: per-server goodput when 8 NF servers share the switch.

The switch reserves ≈ 40 % of its memory, statically sliced between the
two NF servers on each pipe; every server runs a MAC swapper fed with
384-byte packets from its own traffic generator.  The paper reports a
consistent per-server goodput gain (31.22 % on average) showing that
static slicing preserves performance isolation.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments.runner import ExperimentResult, ExperimentRunner
from repro.experiments.scenarios import multi_server_384b


def run_comparison(
    server_count: int = 8,
    send_rate_gbps: float = 9.0,
    runner: Optional[ExperimentRunner] = None,
) -> ExperimentResult:
    """Run the multi-server scenario once under both deployments."""
    runner = runner or ExperimentRunner()
    scenario = multi_server_384b(server_count=server_count, send_rate_gbps=send_rate_gbps)
    return runner.compare(scenario)


def rows_from_result(result: ExperimentResult) -> List[Dict[str, object]]:
    """Fig. 10 rows: per-server goodput under both deployments."""
    return [
        {
            "server": index,
            **comparison.as_row(
                "baseline_goodput_gbps", "payloadpark_goodput_gbps", "goodput_gain_percent"
            ),
        }
        for index, comparison in enumerate(result.per_server, start=1)
    ]


def run(server_count: int = 8, send_rate_gbps: float = 9.0,
        runner: Optional[ExperimentRunner] = None) -> List[Dict[str, object]]:
    """Convenience wrapper returning the Fig. 10 rows directly."""
    return rows_from_result(
        run_comparison(server_count=server_count, send_rate_gbps=send_rate_gbps, runner=runner)
    )
