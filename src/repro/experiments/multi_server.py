"""Fig. 10 / Fig. 11: per-server goodput and latency when 8 NF servers share the switch.

The switch reserves ≈ 40 % of its memory, statically sliced between the
two NF servers on each pipe; every server runs a MAC swapper fed with
384-byte packets from its own traffic generator.  The paper reports a
consistent per-server goodput gain (31.22 % on average), showing that
static slicing preserves performance isolation, and — Fig. 11, the same
run reported as average end-to-end latency per server — a 9.4 % latency
win, attributed to moving fewer bytes over each server's PCIe bus.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

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


def per_server_rows(
    result: ExperimentResult, columns: Sequence[str]
) -> List[Dict[str, object]]:
    """One row per NF server: its *columns* under both deployments."""
    return [
        {"server": index, **comparison.as_row(*columns)}
        for index, comparison in enumerate(result.per_server, start=1)
    ]
