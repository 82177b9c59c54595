"""Fig. 14: peak goodput vs. the fraction of switch memory reserved.

With 384-byte packets and an aggressive expiry threshold (EXP=1), the
traffic rate is raised until the first premature payload eviction (or an
unhealthy drop rate) appears; the largest rate that avoids both is the
peak goodput for that memory reservation.  More reserved memory means
the table index takes longer to wrap around, so payloads survive longer
and the peak moves up — until the NF server's own limits take over.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.runner import DeploymentKind, ExperimentRunner
from repro.experiments.scenarios import memory_sweep_scenario

#: SRAM fractions swept (the paper's labelled points are 17.81 %, 21.56 %, 25.94 %).
DEFAULT_SRAM_FRACTIONS = (0.10, 0.178, 0.216, 0.26)


def run(
    sram_fractions: Sequence[float] = DEFAULT_SRAM_FRACTIONS,
    runner: Optional[ExperimentRunner] = None,
    rate_bounds_gbps=(4.0, 44.0),
    tolerance_gbps: float = 2.0,
    include_baseline: bool = True,
) -> List[Dict[str, object]]:
    """One row per memory fraction: the peak healthy goodput and its send rate.

    *include_baseline* adds the figure's reference line: the baseline's
    own peak goodput (one search, at the largest default reservation).
    """
    runner = runner or ExperimentRunner()
    baseline_peak_goodput = None
    if include_baseline:
        _rate, report = runner.peak_goodput(
            memory_sweep_scenario(DEFAULT_SRAM_FRACTIONS[-1]),
            deployment=DeploymentKind.BASELINE,
            require_zero_premature_evictions=False,
            rate_bounds_gbps=rate_bounds_gbps,
            tolerance_gbps=tolerance_gbps,
        )
        baseline_peak_goodput = round(report.goodput_to_nf_gbps, 4)
    rows = []
    for fraction in sram_fractions:
        rate, report = runner.peak_goodput(
            memory_sweep_scenario(fraction),
            rate_bounds_gbps=rate_bounds_gbps,
            tolerance_gbps=tolerance_gbps,
        )
        row = {
            "sram_fraction_percent": round(fraction * 100, 2),
            "peak_send_rate_gbps": round(rate, 2),
            "peak_goodput_gbps": round(report.goodput_to_nf_gbps, 4),
            "premature_evictions": report.premature_evictions,
            "drop_rate": round(report.drop_rate, 5),
        }
        if baseline_peak_goodput is not None:
            row["baseline_peak_goodput_gbps"] = baseline_peak_goodput
        rows.append(row)
    return rows
