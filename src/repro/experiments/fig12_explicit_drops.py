"""Fig. 12: payload eviction policies vs. Explicit Drop notifications.

The firewall drops a configurable fraction of traffic.  Without Explicit
Drops, the parked payloads of dropped packets sit in the lookup table
until the expiry threshold evicts them; a conservative threshold
(EXP=10) therefore wastes table space and loses goodput, while an
aggressive one (EXP=2) stays close to the Explicit-Drop ground truth.
Explicit Drops combined with a conservative threshold recover the
aggressive policy's goodput at the cost of a ~50-line framework change.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.runner import DeploymentKind, ExperimentRunner
from repro.experiments.scenarios import explicit_drop_scenario

#: Fraction of traffic aimed at blacklisted sources (controls the firewall drop rate).
DEFAULT_DROP_FRACTIONS = (0.0, 0.02, 0.05, 0.10)

#: (expiry threshold, explicit drops enabled) combinations shown in Fig. 12.
DEFAULT_POLICIES = (
    (2, False),
    (10, False),
    (2, True),
    (10, True),
)


def run(
    drop_fractions: Sequence[float] = DEFAULT_DROP_FRACTIONS,
    policies: Sequence = DEFAULT_POLICIES,
    send_rate_gbps: float = 10.5,
    runner: Optional[ExperimentRunner] = None,
) -> List[Dict[str, object]]:
    """One row per (drop fraction, policy), plus a baseline row per drop fraction."""
    runner = runner or ExperimentRunner()
    rows = []
    for fraction in drop_fractions:
        baseline_scenario = explicit_drop_scenario(
            expiry_threshold=2,
            explicit_drop=False,
            blacklisted_fraction=fraction,
            send_rate_gbps=send_rate_gbps,
        )
        baseline = runner.run_deployment(baseline_scenario, DeploymentKind.BASELINE)
        rows.append(
            {
                "firewall_drop_fraction": fraction,
                "policy": "baseline",
                "goodput_gbps": round(baseline.goodput_to_nf_gbps, 4),
                "splits_disabled": 0,
                "explicit_drops": 0,
            }
        )
        for expiry_threshold, explicit in policies:
            scenario = explicit_drop_scenario(
                expiry_threshold=expiry_threshold,
                explicit_drop=explicit,
                blacklisted_fraction=fraction,
                send_rate_gbps=send_rate_gbps,
            )
            report = runner.run_deployment(scenario, DeploymentKind.PAYLOADPARK)
            label = f"{'Explicit' if explicit else 'No Explicit'} EXP={expiry_threshold}"
            rows.append(
                {
                    "firewall_drop_fraction": fraction,
                    "policy": label,
                    "goodput_gbps": round(report.goodput_to_nf_gbps, 4),
                    "splits_disabled": report.split_disabled,
                    "explicit_drops": report.explicit_drops,
                }
            )
    return rows
