"""The canonical chaos experiment: one scenario under fault profiles.

Not a figure from the paper — the paper's testbeds are static — but the
reproduction's own evaluation of its dynamic-conditions claim: the
FW → NAT → LB chain under the enterprise mix is run fault-free and then
under a set of fault-injection profiles (link flaps, Maglev backend
churn, firewall rule bursts, the full chaos mix), comparing baseline
and PayloadPark at each point.

The golden suite pins this experiment in both simulation modes
(``tests/golden/chaos.json``), which is what proves the fault engine
itself is deterministic and path-identical: every mid-run mutation —
cache invalidations, Maglev table rebuilds, cost-model refreshes,
parking-slot drains — must reproduce bit-identically on the reference
and fast paths.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence

from repro.experiments.runner import ExperimentRunner, current_options
from repro.experiments.scenarios import workload_scenario

#: Time scale the experiment uses when neither a runner nor a
#: ``--time-scale`` override says otherwise (the full five-profile
#: comparison at scale 1.0 takes minutes; 0.2 keeps it interactive).
DEFAULT_TIME_SCALE = 0.2

#: Profiles the canonical run exercises (None = fault-free control row).
DEFAULT_PROFILES = (None, "link-flap", "backend-churn", "rule-burst", "chaos-mix")

#: Metrics pinned per deployment (stable integers and exact rates).
_PINNED_METRICS = (
    "packets_sent",
    "packets_delivered",
    "packets_dropped",
    "nf_packets_processed",
    "premature_evictions",
    "evictions",
    "splits",
    "merges",
)


def run(
    profiles: Sequence[Optional[str]] = DEFAULT_PROFILES,
    workload: str = "enterprise-poisson",
    chain: str = "fw_nat_lb",
    send_rate_gbps: float = 8.0,
    runner: Optional[ExperimentRunner] = None,
) -> List[dict]:
    """One comparison row per fault profile (None = no faults).

    ``repro run chaos --faults X`` narrows the sweep to the requested
    spec (plus the fault-free control row) instead of the stock profile
    list — the ambient override would otherwise be silently clobbered
    by the per-row ``faults`` assignment.
    """
    options = current_options()
    if runner is None:
        runner = ExperimentRunner(time_scale=options.time_scale or DEFAULT_TIME_SCALE)
    override = options.faults
    if override is not None and profiles is DEFAULT_PROFILES:
        profiles = (None, override)
    rows: List[dict] = []
    for profile in profiles:
        label = profile if isinstance(profile, str) else None
        if profile is not None and label is None:
            from repro.faults.schedule import EventSchedule

            label = EventSchedule.from_spec(profile).name
        scenario = workload_scenario(workload, send_rate_gbps=send_rate_gbps,
                                     chain=chain)
        scenario = replace(scenario, name=f"chaos-{label or 'none'}",
                           faults=profile)
        result = runner.compare(scenario)
        row = {"faults": label or "none"}
        for prefix, report in (
            ("baseline_", result.comparison.baseline),
            ("payloadpark_", result.comparison.payloadpark),
        ):
            for metric in _PINNED_METRICS:
                row[prefix + metric] = getattr(report, metric)
            row[prefix + "link_fault_drops"] = report.drop_breakdown.get(
                "link_fault_drops", 0
            )
        row["goodput_gain_percent"] = round(result.goodput_gain_percent, 6)
        rows.append(row)
    return rows
