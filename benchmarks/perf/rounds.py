"""The five workloads and what one round of each does.

A round is a fixed amount of simulator work for a seed: both
deployments of one scenario (the four engine workloads) or one whole
campaign into a fresh sharded store (``campaign_grid``).  An
*operation* — the unit ``failed_share`` counts — is one deployment run
or one campaign cell.  Every round returns the same :class:`Round`
shape, so the timing, checking and tracing code in ``run.py`` does not
branch on the workload.

Rounds are short on purpose (0.4-0.8 s, about a fifteenth of the sizes
ISSUE 11 lists): ``run.py`` reports the median over the rounds of a
~20 s pass, each corrected for the host's speed around it (see
hostclock.py), and both want a few dozen rounds per pass.
"""

from __future__ import annotations

import gc
import hashlib
import os
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from hostclock import Stopwatch, stopwatch
from repro.experiments import scenarios
from repro.experiments.runner import (
    DeploymentKind,
    ExperimentRunner,
    ScenarioConfig,
    run_observer,
)
from repro.orchestrator.executor import CampaignExecutor, execute_run
from repro.orchestrator.spec import CampaignSpec, build_scenario, canonical_json
from repro.orchestrator.store import ResultStore
from repro.telemetry.report import ComparisonReport, DeploymentReport

OUT_DIR = Path(__file__).resolve().parent / "out"

#: Worker processes of the campaign workload (the container has two cores).
CAMPAIGN_WORKERS = 2

#: Cells of the campaign that the traced pass repeats in-process, under
#: the engine wrappers, for the per-layer view of a campaign-sized cell.
TRACED_SAMPLE_CELLS = 12


@dataclass
class Round:
    """What one round produced (host-time and simulated-time sides)."""

    #: Host wall seconds, and how fast the host ran around them (hostclock.py).
    wall_s: float
    host_speed: float
    packets: int
    #: One flag per operation: did it pass its shape check?
    ops_ok: List[bool]
    #: sha256 over the simulated-time results; equal for equal seeds.
    digest: str
    #: Exact simulated-time figures (see ``telemetry.*`` / ``core.lookup_table.*``).
    model: Dict[str, float]
    #: Completed compare cells (1 for an engine round).
    cells: int = 1
    cell_wall_ms: List[float] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def corrected_s(self) -> float:
        """Wall seconds at the reference host speed; what the ledger reports."""
        return self.wall_s * self.host_speed


@dataclass(frozen=True)
class Workload:
    name: str
    time_scale: float
    #: seed -> scenario (engine workloads) or campaign spec (campaign_grid).
    build: Callable[[int], Any]
    #: (baseline, payloadpark) -> per-deployment pass flags; engine only.
    check: Optional[Callable[[DeploymentReport, DeploymentReport], List[bool]]] = None
    is_campaign: bool = False


def _merge_hit_ratio(splits: float, merges: float) -> float:
    return merges / splits if splits else 0.0


def _check_fig07(base: DeploymentReport, park: DeploymentReport) -> List[bool]:
    return [
        base.packets_delivered > 0,
        park.healthy and park.goodput_to_nf_gbps >= base.goodput_to_nf_gbps,
    ]


def _check_multi8(base: DeploymentReport, park: DeploymentReport) -> List[bool]:
    return [base.packets_delivered > 0, park.healthy and park.splits > 0]


def _check_evict(base: DeploymentReport, park: DeploymentReport) -> List[bool]:
    ratio = _merge_hit_ratio(park.splits, park.merges)
    return [base.healthy, park.premature_evictions > 0 and 0.0 < ratio < 1.0]


def _check_incast(base: DeploymentReport, park: DeploymentReport) -> List[bool]:
    return [base.retransmitted_packets > 0, park.retransmitted_packets > 0]


def _campaign(seed: int) -> CampaignSpec:
    return CampaignSpec(
        name="perf-campaign-grid",
        scenario="fw_nat_lb_10ge",
        grid={
            "send_rate_gbps": [4.0, 8.0, 10.5],
            "expiry_threshold": [1, 3],
            "sram_fraction": [0.10, 0.26],
            "seed": [seed, seed + 1],
        },
    )


# What each workload stresses, and why it is in the list, is recorded
# once: in BENCHMARK.json's `why` and at length in README.md.
WORKLOADS = (
    Workload(
        "fig07_sat",
        0.4,
        lambda seed: replace(scenarios.fw_nat_lb_10ge(10.5), seed=seed),
        _check_fig07,
    ),
    Workload(
        "multi8_macswap",
        0.04,
        lambda seed: replace(scenarios.multi_server_384b(8, 9.0), seed=seed),
        _check_multi8,
    ),
    Workload(
        "evict_pressure",
        0.08,
        lambda seed: replace(scenarios.memory_sweep_scenario(0.05, 30.0), seed=seed),
        _check_evict,
    ),
    Workload(
        "incast_closed",
        0.8,
        lambda seed: replace(scenarios.workload_scenario("incast-collapse"), seed=seed),
        _check_incast,
    ),
    Workload("campaign_grid", 0.05, _campaign, is_campaign=True),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}


def _sha256(value: Any) -> str:
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------- #
# Engine rounds
# ---------------------------------------------------------------------- #


def engine_round(workload: Workload, seed: int) -> Round:
    """Both deployments of the workload's scenario, default engine path."""
    scenario: ScenarioConfig = workload.build(seed)
    runner = ExperimentRunner(time_scale=workload.time_scale)
    with stopwatch() as watch:
        base = runner.run_deployment(scenario, DeploymentKind.BASELINE)
        park = runner.run_deployment(scenario, DeploymentKind.PAYLOADPARK)
    comparison = ComparisonReport(baseline=base, payloadpark=park)
    return Round(
        wall_s=watch.wall_s,
        host_speed=watch.host_speed,
        packets=base.packets_sent + park.packets_sent,
        ops_ok=workload.check(base, park),
        digest=_sha256([base.as_row(), park.as_row()]),
        model={
            "telemetry.goodput_gain_pct": comparison.goodput_gain_percent,
            "telemetry.pcie_savings_pct": comparison.pcie_savings_percent,
            "telemetry.latency_delta_us": comparison.latency_delta_us,
            "core.lookup_table.splits": park.splits,
            "core.lookup_table.merges": park.merges,
            "core.lookup_table.premature_evictions": park.premature_evictions,
            "core.lookup_table.merge_hit_ratio": _merge_hit_ratio(
                park.splits, park.merges
            ),
        },
    )


# ---------------------------------------------------------------------- #
# Campaign rounds
# ---------------------------------------------------------------------- #


def campaign_spec(workload: Workload, seed: int, validate: bool = False) -> CampaignSpec:
    return replace(workload.build(seed), time_scale=workload.time_scale, validate=validate)


def campaign_round(workload: Workload, seed: int, validate: bool = False) -> Round:
    """One campaign into a fresh 4-shard store, bus off, then read it back."""
    spec = campaign_spec(workload, seed, validate)
    store_dir = OUT_DIR / f"store-{os.getpid()}"
    shutil.rmtree(store_dir, ignore_errors=True)
    try:
        store = ResultStore(store_dir / "grid.jsonl", shards=4)
        executor = CampaignExecutor(workers=CAMPAIGN_WORKERS)
        with stopwatch() as watch:
            summary = executor.run_campaign(spec, store=store)
            records = store.latest_by_hash()
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    return _campaign_result(spec.point_count, summary.records, records, watch)


def _campaign_result(expected: int, executed, stored, watch: Stopwatch) -> Round:
    notes = []
    if len(stored) != expected:
        notes.append(f"store holds {len(stored)} of {expected} cells")
    # Ordered by grid point, not spec hash: `validate: true` moves the hash.
    ordered = sorted(
        stored.values(), key=lambda record: canonical_json(record["params"])
    )
    ops_ok = [record.get("status") == "ok" for record in ordered]
    ops_ok += [False] * (expected - len(ordered))
    for record in ordered:
        if record.get("status") != "ok":
            notes.append(f"cell {record['spec_hash']}: {record.get('error')}")
    good = [record["metrics"] for record in ordered if record.get("status") == "ok"]

    def total(key: str) -> float:
        return sum(metrics[key] for metrics in good)

    def mean(key: str) -> float:
        return total(key) / len(good) if good else 0.0

    splits = total("payloadpark_splits")
    merges = total("payloadpark_merges")
    return Round(
        wall_s=watch.wall_s,
        host_speed=watch.host_speed,
        packets=int(total("baseline_packets_sent") + total("payloadpark_packets_sent")),
        ops_ok=ops_ok,
        digest=_sha256([[record["params"], record.get("metrics")] for record in ordered]),
        model={
            "telemetry.goodput_gain_pct": mean("goodput_gain_percent"),
            "telemetry.pcie_savings_pct": mean("pcie_savings_percent"),
            "telemetry.latency_delta_us": mean("latency_delta_us"),
            "core.lookup_table.splits": splits,
            "core.lookup_table.merges": merges,
            "core.lookup_table.premature_evictions": total(
                "payloadpark_premature_evictions"
            ),
            "core.lookup_table.merge_hit_ratio": _merge_hit_ratio(splits, merges),
        },
        cells=sum(ops_ok),
        cell_wall_ms=[record["wall_time_s"] * 1_000.0 for record in executed],
        notes=notes,
    )


def campaign_sample_round(workload: Workload, seed: int, observer) -> Round:
    """The campaign's first cells, serially in this process under *observer*.

    Worker processes cannot hand spans back, so the traced pass gets
    the engine's per-layer view of a campaign-sized cell from here.
    """
    specs = campaign_spec(workload, seed).expand()[:TRACED_SAMPLE_CELLS]
    with stopwatch() as watch, run_observer(observer):
        executed = [execute_run(run) for run in specs]
    return _campaign_result(
        len(specs), executed, {record["spec_hash"]: record for record in executed}, watch
    )


def run_round(workload: Workload, seed: int) -> Round:
    """One untraced round of *workload*."""
    # Every round starts from the same collector state; the previous
    # round's cyclic garbage is not this round's cost (nor its RSS).
    gc.collect()
    if workload.is_campaign:
        return campaign_round(workload, seed)
    return engine_round(workload, seed)


# ---------------------------------------------------------------------- #
# Set-up work (what `setup_s` times in-process)
# ---------------------------------------------------------------------- #


def setup_scenario(workload: Workload, seed: int) -> ScenarioConfig:
    """Everything a run builds before its first deployment starts.

    For the campaign this is the grid expansion with its spec hashes
    plus the first cell's scenario.
    """
    if not workload.is_campaign:
        return workload.build(seed)
    runs = campaign_spec(workload, seed).expand()
    for run in runs:
        run.spec_hash
    return build_scenario(runs[0])
