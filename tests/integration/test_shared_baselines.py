"""A campaign simulates each baseline once, and nothing it records moves.

The baseline deployment never reads ``scenario.payloadpark``, so compare
cells that differ only in PayloadPark knobs share one baseline run
(:attr:`RunSpec.baseline_hash`).  These tests hold the fact that rests
on — for every registered scenario — and check that a shared campaign's
records, serial and parallel, equal the ones each cell produces alone.
"""

from pathlib import Path

import pytest

from repro.experiments.runner import DeploymentKind, ExperimentRunner
from repro.orchestrator import CampaignExecutor, CampaignSpec, RunSpec, execute_run
from repro.orchestrator.spec import SCENARIO_REGISTRY, apply_overrides, build_scenario
from repro.validation import engine
from repro.validation.invariants import Invariant

CAMPAIGNS = Path(__file__).resolve().parents[2] / "examples" / "campaigns"

#: Simulated-time scale of every run here.
FAST = 0.02

#: Builder arguments of the registered scenarios that have no default.
REQUIRED_ARGS = {
    "fixed_size_40ge": {"chain_name": "fw_nat", "packet_size": 512},
    "explicit_drop": {"expiry_threshold": 1, "explicit_drop": True},
    "memory_sweep": {"sram_fraction": 0.26},
    "nf_cycles": {"nf_kind": "medium", "packet_size": 512},
}

#: Two assignments of every PayloadPark knob a figure or campaign sweeps.
KNOBS = (
    {
        "expiry_threshold": 1, "sram_fraction": 0.1, "parked_bytes": 160,
        "enable_recirculation": False, "min_split_payload": 160,
    },
    {
        "expiry_threshold": 10, "sram_fraction": 0.6, "parked_bytes": 384,
        "enable_recirculation": True, "min_split_payload": 100_000,
    },
)

#: Fields a shared run sets differently from a cell run alone.
UNSHARED = ("wall_time_s", "baseline_simulated")

#: (campaign, workload, rate) of the cells whose measurement window is
#: empty at :data:`FAST`: rate-ramp starts from zero and at 4 Gb/s sends
#: nothing in its first 90 µs.  Each is an ``EmptyWindowError`` record,
#: shared or alone.
EMPTY_AT_FAST = {("workload-sweep", "rate-ramp", 4.0)}


def _compare_campaigns():
    pytest.importorskip("yaml")
    campaigns = [CampaignSpec.from_file(path) for path in sorted(CAMPAIGNS.glob("*.yaml"))]
    return [campaign for campaign in campaigns if campaign.mode == "compare"]


def _comparable(record):
    return {key: value for key, value in record.items() if key not in UNSHARED}


def _by_hash(records):
    return {record["spec_hash"]: _comparable(record) for record in records}


def _alone(campaign):
    return _by_hash(execute_run(run) for run in campaign.expand())


@pytest.fixture(scope="module")
def compare_campaigns():
    """Every compare campaign of ``examples/campaigns/`` at :data:`FAST`,
    with the records its cells produce when each runs alone."""
    campaigns = [campaign.with_time_scale(FAST) for campaign in _compare_campaigns()]
    return [(campaign, _alone(campaign)) for campaign in campaigns]


@pytest.mark.parametrize("name", sorted(SCENARIO_REGISTRY))
def test_the_baseline_reads_no_payloadpark_knob(name):
    scenario = build_scenario(RunSpec(name, params=REQUIRED_ARGS.get(name, {})))
    runner = ExperimentRunner(time_scale=FAST)
    first, second = (apply_overrides(scenario, knobs) for knobs in KNOBS)
    assert first.payloadpark != second.payloadpark
    reports = [runner.run_deployment(s, DeploymentKind.BASELINE) for s in (first, second)]
    assert reports[0].as_row() == reports[1].as_row()
    assert reports[0] == reports[1]


@pytest.mark.parametrize("workers", [1, 2])
def test_shared_campaigns_record_what_each_cell_records_alone(workers, compare_campaigns):
    for campaign, alone in compare_campaigns:
        summary = CampaignExecutor(workers=workers).run_campaign(campaign)
        failed = [record for record in summary.records if record["status"] != "ok"]
        assert summary.failed == len(failed)
        assert {
            (campaign.name, r["params"].get("workload"), r["params"].get("send_rate_gbps"))
            for r in failed
        } == {cell for cell in EMPTY_AT_FAST if cell[0] == campaign.name}
        assert all(r["error"].startswith("EmptyWindowError: ") for r in failed)
        assert _by_hash(summary.records) == alone, campaign.name
        baselines = {run.baseline_hash for run in campaign.expand()}
        if workers == 1:
            # A baseline that raised is not shared: each of its cells
            # simulates (and fails) it.
            shared = {r["baseline_hash"] for r in summary.records if r["status"] == "ok"}
            assert summary.baselines_simulated == len(shared) + len(failed), campaign.name
        else:
            assert len(baselines) <= summary.baselines_simulated <= summary.executed
        assert {r["baseline_hash"] for r in summary.records} == baselines


class _EveryRunFails(Invariant):
    """Violates on every run, naming the deployment and its traffic."""

    name = "every-run-fails"

    def check(self, obs):
        sent = sum(a.pktgen.packets_sent for a in obs.topology.attachments)
        return [self._violation(obs, f"{obs.deployment} sent {sent}")]


@pytest.mark.parametrize("workers", [1, 2])
def test_a_shared_baseline_keeps_its_violations_in_order(workers, monkeypatch):
    monkeypatch.setattr(
        engine, "DEFAULT_INVARIANTS", (*engine.DEFAULT_INVARIANTS, _EveryRunFails())
    )
    (campaign,) = [c for c in _compare_campaigns() if c.name == "closed-loop-sweep"]
    campaign = campaign.with_time_scale(FAST)
    summary = CampaignExecutor(workers=workers).run_campaign(campaign)
    assert summary.baselines_simulated < summary.executed
    for record in summary.records:
        assert record["status"] == "violation"
        assert record["runs_validated"] == 2
        mine = [v for v in record["violations"] if v["check"] == _EveryRunFails.name]
        assert [v["deployment"] for v in mine] == ["baseline", "payloadpark"]
    assert _by_hash(summary.records) == _alone(campaign)


def test_observe_cells_run_their_own_baseline(tmp_path):
    campaign = CampaignSpec(
        name="observed-knobs",
        scenario="fw_nat_lb_10ge",
        grid={"expiry_threshold": [1, 10]},
        time_scale=FAST,
        options={"observe": {"metrics": True, "out_dir": str(tmp_path)}},
    )
    runs = campaign.expand()
    assert len({run.baseline_hash for run in runs}) == 1
    summary = CampaignExecutor(workers=1).run_campaign(campaign)
    assert summary.failed == 0
    assert summary.baselines_simulated == 2
    for record in summary.records:
        assert record["baseline_simulated"] is True
        assert [obs["deployment"] for obs in record["observability"]] == [
            "baseline", "payloadpark",
        ]
        files = record["observability_files"]
        assert len(files) == 2 and all(Path(name).exists() for name in files)
        assert all(name.startswith(record["observability_dir"]) for name in files)
