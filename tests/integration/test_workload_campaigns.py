"""End-to-end: every named workload runs through campaign sweeps.

The acceptance bar for the workload subsystem: each registered workload
must survive the full path — registry lookup, scenario materialization,
simulator execution, result-store round trip — via ``repro campaign
run``-style sweeps, deterministically for a fixed seed.
"""

import json

import pytest

from repro.cli import main
from repro.orchestrator import CampaignExecutor, CampaignSpec, ResultStore
from repro.workloads import workload_names

#: Cheap simulation fidelity for integration runs.
TIME_SCALE = 0.04


def _run_campaign(campaign, store=None):
    summary = CampaignExecutor(workers=1).run_campaign(campaign, store=store)
    failures = [r.get("error") for r in summary.records if r.get("status") != "ok"]
    assert not failures, failures
    return summary


class TestWorkloadCampaigns:
    def test_every_registered_workload_runs_in_a_sweep(self):
        campaign = CampaignSpec(
            name="all-workloads",
            scenario="workload",
            grid={"workload": workload_names()},
            base={"seed": 11},
            time_scale=TIME_SCALE,
        )
        summary = _run_campaign(campaign)
        assert summary.executed == len(workload_names())
        for record in summary.records:
            metrics = record["metrics"]
            assert metrics["payloadpark_packets_sent"] > 0
            assert metrics["baseline_packets_sent"] > 0

    def test_workload_by_rate_by_memory_grid(self, tmp_path):
        campaign = CampaignSpec(
            name="wl-grid",
            scenario="workload",
            grid={
                "workload": ["bursty-mmpp", "flood-churn"],
                "send_rate_gbps": [4.0, 8.0],
                "sram_fraction": [0.10, 0.26],
            },
            base={"seed": 3},
            time_scale=TIME_SCALE,
        )
        store = ResultStore(tmp_path / "grid.jsonl")
        summary = _run_campaign(campaign, store=store)
        assert summary.executed == 8
        # Resume skips everything on the second pass.
        resumed = CampaignExecutor(workers=1).run_campaign(campaign, store=store)
        assert resumed.skipped == 8 and resumed.executed == 0

    @pytest.mark.parametrize("name", workload_names())
    def test_same_seed_reproduces_metrics(self, name):
        campaign = CampaignSpec(
            name="det",
            scenario="workload",
            grid={"workload": [name]},
            base={"seed": 7},
            time_scale=TIME_SCALE,
        )
        first = _run_campaign(campaign).records[0]["metrics"]
        second = _run_campaign(campaign).records[0]["metrics"]
        assert first == second

    def test_campaign_cli_round_trip(self, tmp_path, capsys):
        spec = {
            "name": "wl-cli",
            "scenario": "workload",
            "grid": {"workload": ["rate-ramp", "pcap-replay"]},
            "base": {"seed": 5},
            "time_scale": TIME_SCALE,
        }
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(spec))
        store = tmp_path / "results.jsonl"
        assert main(["campaign", "run", str(path), "--store", str(store), "--workers", "1"]) == 0
        capsys.readouterr()
        assert main(["campaign", "report", str(path), "--store", str(store),
                     "--columns", "goodput_gain_percent", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {row["workload"] for row in payload["rows"]} == {"rate-ramp", "pcap-replay"}
