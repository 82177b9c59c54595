"""A run builds the flows it sends, and none before its first packet.

Every enterprise-mix scenario offers a 4096-flow population; building it
up front was a third of a short campaign cell (``runner.setup_ms_per_run``
5.1 ms of a 29 ms cell).  Flows are shared per process
(``repro.packet.flows.FLOW_SLOTS``), so each count starts from emptied
memos (the ``empty_memos`` fixture).  The checks here count
constructions instead of reading a clock, so a regression to eager
set-up fails on any machine — and pin the simulated results of a
campaign-grid-shaped campaign, which neither laziness nor the memos,
empty or filled by another scenario, may move.
"""

import hashlib
from pathlib import Path

import pytest

from repro.experiments import scenarios
from repro.experiments.runner import (
    DeploymentKind,
    ExperimentRunner,
    RunObserver,
    run_observer,
)
from repro.orchestrator.executor import execute_run
from repro.orchestrator.spec import CampaignSpec, build_scenario, canonical_json
from repro.packet.flows import FlowGenerator
from repro.traffic.pktgen import PacketFactory

CAMPAIGNS = Path(__file__).resolve().parents[2] / "examples" / "campaigns"


def _campaign_grid(seed: int = 7) -> CampaignSpec:
    """The perf ledger's ``campaign_grid`` workload (24 short cells)."""
    return CampaignSpec(
        name="perf-campaign-grid",
        scenario="fw_nat_lb_10ge",
        grid={
            "send_rate_gbps": [4.0, 8.0, 10.5],
            "expiry_threshold": [1, 3],
            "sram_fraction": [0.10, 0.26],
            "seed": [seed, seed + 1],
        },
        time_scale=0.05,
    )


#: The five ledger workloads' scenarios plus the registered workloads
#: whose flow models slice or bind the population at wiring time.
SCENARIOS = {
    "fig07_sat": lambda: scenarios.fw_nat_lb_10ge(10.5),
    "multi8_macswap": lambda: scenarios.multi_server_384b(8, 9.0),
    "evict_pressure": lambda: scenarios.memory_sweep_scenario(0.05, 30.0),
    "incast_closed": lambda: scenarios.workload_scenario("incast-collapse"),
    "campaign_grid": lambda: build_scenario(_campaign_grid().expand()[0]),
    "enterprise-poisson": lambda: scenarios.workload_scenario("enterprise-poisson"),
    "heavy-tail": lambda: scenarios.workload_scenario("heavy-tail"),
}


@pytest.fixture
def flows_made(monkeypatch):
    """Indices ``_make_flow`` was asked for, in order."""
    made = []
    make_flow = FlowGenerator._make_flow

    def counting(self, index):
        made.append(index)
        return make_flow(self, index)

    monkeypatch.setattr(FlowGenerator, "_make_flow", counting)
    return made


class _SetupDone(Exception):
    pass


class _StopAtRunStart(RunObserver):
    def on_run_start(self, scenario, deployment, topology, program) -> None:
        raise _SetupDone


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_set_up_builds_no_flow(name, flows_made, empty_memos):
    scenario = SCENARIOS[name]()
    runner = ExperimentRunner(time_scale=0.05)
    with run_observer(_StopAtRunStart()):
        for deployment in DeploymentKind:
            with pytest.raises(_SetupDone):
                runner.run_deployment(scenario, deployment)
    assert flows_made == []


def test_a_short_compare_builds_only_the_flows_it_sends(flows_made, monkeypatch, empty_memos):
    frames = []
    next_packet = PacketFactory.next_packet

    def counting(self):
        frames.append(self)
        return next_packet(self)

    monkeypatch.setattr(PacketFactory, "next_packet", counting)
    scenario = scenarios.fw_nat_lb_10ge(10.5)
    ExperimentRunner(time_scale=0.05).compare(scenario)

    baseline_factory = frames[0]
    baseline_frames = sum(factory is baseline_factory for factory in frames)
    population = scenario.workload.flows.flows()
    filled = sum(flow is not None for flow in population.slots)
    assert 0 < filled <= baseline_frames < len(population)
    # Both deployments share the scenario's population: each flow once.
    assert sorted(flows_made) == list(range(filled))


#: sha256 over the campaign grid's (params, metrics), as of the parent commit.
CAMPAIGN_GRID_SHA = "63f967aed337b1cdce63c55112f2b24de4c5ea8df8910ae331a8875d3aed6825"


def _sha256(value) -> str:
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


def test_campaign_grid_records_are_unchanged(empty_memos):
    records = [execute_run(run) for run in _campaign_grid().expand()]
    assert [record["status"] for record in records] == ["ok"] * 24
    assert _sha256([[r["params"], r["metrics"]] for r in records]) == CAMPAIGN_GRID_SHA


def test_campaign_grid_records_are_unchanged_after_another_scenario(empty_memos):
    # fig07_sat's compare fills the memos with more of the same 4096-flow
    # population than a cell sends, its Maglev table and its hosts.
    ExperimentRunner(time_scale=0.1).compare(SCENARIOS["fig07_sat"]())
    records = [execute_run(run) for run in _campaign_grid().expand()]
    assert _sha256([[r["params"], r["metrics"]] for r in records]) == CAMPAIGN_GRID_SHA


#: sha256 over the expanded runs' spec hashes, as of the parent commit.
SPEC_HASHES = {
    "closed_loop_sweep": "9781bc4c7fd70cd67e460a166e58cc0fc69a6ae02e4b821ba4b604b2ff5f3498",
    "dispatcher_chaos": "ce4b2a5f68e1ed457fdde578144e286b13df1f110a3dff7d6852ec07c0ab1f7a",
    "fault_chaos": "6f78296ce8686b77e1c10974f4231f6e42e0c8d8a88bdbb14a7e4183736fb254",
    "memory_peak_sweep": "10688467eb42f6e237654a4b916d653f301014e01849417f0e1dbdef9f4d01d7",
    "rate_expiry_grid": "91754b29ad85964f9daa6fcdecb2b2a1562c1476104104ef87430e72d9aeceec",
    "serve_smoke": "0a0d124bb87e9be74f82014b73b4ad0a47174f8e60b33c8a54f243c6b93f9b84",
    "validated_rate_sweep": "6dedb0003928551e222ec308051924746affeeb51cb5fdfbfb07e419f9bbb806",
    "workload_sweep": "0a97299965b201a772b865aa11396c947f9caef277f1b02c8fca136d86a661de",
}


@pytest.mark.parametrize("name", sorted(SPEC_HASHES))
def test_example_campaign_spec_hashes_are_unchanged(name):
    pytest.importorskip("yaml")
    runs = CampaignSpec.from_file(CAMPAIGNS / f"{name}.yaml").expand()
    assert _sha256([run.spec_hash for run in runs]) == SPEC_HASHES[name]
